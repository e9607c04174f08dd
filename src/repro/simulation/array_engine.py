"""The batched struct-of-arrays engine backend (``backend="array"``).

ROADMAP item 2: the event-driven engine (PR 4) still advances one
Python ``Packet`` object at a time; this backend packs channel
allocation, buffer occupancy, header position/direction, and per-packet
timers into numpy struct-of-arrays and advances **every in-flight worm
of every batched operating point** per cycle with boolean-mask kernels.
:class:`BatchSimulator` stacks B independent operating points (sweep
points, seeds, fault trials) along one concatenated arena so a full
figure sweep is a handful of numpy passes per cycle instead of
B Python interpreter loops.

**Equivalence contract** (proved by the three-way suite in
``tests/simulation/test_engine_equivalence.py`` and the golden
fingerprints; see docs/SIMULATOR.md for the per-feature table): every
feature is *bit-identical* to the event engine.  Operating points inside
the *vectorized envelope* — any virtual-channel count, any selection
policy from ``repro.routing.selection`` (``xy``, ``round-robin``,
``max-credits``, ``threshold``) with ``fcfs`` input selection — run
arbitration and movement as numpy kernels whose update order provably
replays the scalar engine's (head-first flit shifting via a rank walk
over disjoint chains; two-phase arbitration via a lexsort that computes
exactly the local-FCFS winner per contested channel).  Fault plans,
per-packet stall watchdogs with bounded-backoff retries, and the
streaming collectors (channel-util series, router blocked cycles,
latency histograms) are vectorized too: failures become per-cycle dead
masks over the LUT candidate arrays, watchdog ages are array compares,
and collector counters are scatter-adds over the shared arena.
Multi-VC points (plain multi-VC mesh, torus dateline classes, escape-VC
adaptive) widen the arena with a runtime-channel axis — one lane per
(physical channel, vc) — flatten the per-VC-class candidate sets of
``repro.routing.virtual`` into the same integer LUTs, reduce the
(direction, vc) pair columns to the engine's per-direction first-free
pair before selection, and serialise the one-flit-per-physical-link
arbitration with the run-rank/lexsort technique so the engine's rotated
per-member movement order is replayed exactly.  ``PhaseProfiler`` hooks
do not demote either: a profiled run wraps each kernel pass of the one
stage list (``_STAGES``) in a clock pair around unchanged state
transitions, so it stays bit-identical.  Points outside the envelope
(``random``/``zigzag`` selection — ``random`` draws from the RNG
mid-arbitration — trace sinks, LUTs past the entry cap) run as one
whole :class:`~repro.simulation.engine.WormholeSimulator` run each — the
same code, therefore trivially bit-identical — so the whole
configuration space is supported and the batch API is uniform.
:func:`demotion_reasons` names the gate(s) any point failed, and
:class:`BatchSimulator` counts demotions per reason so silent fast-path
loss is visible (``repro sweep/faults/bench --backend array`` print the
coverage fraction).

Generation, injection, and the drop/retry/delivery accounting are not
reimplemented here: each vectorized member holds the same
:class:`~repro.simulation.lifecycle.PacketLifecycle` the event engine
holds, scalar per member (it is event-driven — an arrival calendar —
and owns the member's ``random.Random(seed)``), and the core only
mirrors "when is this member next due" into arrays (docs/SIMULATOR.md,
"Engine structure").  Nothing in the envelope draws from the RNG during
arbitration, so the streams stay aligned.

numpy is an optional dependency (``pip install repro[array]``); the
module imports with numpy absent and every entry point raises a clear
error instead.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Sequence, Tuple

try:  # numpy is the optional `repro[array]` extra
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the minimal-install job
    np = None  # type: ignore[assignment]

from ..faults.plan import CHANNEL_FAULT, FAIL
from ..observability.profiler import timed
from ..routing.table import NetworkTables, network_index, shared_tables
from ..verification.graph import DiGraph
from .config import SimulationConfig
from .engine import WormholeSimulator
from .lifecycle import PacketLifecycle
from .metrics import SimulationResult
from .packet import Packet

#: Arena codes for ``pk_state`` (a packet leaves the arena as ``_DONE``).
_ROUTING = 0
_MOVING = 1
_EJECT_WAIT = 2
_EJECTING = 3
_DONE = 4

#: Candidate lookup tables beyond this many int32 entries are not built;
#: the affected points run on the event engine instead of paying
#: hundreds of MB per (algorithm, topology) group.
_LUT_ENTRY_CAP = 33_554_432

#: ``ch_warm`` sentinel for channels whose member does not track load
#: (also the generic "never due" sentinel for per-member cycle timers).
_NEVER = 1 << 60

#: ``ch_mb`` packs per-channel counters into one int64: flits moved in
#: the high 32 bits, buffer occupancy in the low 32.
_MB_LOW = (1 << 32) - 1
_MB_HI1 = 1 << 32
_MB_BOTH = _MB_HI1 | 1

#: Output-selection policies the kernels replay exactly (the LUT columns
#: are (dim, sign)-sorted and direction-deduped, which is precisely the
#: ``sorted(options)`` every one of these policies reduces to; none of
#: them draws from the RNG).  ``random``/``zigzag`` points run on the
#: event engine.
_POLICY_CODES: Dict[str, int] = {
    "xy": 0,
    "round-robin": 1,
    "max-credits": 2,
    "threshold": 3,
}

_SLOT_FIELDS: Tuple[Tuple[str, int, str], ...] = (
    ("pk_sim", 0, "int64"),
    ("pk_len", 0, "int64"),
    ("pk_src", 0, "int64"),
    ("pk_dst", 0, "int64"),
    ("pk_pid", 0, "int64"),
    ("pk_created", 0, "int64"),
    ("pk_state", _DONE, "int64"),
    ("pk_head_node", 0, "int64"),
    ("pk_head_dir", 0, "int64"),
    ("pk_wait", 0, "int64"),
    # Waiting-order sequence number: assigned at injection and at every
    # header arrival, so ascending ``pk_wseq`` over a member's waiting
    # headers is exactly the event engine's insertion-ordered ``waiting``
    # dict — the invocation order of stateful selection policies and the
    # kill order of the per-packet watchdog.
    ("pk_wseq", 0, "int64"),
    ("pk_attempt", 0, "int64"),
    ("pk_head_ch", -1, "int64"),
    ("pk_tail_ch", -1, "int64"),
    ("pk_launched", 0, "int64"),
    ("pk_ejected", 0, "int64"),
    ("pk_injected", -1, "int64"),
    ("pk_hops", 0, "int64"),
    ("pk_mis", 0, "int64"),
    ("pk_depth", 0, "int64"),
    # Virtual channel of the header's last hop (0 before injection and
    # for every single-VC member) — the ``in_vc`` axis of the VC routing
    # LUT rows.
    ("pk_head_vc", 0, "int64"),
    # Rotated service rank of the owning worm within its member's mover
    # list this cycle (the event engine's ``cycle % len(movers)``
    # rotation); valid only for multi-VC members, recomputed per cycle.
    ("pk_order", 0, "int64"),
    ("pk_dormant", 0, "bool"),
    # Scratch flag for the link-arbitration wave loop (per-worm
    # "confirmed" marker; reset before each movement pass returns).
    ("pk_flag", 0, "bool"),
    # Arbitration parking (the vectorized analog of the event engine's
    # channel-free wakeup sets): a ROUTING header with zero free
    # candidates skips arbitration until one of its recorded wait
    # channels (``pk_wchan``) is released.
    ("pk_arbwait", 0, "bool"),
    # Scratch: transiently marks slots whose worm shifted a flit this
    # cycle (always reset to False before the kernel returns).
    ("pk_scratch", 0, "bool"),
)


def numpy_available() -> bool:
    """Whether the optional numpy dependency is importable."""
    return np is not None


def _require_numpy() -> None:
    if np is None:
        raise RuntimeError(
            "the 'array' engine backend requires numpy, which is not "
            "installed; install the optional extra (pip install "
            "'repro[array]' or pip install numpy) or use the default "
            "backend='event'"
        )


def demotion_reasons(config: SimulationConfig) -> Tuple[str, ...]:
    """Why this operating point cannot run on the vectorized kernels.

    Empty for points inside the vectorized envelope.  *Every* applicable
    config gate is reported (the scan does not stop at the first one):
    ``"output-selection"`` for the ``random``/``zigzag`` policies,
    ``"input-selection"`` for non-``fcfs`` input selection.
    Runtime-only gates (trace sinks, the LUT entry cap) are appended by
    :class:`BatchSimulator` — also cumulatively — and surface in its
    ``demotion_counts``.  Pure python — callable without numpy
    installed.
    """
    reasons: List[str] = []
    if config.output_selection not in _POLICY_CODES:
        reasons.append("output-selection")
    if config.input_selection != "fcfs":
        reasons.append("input-selection")
    return tuple(reasons)


def vectorized_envelope(config: SimulationConfig) -> bool:
    """Whether this operating point runs on the vectorized kernels.

    Since the envelope widening (fault plans, selection policies,
    watchdogs/retries, collectors, and multi-VC operation — dateline
    classes and escape channels included — are all vectorized now) only
    two config gates remain: an unvectorized output-selection policy
    (``random`` draws from the RNG mid-arbitration; ``zigzag``) or
    a non-``fcfs`` input selection.  Outside the envelope the array
    backend still accepts the point but runs it on the event engine
    (bit-identical by construction; see the module docstring and
    docs/SIMULATOR.md).
    """
    return not demotion_reasons(config)


def _lut_entries(topology, num_vc: int) -> int:
    """LUT entry count for an (algorithm, topology, num_vc) group —
    computable without building the group (the ``"lut-cap"`` demotion
    gate must be reportable even alongside other gates, when no group
    is ever constructed)."""
    num_dirs = len(network_index(topology).directions)
    n = topology.num_nodes
    rows = n * n * (num_dirs + 1) * num_vc
    return rows * num_dirs * num_vc


def _run_ranks(sorted_keys):
    """Rank of each element within its run of equal values (the input
    must already be sorted); used to serialise per-member policy-pointer
    updates inside one vectorized pass."""
    first = np.empty(sorted_keys.size, dtype=bool)
    first[0] = True
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.nonzero(first)[0]
    run_id = np.cumsum(first) - 1
    return np.arange(sorted_keys.size) - starts[run_id]


class _GroupTables:
    """The integer routing LUTs of one :class:`NetworkTables` (one
    algorithm object at one VC count), plus its one-member arena
    template.

    Flattens the shared tables' decisions into ``[node x dest x
    (in_direction+1)] -> K`` member-local runtime channel ids (xy-sorted
    so *first free wins* is exactly the paper's xy output selection),
    plus the parallel misroute bit per entry.  Rows build lazily, only
    for decisions that actually occur.  Kept on the tables' ``array_lut``
    slot, so every batch member and every later batch running the same
    algorithm object reuses them, under the tables' registry bound.
    Fault masking never touches the LUTs: failures are a runtime
    ``ch_dead`` mask over the candidate columns (the event engine's
    order-preserving fault filter commutes with the dedup+sort used
    here, because only the candidate *set* is observable).

    **Multi-VC layout** (``num_vc > 1``): rows gain an arrival-VC axis —
    ``row = ((node*N + dest)*(num_dirs+1) + diridx)*num_vc + in_vc`` with
    ``in_vc = 0`` for pre-injection headers (``pk_head_vc`` starts at 0)
    — and columns hold up to ``K = num_dirs*num_vc`` *(direction, vc)*
    pairs in the algorithm's ``vc_candidates`` order (NOT sorted: the VC
    preference within a direction is order-significant — the engine
    grants the first free candidate of the selected direction).  A
    parallel ``cdirk`` column gives each pair's dense direction key
    (``dir_index``, 1-based) so arbitration can collapse the pair
    columns to the direction-level ``sorted(options)`` view every
    selection policy consumes.  Escape tables allocate lazily — most
    groups never exhaust their minimal candidates.
    """

    def __init__(self, tables: NetworkTables) -> None:
        # No reference back to ``tables`` (it owns this object): callers
        # pass it to ``ensure_rows``, so dropping the tables frees the
        # LUTs by refcount.
        index = tables.index
        self.num_vc = num_vc = tables.num_vc
        self.dir_index = index.dir_index
        self.num_dirs = len(index.directions)
        self.N = tables.topology.num_nodes
        self.K = self.num_dirs * num_vc
        self.rows = rows = self.N * self.N * (self.num_dirs + 1) * num_vc
        # Narrow dtypes for VC tables: they are num_vc^2 larger than the
        # single-VC ones (5.2M rows x 8 cols for a 16x16 torus at
        # num_vc=2), so int32 ids + int8 flags keep a group tens of MB
        # instead of hundreds.
        self._dtypes = (
            (np.int64, np.int64) if num_vc == 1 else (np.int32, np.int8)
        )
        self.cand, self.cmis, self.cdirk = self._alloc()
        self.cbuilt = np.zeros(rows, dtype=bool)
        self.esc = self.emis = self.edirk = None
        self.ebuilt = np.zeros(rows, dtype=bool)
        # One member's slice of the channel arena: a lane per runtime
        # channel (physical x vc), in the event engine's numbering.
        physical = index.channels
        self.num_links = len(physical)
        self.num_ch = self.num_links * num_vc

        def per_vc(values):
            return np.repeat(np.asarray(values, dtype=np.int64), num_vc)

        self.t_src = per_vc([c.src for c in physical])
        self.t_dst = per_vc([c.dst for c in physical])
        self.t_dir = per_vc([index.dir_index[c.direction] for c in physical])
        self.t_link = per_vc(range(self.num_links))
        self.t_vc = np.tile(np.arange(num_vc, dtype=np.int64), self.num_links)

    def _alloc(self):
        ids, flags = self._dtypes
        shape = (self.rows, self.K)
        return (
            np.full(shape, -1, dtype=ids),
            np.zeros(shape, dtype=flags),
            np.zeros(shape, dtype=flags) if self.num_vc > 1 else None,
        )

    def ensure_rows(self, tables: NetworkTables, rows, escape: bool) -> None:
        built = self.ebuilt if escape else self.cbuilt
        hit = built[rows]
        if hit.all():
            return
        if escape and self.esc is None:
            self.esc, self.emis, self.edirk = self._alloc()
        for r in np.unique(rows[~hit]):
            self._build_row(tables, int(r), escape)

    def _build_row(self, tables: NetworkTables, row: int, escape: bool) -> None:
        num_vc = self.num_vc
        span = self.num_dirs + 1
        rest, in_vc = divmod(row, num_vc)
        nd, diridx = divmod(rest, span)
        node, dest = divmod(nd, self.N)
        port = (node * span + diridx) * num_vc + in_vc
        if escape:
            decision = tables.escape(port, dest)
            out, mis, dirk, built = self.esc, self.emis, self.edirk, self.ebuilt
        else:
            decision = tables.minimal(port, dest)
            out, mis, dirk, built = self.cand, self.cmis, self.cdirk, self.cbuilt
        if num_vc == 1:
            # First-appearance dedup (as the engine does) then xy order,
            # so "first free entry" is the xy output-selection winner.
            decision = sorted(
                dict.fromkeys(decision), key=lambda c: (c[0].dim, c[0].sign)
            )
        dir_index = self.dir_index
        for j, (direction, cid, misroute) in enumerate(decision):
            out[row, j] = cid
            mis[row, j] = misroute
            if dirk is not None:
                dirk[row, j] = dir_index[direction]
        built[row] = True


def _group_tables(tables: NetworkTables) -> "_GroupTables":
    """The LUT group of ``tables``, built on first use and kept on it —
    lazily-built rows survive from one ``BatchSimulator`` to the next in
    the same process, so a campaign pays each flattening once."""
    group = tables.array_lut
    if group is None:
        group = tables.array_lut = _GroupTables(tables)
    return group


class _FastMember:
    """One vectorized-envelope operating point inside a batch.

    Holds the member's :class:`~repro.simulation.lifecycle.
    PacketLifecycle` — the source side and accounting it shares with the
    event engine, an injection gate holding the arena slot of the worm
    using it — plus the scalar twin of the core's fault mask, while
    arbitration and movement for its worms run inside the core's shared
    numpy kernels.  The member holds no reference to its
    :class:`_BatchCore` (every method that touches the arena takes it as
    an argument, and the core refreshes its per-member mirrors of the
    lifecycle's state where it calls it), so a finished batch is freed
    by refcount.
    """

    def __init__(
        self, fidx: int, num_ch: int, algorithm, pattern,
        config: SimulationConfig, profiler=None,
    ) -> None:
        self.fidx = fidx
        self.config = config
        self.profiler = profiler
        self.topology = algorithm.topology
        self.num_vc = config.virtual_channels
        # The arena is runtime-channel granular: one lane per
        # (physical channel, vc), matching the event engine's channel
        # numbering ``physical_index * num_vc + vc``.
        self.num_ch = num_ch
        self.total = config.total_cycles
        self.frozen = False
        self.inflight = 0
        self._last_cycle = 0

        # Fault state (the scalar twin of the core's ``ch_dead`` mask —
        # the sets replay FaultState's exact add/discard sequence),
        # empty for fault-free members.
        self.fault_schedule: Dict[int, list] = (
            {} if config.fault_plan.is_empty else config.fault_plan.schedule()
        )
        self.dead_routers: set = set()
        self.dead_channels: set = set()
        self.life = PacketLifecycle(
            algorithm, pattern, config, self.dead_routers
        )
        self.result = self.life.result
        self._series_buckets: List[List[int]] = []

        # Assigned by the core once all members are known.
        self.ch_off = 0
        self.node_off = 0

    def _kill(
        self, core: "_BatchCore", slot: int, cycle: int, cause: str,
        killed: bool = True,
    ) -> None:
        """Remove an in-flight worm: release every held resource, then
        account the drop (the array twin of the engine's ``_kill``)."""
        fidx = self.fidx
        stall = cycle - int(core.pk_wait[slot])
        if stall > core.m_maxstall[fidx]:
            core.m_maxstall[fidx] = stall
        c = int(core.pk_tail_ch[slot])
        while c >= 0:
            nxt = int(core.ch_next[c])
            core.ch_owner[c] = -1
            core.ch_held[c] = False
            core.ch_freed[c] = True
            core._any_freed = True
            core.ch_mb[c] = 0
            core.ch_prev[c] = -1
            core.ch_next[c] = -1
            c = nxt
        core.pk_tail_ch[slot] = -1
        core.pk_head_ch[slot] = -1
        src = int(core.pk_src[slot])
        if self.life.injection_busy[src] == slot:
            if self.life.release_injection(src):
                core.m_pending[fidx] = True
        dst = int(core.pk_dst[slot])
        if core.ej_owner[self.node_off + dst] == slot:
            core.ej_owner[self.node_off + dst] = -1
        core.pk_state[slot] = _DONE
        core.pk_arbwait[slot] = False
        core.pk_dormant[slot] = False
        core._live_dirty = True
        self.inflight -= 1
        core.m_inflight[fidx] -= 1
        self._drop(
            core, src, dst, int(core.pk_len[slot]),
            int(core.pk_created[slot]), int(core.pk_attempt[slot]), cycle,
            cause, killed,
        )

    def _drop(
        self, core: "_BatchCore", src: int, dst: int, length: int,
        created: int, attempt: int, cycle: int, cause: str,
        killed: bool = False,
    ) -> None:
        """Account one drop and mirror the retry it may have scheduled."""
        fidx = self.fidx
        core.m_lastprog[fidx] = cycle  # freed resources are progress
        due = self.life.account_drop(
            src, dst, length, created, attempt, cycle, cause, killed
        )
        if due is not None and due < core.m_nextretry[fidx]:
            core.m_nextretry[fidx] = due

    def _deliver(self, core: "_BatchCore", slot: int, cycle: int) -> None:
        core.ej_owner[self.node_off + int(core.pk_dst[slot])] = -1
        core.pk_state[slot] = _DONE
        core._live_dirty = True
        self.inflight -= 1
        core.m_inflight[self.fidx] -= 1
        injected = int(core.pk_injected[slot])
        self.life.account_delivery(
            int(core.pk_len[slot]), int(core.pk_created[slot]),
            injected if injected >= 0 else None, int(core.pk_hops[slot]),
            int(core.pk_mis[slot]), cycle,
        )


#: One cycle of the vectorized members, in the event engine's stage
#: order: ``(profiler phase, kernel pass)``.  The one stage list of this
#: engine — ``run`` executes it, a profiler times it.  Routing is a LUT
#: gather inside ``allocate`` (no ``route`` phase); ``collect`` is the
#: collectors' end-of-cycle pass the event engine runs inline.
_STAGES = (
    ("faults", "_faults_pass"),
    ("retries", "_retries_pass"),
    ("generate", "_generate_pass"),
    ("inject", "_inject_pass"),
    ("allocate", "_arbitrate_vec"),
    ("advance", "_move_vec"),
    ("watchdog", "_watchdog_pass"),
    ("collect", "_collect_pass"),
)


class _BatchCore:
    """The shared arena advancing every fast member's worms per cycle.

    Channel state is concatenated across fast members (``ch_off`` /
    ``node_off`` offsets keep members disjoint, so one kernel pass
    serves the whole batch); packet state lives in append-only slot
    arrays — slots are never reused, so ascending slot order *is* each
    member's packet-injection order, which is exactly the iteration
    order of the event engine's insertion-ordered ``active`` dict.
    Every scalar side effect that order can reach (injection release,
    delivery accounting) is therefore applied in ascending slot order.
    Every member is fast: :class:`_Split` runs the other points on the
    event engine.
    """

    def __init__(self, points, profilers) -> None:
        self.fast: List[_FastMember] = []
        # One group per distinct algorithm object x VC count: the shared
        # tables (which carry the LUTs on ``array_lut``).  Holding them
        # here keeps an in-flight batch working if the registry drops
        # the group meanwhile.
        self.groups: List[NetworkTables] = []
        group_of: List[int] = []
        for (algorithm, pattern, config), profiler in zip(points, profilers):
            tables = shared_tables(algorithm, config.virtual_channels)
            if tables not in self.groups:
                self.groups.append(tables)
            self.fast.append(_FastMember(
                len(self.fast), _group_tables(tables).num_ch, algorithm,
                pattern, config, profiler=profiler,
            ))
            group_of.append(self.groups.index(tables))

        # -- concatenated channel / node arenas over the fast members.
        # One arena lane per *runtime* channel (physical x vc), matching
        # the event engine's channel numbering; ``ch_link`` maps each
        # lane back to a globally-unique physical link id (the one-flit-
        # per-link-per-cycle resource multi-VC movement arbitrates).
        # Each group's one-member template is concatenated per member;
        # per-member constants are repeated over the member's lanes.
        luts = [self.groups[gi].array_lut for gi in group_of]
        lanes = np.asarray([lut.num_ch for lut in luts], dtype=np.int64)
        ch_off = 0
        node_off = 0
        link_off = 0
        link_offs: List[int] = []
        for member, lut in zip(self.fast, luts):
            member.ch_off = ch_off
            member.node_off = node_off
            link_offs.append(link_off)
            ch_off += lut.num_ch
            link_off += lut.num_links
            node_off += member.topology.num_nodes

        def template(name: str):
            return np.concatenate([getattr(lut, name) for lut in luts])

        def per_lane(values, dtype=np.int64):
            return np.repeat(np.asarray(values, dtype=dtype), lanes)

        configs = [m.config for m in self.fast]
        any_loads = any(c.track_channel_load for c in configs)
        any_series = any(c.channel_series_period > 0 for c in configs)
        total_ch = ch_off
        total_nodes = node_off
        self.ch_owner = np.full(total_ch, -1, dtype=np.int64)
        # Mirror of ``ch_owner >= 0`` maintained at grant/release, so the
        # per-cycle held-channel scan is a bool nonzero, not an int compare.
        self.ch_held = np.zeros(total_ch, dtype=bool)
        # moved/buffered counters packed into one word (moved in the high
        # 32 bits, buffer occupancy in the low 32) so the movement kernel
        # reads and updates both with a single gather/scatter each.
        self.ch_mb = np.zeros(total_ch, dtype=np.int64)
        self.ch_prev = np.full(total_ch, -1, dtype=np.int64)
        self.ch_next = np.full(total_ch, -1, dtype=np.int64)
        self.ch_src_local = template("t_src")
        self.ch_dst_local = template("t_dst")
        self.ch_dir = template("t_dir")
        self.ch_link = template("t_link") + per_lane(link_offs)
        self.ch_vc = template("t_vc")
        # Lanes whose member runs multiple VCs: only their movement is
        # subject to physical-link arbitration (single-VC members map
        # lanes and links one-to-one, so the event engine skips the
        # ``links_used`` bookkeeping there — and so do we).
        self.ch_multi = per_lane([m.num_vc > 1 for m in self.fast], bool)
        self._any_vc = bool(self.ch_multi.any())
        self._all_vc = bool(self.ch_multi.all())
        self.total_links = link_off
        # Wave-loop scratch (allocated once; reset per touched link).
        self._link_min = np.full(link_off + 1, _NEVER, dtype=np.int64)
        self._link_taken = np.full(link_off + 1, _NEVER, dtype=np.int64)
        self._link_dup = np.zeros(link_off + 1, dtype=bool)
        # Per-cycle inverse of the sorted held-channel array
        # (``_ch_pos[held] = arange``): O(1) gathers where the chain
        # solver and link arbitration would otherwise bisect.
        self._ch_pos = np.zeros(total_ch, dtype=np.int64)
        self.ch_warm = per_lane([
            c.warmup_cycles if c.track_channel_load else _NEVER
            for c in configs
        ])
        self.loads = np.zeros(total_ch, dtype=np.int64) if any_loads else None
        # Streaming channel-util series: one shared counter array with a
        # per-channel measurement window; buckets roll per member on its
        # own schedule (``m_nextroll``).
        if any_series:
            self.ch_series = np.zeros(total_ch, dtype=np.int64)
            self.ch_s0 = per_lane([
                c.warmup_cycles if c.channel_series_period > 0 else _NEVER
                for c in configs
            ])
            self.ch_s1 = per_lane([c.generation_cycles for c in configs])
        else:
            self.ch_series = None
            self.ch_s0 = None
            self.ch_s1 = None
        self.ej_owner = np.full(total_nodes, -1, dtype=np.int64)
        # Arbitration wakeup flags: stage 3 marks released channels here
        # and the next cycle's arbitration wakes exactly the parked
        # headers waiting on one.  The extra trailing cell is a
        # never-freed sentinel that padding entries in ``pk_wchan``
        # point at, keeping gathers in bounds without a validity mask.
        self.ch_freed = np.zeros(total_ch + 1, dtype=bool)
        self._any_freed = False
        self._wpad = total_ch
        self._wwidth = max(2 * lut.K for lut in luts)

        nfast = len(self.fast)
        self.f_group = np.asarray(group_of, dtype=np.int64)
        self.f_ch_off = np.asarray(
            [m.ch_off for m in self.fast], dtype=np.int64
        )
        self.f_node_off = np.asarray(
            [m.node_off for m in self.fast], dtype=np.int64
        )
        self.f_warmup = np.asarray(
            [m.config.warmup_cycles for m in self.fast], dtype=np.int64
        )
        self.f_mislimit = np.asarray(
            [m.config.misroute_limit for m in self.fast], dtype=np.int64
        )
        self.f_numvc = np.asarray(
            [m.num_vc for m in self.fast], dtype=np.int64
        )
        # A worm can revisit a physical link (on another VC) only by
        # visiting a node twice, which needs a non-minimal hop: with
        # misroutes disabled the intra-worm duplicate-link scan in the
        # link arbiter is provably dead, so skip it per cycle.
        self._any_vc_mis = bool(
            ((self.f_numvc > 1) & (self.f_mislimit > 0)).any()
        )
        self.m_lastprog = np.zeros(nfast, dtype=np.int64)
        self.m_maxgrant = np.zeros(nfast, dtype=np.int64)
        # Per-member run-loop bookkeeping, vectorized so the cycle loop
        # touches Python only for members with work due this cycle.
        self.m_inflight = np.zeros(nfast, dtype=np.int64)
        self.m_total = np.asarray(
            [m.total for m in self.fast], dtype=np.int64
        )
        self.m_genend = np.asarray(
            [m.config.generation_cycles for m in self.fast], dtype=np.int64
        )
        self.m_dlthresh = np.asarray(
            [m.config.deadlock_threshold for m in self.fast], dtype=np.int64
        )
        self.m_period = np.asarray(
            [m.config.queue_sample_period for m in self.fast], dtype=np.int64
        )
        self.m_next_sample = self.f_warmup.copy()
        self.m_act = np.ones(nfast, dtype=bool)
        self.m_pending = np.zeros(nfast, dtype=bool)
        self.m_nextgen = np.asarray(
            [
                m.life.arrival_heap[0][0] if m.life.arrival_heap else np.inf
                for m in self.fast
            ],
            dtype=np.float64,
        )

        # -- selection-policy state (pointer counters live per member,
        # exactly like the per-simulator policy instances they replay)
        self.m_policy = np.asarray(
            [_POLICY_CODES[m.config.output_selection] for m in self.fast],
            dtype=np.int64,
        )
        self.m_threshold = np.asarray(
            [m.config.selection_threshold for m in self.fast], dtype=np.int64
        )
        self.m_rrptr = np.zeros(nfast, dtype=np.int64)
        self.m_mcptr = np.zeros(nfast, dtype=np.int64)
        self._needs_policy = bool((self.m_policy != 0).any())
        needs_cong = bool((self.m_policy >= 2).any())

        # -- watchdog / retry / fault timers
        self.m_timeout = np.asarray(
            [m.config.packet_timeout for m in self.fast], dtype=np.int64
        )
        self.m_maxstall = np.zeros(nfast, dtype=np.int64)
        self.m_nextretry = np.full(nfast, _NEVER, dtype=np.int64)
        self.m_nextfault = np.asarray(
            [
                min(m.fault_schedule) if m.fault_schedule else _NEVER
                for m in self.fast
            ],
            dtype=np.int64,
        )
        self._any_timeout = bool((self.m_timeout > 0).any())
        self._any_faults = bool((self.m_nextfault != _NEVER).any())
        self._any_drops = self._any_faults or self._any_timeout
        self.ch_dead = (
            np.zeros(total_ch, dtype=bool) if self._any_faults else None
        )

        # -- collector state
        self.m_blocked = np.asarray(
            [m.config.collect_router_blocked for m in self.fast], dtype=bool
        )
        self.node_blocked = (
            np.zeros(total_nodes, dtype=np.int64)
            if bool(self.m_blocked.any())
            else None
        )
        rolls: List[int] = []
        for m in self.fast:
            period = m.config.channel_series_period
            if period > 0:
                first = m.config.warmup_cycles + period - 1
                rolls.append(
                    first if first < m.config.generation_cycles else _NEVER
                )
            else:
                rolls.append(_NEVER)
        self.m_nextroll = np.asarray(rolls, dtype=np.int64)
        self._any_collect = (
            self.node_blocked is not None or self.ch_series is not None
        )

        # -- congestion view (policies >= max-credits): per-node credit
        # and occupancy sums over the shared arena, recomputed at most
        # once per cycle and frozen during arbitration exactly like
        # EngineCongestionView (grants and moves happen after the scan).
        if needs_cong:
            noff = per_lane([m.node_off for m in self.fast])
            self.ch_src_g = self.ch_src_local + noff
            self.ch_dst_g = self.ch_dst_local + noff
            depth_nodes: List[int] = []
            for m in self.fast:
                depth_nodes.extend(
                    [m.config.buffer_depth] * m.topology.num_nodes
                )
            self.node_depth = np.asarray(depth_nodes, dtype=np.int64)
            self.node_liveout = np.bincount(
                self.ch_src_g, minlength=total_nodes
            ).astype(np.int64)
            self.node_capacity = self.node_liveout * self.node_depth
            self._occ = np.zeros(total_nodes, dtype=np.int64)
            self._cred = np.zeros(total_nodes, dtype=np.int64)
            self._cong_cycle = -1
        else:
            self.ch_src_g = None
            self.ch_dst_g = None
            self.node_depth = None
            self.node_liveout = None
            self.node_capacity = None

        # -- slot arena (append-only; grown geometrically)
        self.n_slots = 0
        self._wseq = 0
        cap = 4096
        for name, fill, dtype in _SLOT_FIELDS:
            setattr(self, name, np.full(cap, fill, dtype=dtype))
        # Wait channels of arbitration-parked headers: minimal candidates
        # in the first K columns, escape candidates (when the header has
        # misroute budget) in the next K, sentinel-padded.
        self.pk_wchan = np.full(
            (cap, self._wwidth), self._wpad, dtype=np.int64
        )
        self.live = np.empty(0, dtype=np.int64)
        self._staged: List[int] = []
        self._live_dirty = False
        depths = {m.config.buffer_depth for m in self.fast}
        # When every member shares one buffer depth (the common case) the
        # capacity test is a scalar compare instead of a per-slot gather.
        self._depth_one = depths.pop() if len(depths) == 1 else None

    # -- slot arena ----------------------------------------------------------

    def _alloc_slot(self, member: _FastMember, packet: Packet, cycle: int) -> int:
        slot = self.n_slots
        if slot >= len(self.pk_len):
            new_cap = len(self.pk_len) * 2
            for name, fill, dtype in _SLOT_FIELDS:
                old = getattr(self, name)
                grown = np.full(new_cap, fill, dtype=dtype)
                grown[: len(old)] = old
                setattr(self, name, grown)
            grown = np.full(
                (new_cap, self._wwidth), self._wpad, dtype=np.int64
            )
            grown[: len(self.pk_wchan)] = self.pk_wchan
            self.pk_wchan = grown
        self.n_slots = slot + 1
        self.pk_sim[slot] = member.fidx
        self.pk_len[slot] = packet.length
        self.pk_src[slot] = packet.src
        self.pk_dst[slot] = packet.dst
        self.pk_pid[slot] = packet.pid
        self.pk_created[slot] = packet.created
        self.pk_state[slot] = _ROUTING
        self.pk_head_node[slot] = packet.src
        self.pk_head_dir[slot] = 0  # 0 encodes "no arrival direction yet"
        self.pk_wait[slot] = cycle
        self.pk_wseq[slot] = self._wseq
        self._wseq += 1
        self.pk_attempt[slot] = packet.attempt
        self.pk_head_ch[slot] = -1
        self.pk_tail_ch[slot] = -1
        self.pk_launched[slot] = 0
        self.pk_ejected[slot] = 0
        self.pk_injected[slot] = -1
        self.pk_hops[slot] = 0
        self.pk_mis[slot] = 0
        self.pk_depth[slot] = member.config.buffer_depth
        self.pk_dormant[slot] = False
        self.pk_arbwait[slot] = False
        member.inflight += 1
        self.m_inflight[member.fidx] += 1
        self._staged.append(slot)
        return slot

    def _refresh_live(self) -> None:
        live = self.live
        if self._live_dirty:
            if live.size:
                live = live[self.pk_state[live] != _DONE]
            self._live_dirty = False
        if self._staged:
            live = np.concatenate(
                [live, np.asarray(self._staged, dtype=np.int64)]
            )
            self._staged.clear()
        self.live = live

    def _drop_member_slots(self, fidx: int) -> None:
        live = self.live
        if live.size:
            mine = self.pk_sim[live] == fidx
            # Dormant-mark so the held-channel scan in ``_move_vec``
            # never advances a frozen member's worms.
            self.pk_dormant[live[mine]] = True
            self.live = live[~mine]
        member = self.fast[fidx]
        # Frozen members' worms never move again — drop their whole
        # channel range from the held scan (ownership stays recorded
        # for the finalize-time accounting).
        self.ch_held[member.ch_off : member.ch_off + member.num_ch] = False

    # -- faults (scalar engine ports over the shared arena) ------------------

    def _apply_faults(self, member: _FastMember, cycle: int) -> None:
        """Fire the member's fault plan for this cycle: kill the worms
        the failures touch (in the event engine's exact victim order),
        refresh the runtime dead mask, and wake every parked header
        (their watch sets may be stale against the new masks)."""
        fidx = member.fidx
        events = member.fault_schedule.pop(cycle, None)
        schedule = member.fault_schedule
        self.m_nextfault[fidx] = min(schedule) if schedule else _NEVER
        if not events:
            return
        # Compact away slots delivered/killed in earlier cycles so the
        # victim scans below see exactly the live worms.
        self._refresh_live()
        channel_index = self.groups[int(self.f_group[fidx])].index.channel_index
        for action, event in events:
            if event.kind == CHANNEL_FAULT:
                key = (event.node, event.direction)
                if action == FAIL:
                    member.dead_channels.add(key)
                    cid = channel_index.get(key)
                    if cid is not None:
                        # A failed physical channel takes every runtime
                        # VC lane with it; holders die in ascending VC
                        # order (the engine's _kill_channel_holders).
                        base = member.ch_off + cid * member.num_vc
                        for rt in range(base, base + member.num_vc):
                            holder = int(self.ch_owner[rt])
                            if holder >= 0:
                                member._kill(self, holder, cycle, "link-failure")
                else:
                    member.dead_channels.discard(key)
            else:
                node = event.node
                if action == FAIL:
                    member.dead_routers.add(node)
                    self._kill_router_worms(member, node, cycle)
                    member.life.router_failed(node)
                else:
                    member.dead_routers.discard(node)
                    if member.life.router_healed(node):
                        self.m_pending[fidx] = True
        self._recompute_dead(member)
        # The engine's ``_wake_all``: un-park every header of this
        # member — candidate masks changed under it.
        live = self.live
        if live.size:
            self.pk_arbwait[live[self.pk_sim[live] == fidx]] = False

    def _kill_router_worms(self, member: _FastMember, node: int, cycle: int) -> None:
        """Kill every worm whose header sits at, or whose body crosses,
        the failed router (ascending slot order = the event engine's
        insertion-ordered ``active`` scan)."""
        live = self.live
        mine = live[self.pk_sim[live] == member.fidx]
        victims: List[int] = []
        for slot in mine:
            slot = int(slot)
            if self.pk_state[slot] == _DONE:
                continue  # killed by an earlier event in this batch
            if int(self.pk_head_node[slot]) == node:
                victims.append(slot)
                continue
            c = int(self.pk_tail_ch[slot])
            while c >= 0:
                if (
                    int(self.ch_src_local[c]) == node
                    or int(self.ch_dst_local[c]) == node
                ):
                    victims.append(slot)
                    break
                c = int(self.ch_next[c])
        for slot in victims:
            member._kill(self, slot, cycle, "router-failure")

    def _recompute_dead(self, member: _FastMember) -> None:
        """Rebuild the member's slice of the runtime dead-channel mask
        (FaultState.channel_dead over the LUT channel universe) and,
        when congestion policies are live, its per-node output degree."""
        channel_index = (
            self.groups[int(self.f_group[member.fidx])].index.channel_index
        )
        lo = member.ch_off
        hi = lo + member.num_ch
        dead = np.zeros(member.num_ch, dtype=bool)
        nvc = member.num_vc
        for key in member.dead_channels:
            cid = channel_index.get(key)
            if cid is not None:
                dead[cid * nvc : (cid + 1) * nvc] = True
        if member.dead_routers:
            routers = np.fromiter(
                member.dead_routers, dtype=np.int64,
                count=len(member.dead_routers),
            )
            dead |= np.isin(self.ch_src_local[lo:hi], routers)
            dead |= np.isin(self.ch_dst_local[lo:hi], routers)
        self.ch_dead[lo:hi] = dead
        if self.node_liveout is not None:
            nlo = member.node_off
            n = member.topology.num_nodes
            degree = np.bincount(
                self.ch_src_local[lo:hi][~dead], minlength=n
            )
            self.node_liveout[nlo : nlo + n] = degree
            self.node_capacity[nlo : nlo + n] = (
                degree * member.config.buffer_depth
            )

    # -- stage 2: arbitration (vectorized two-phase) -------------------------

    def _arbitrate_vec(self, cycle: int) -> None:
        self._refresh_live()
        live = self.live
        if live.size == 0:
            return
        state = self.pk_state[live]
        routing = live[state == _ROUTING]
        if routing.size:
            # Parked headers (zero free candidates when last scanned)
            # skip arbitration; a channel release is the only event that
            # can make one eligible, so wake exactly those whose wait
            # set intersects the channels freed since the last cycle.
            aw = self.pk_arbwait[routing]
            if aw.any():
                parked = routing[aw]
                routing = routing[~aw]
                if self._any_freed:
                    woken = parked[
                        self.ch_freed[self.pk_wchan[parked]].any(axis=1)
                    ]
                    if woken.size:
                        self.pk_arbwait[woken] = False
                        routing = np.concatenate([routing, woken])
        if self._any_freed:
            self.ch_freed[:] = False
            self._any_freed = False
        req_slots: List = []
        req_ch: List = []
        req_mis: List = []
        if routing.size:
            if len(self.groups) == 1:
                self._collect_requests(
                    self.groups[0], routing, req_slots, req_ch, req_mis,
                    cycle,
                )
            else:
                grp = self.f_group[self.pk_sim[routing]]
                for gi, tables in enumerate(self.groups):
                    sel = grp == gi
                    if sel.any():
                        self._collect_requests(
                            tables, routing[sel], req_slots, req_ch, req_mis,
                            cycle,
                        )
        if req_slots:
            slots = np.concatenate(req_slots)
            chans = np.concatenate(req_ch)
            mis = np.concatenate(req_mis)
            # Phase 2, channel grants: local FCFS per contested channel
            # is min (header_wait_since, pid) — lexsort and keep the
            # first requester of each channel.
            order = np.lexsort((self.pk_pid[slots], self.pk_wait[slots], chans))
            slots = slots[order]
            chans = chans[order]
            mis = mis[order]
            first = np.empty(len(chans), dtype=bool)
            first[0] = True
            first[1:] = chans[1:] != chans[:-1]
            self._grant_channels(slots[first], chans[first], mis[first], cycle)
        waiting_eject = live[state == _EJECT_WAIT]
        if waiting_eject.size:
            nodes = (
                self.f_node_off[self.pk_sim[waiting_eject]]
                + self.pk_head_node[waiting_eject]
            )
            free = self.ej_owner[nodes] < 0
            if free.any():
                contenders = waiting_eject[free]
                nodes = nodes[free]
                order = np.lexsort(
                    (self.pk_pid[contenders], self.pk_wait[contenders], nodes)
                )
                contenders = contenders[order]
                nodes = nodes[order]
                first = np.empty(len(nodes), dtype=bool)
                first[0] = True
                first[1:] = nodes[1:] != nodes[:-1]
                winners = contenders[first]
                self.ej_owner[nodes[first]] = winners
                self.pk_state[winners] = _EJECTING
                self.pk_dormant[winners] = False
                self.m_lastprog[self.pk_sim[winners]] = cycle

    def _collect_requests(
        self, tables: NetworkTables, slots, req_slots, req_ch, req_mis,
        cycle: int,
    ) -> None:
        group: _GroupTables = tables.array_lut
        sims = self.pk_sim[slots]
        node = self.pk_head_node[slots]
        dest = self.pk_dst[slots]
        num_vc = group.num_vc
        rows = (
            (node * group.N + dest) * (group.num_dirs + 1)
            + self.pk_head_dir[slots]
        )
        if num_vc > 1:
            # Multi-VC rows carry the arrival-VC class (pk_head_vc is 0
            # pre-injection, exactly the engine's in_vc=None memo key).
            rows = rows * num_vc + self.pk_head_vc[slots]
        group.ensure_rows(tables, rows, escape=False)
        offs = self.f_ch_off[sims][:, None]
        cand = group.cand[rows]
        valid = cand >= 0
        # -1 padding entries index a wrong-but-in-bounds channel; the
        # ``valid`` mask discards whatever they read.
        gchan = cand + offs
        if self.ch_dead is not None:
            # Runtime fault mask: a dead candidate is neither requestable
            # nor worth parking on (its release cannot wake anyone) —
            # the FaultAwareRouting filter, applied to the LUT columns.
            valid = valid & ~self.ch_dead[gchan]
        free = valid & (self.ch_owner[gchan] < 0)
        has = free.any(axis=1)
        idx = np.nonzero(has)[0]
        # Selection policies beyond xy need the full free mask per
        # header, not just the first free column; route those requesters
        # through the policy picker below.
        policied = self._needs_policy and bool(
            (self.m_policy[sims] != 0).any()
        )
        sel_slots: List = []
        sel_free: List = []
        sel_gchan: List = []
        sel_mis: List = []
        if idx.size:
            if num_vc > 1:
                dfree, dgchan, dmis = self._reduce_vc(
                    group, rows[idx], free[idx], gchan[idx], escape=False
                )
                if policied:
                    sel_slots.append(slots[idx])
                    sel_free.append(dfree)
                    sel_gchan.append(dgchan)
                    sel_mis.append(dmis)
                else:
                    pick = dfree.argmax(axis=1)
                    ar = np.arange(idx.size)
                    req_slots.append(slots[idx])
                    req_ch.append(dgchan[ar, pick])
                    req_mis.append(dmis[ar, pick])
            elif policied:
                sel_slots.append(slots[idx])
                sel_free.append(free[idx])
                sel_gchan.append(gchan[idx])
                sel_mis.append(group.cmis[rows[idx]])
            else:
                pick = free[idx].argmax(axis=1)
                req_slots.append(slots[idx])
                req_ch.append(gchan[idx, pick])
                req_mis.append(group.cmis[rows[idx], pick])
        # Misroute escapes: only headers with zero free minimal
        # candidates and misroute budget left consult the escape table.
        bidx = np.nonzero(~has)[0]
        if bidx.size:
            bslots = slots[bidx]
            brows = rows[bidx]
            K = group.K
            pad = self._wpad
            # Wait-set under construction: every candidate whose release
            # could make this header eligible (minimal now; escape below
            # for headers with budget).
            wch = np.full((bidx.size, 2 * K), pad, dtype=np.int64)
            wch[:, :K] = np.where(valid[bidx], gchan[bidx], pad)
            requested = np.zeros(bidx.size, dtype=bool)
            eidx = np.nonzero(
                self.pk_mis[bslots] < self.f_mislimit[sims[bidx]]
            )[0]
            if eidx.size:
                erows = brows[eidx]
                group.ensure_rows(tables, erows, escape=True)
                cand = group.esc[erows]
                valid = cand >= 0
                gchan = cand + offs[bidx][eidx]
                if self.ch_dead is not None:
                    valid = valid & ~self.ch_dead[gchan]
                wch[eidx[:, None], K + np.arange(K)[None, :]] = np.where(
                    valid, gchan, pad
                )
                free = valid & (self.ch_owner[gchan] < 0)
                has = free.any(axis=1)
                fidx = np.nonzero(has)[0]
                if fidx.size:
                    if num_vc > 1:
                        dfree, dgchan, dmis = self._reduce_vc(
                            group, erows[fidx], free[fidx], gchan[fidx],
                            escape=True,
                        )
                        if policied:
                            sel_slots.append(bslots[eidx[fidx]])
                            sel_free.append(dfree)
                            sel_gchan.append(dgchan)
                            sel_mis.append(dmis)
                        else:
                            pick = dfree.argmax(axis=1)
                            ar = np.arange(fidx.size)
                            req_slots.append(bslots[eidx[fidx]])
                            req_ch.append(dgchan[ar, pick])
                            req_mis.append(dmis[ar, pick])
                    elif policied:
                        sel_slots.append(bslots[eidx[fidx]])
                        sel_free.append(free[fidx])
                        sel_gchan.append(gchan[fidx])
                        sel_mis.append(group.emis[erows[fidx]])
                    else:
                        pick = free[fidx].argmax(axis=1)
                        req_slots.append(bslots[eidx[fidx]])
                        req_ch.append(gchan[fidx, pick])
                        req_mis.append(group.emis[erows[fidx], pick])
                    requested[eidx[fidx]] = True
            # Headers that produced no request at all park until one of
            # their wait channels is released (see ``_arbitrate_vec``).
            pidx = np.nonzero(~requested)[0]
            if pidx.size:
                pslots = bslots[pidx]
                self.pk_wchan[pslots, : 2 * K] = wch[pidx]
                if 2 * K < self._wwidth:
                    self.pk_wchan[pslots, 2 * K :] = pad
                self.pk_arbwait[pslots] = True
        if sel_slots:
            aslots = np.concatenate(sel_slots)
            afree = np.vstack(sel_free)
            agchan = np.vstack(sel_gchan)
            amis = np.vstack(sel_mis)
            pick = self._select_cols(aslots, afree, agchan, cycle)
            rows_ar = np.arange(aslots.size)
            req_slots.append(aslots)
            req_ch.append(agchan[rows_ar, pick])
            req_mis.append(amis[rows_ar, pick])

    def _reduce_vc(self, group: _GroupTables, rows, free, gchan, escape: bool):
        """Collapse (direction, vc) pair columns to direction-level
        columns in dense (dim, sign) order.

        The engine's arbitration deduplicates the free pairs to a
        direction list for the selection policy, then grants the *first*
        free pair of the chosen direction (the algorithm's VC preference
        order — which the VC LUT columns preserve).  Reduced column
        ``d-1`` is therefore free iff direction ``d`` has a free pair,
        and carries that first pair's runtime channel and misroute flag.
        Every selection policy consumes ``sorted(options)``, which is
        exactly the reduced (dim, sign) column order — so the reduced
        matrices feed the single-VC policy kernels unchanged.
        """
        dirk = (group.edirk if escape else group.cdirk)[rows]
        mism = (group.emis if escape else group.cmis)[rows]
        nd = group.num_dirs
        n = free.shape[0]
        ar = np.arange(n)
        dfree = np.zeros((n, nd), dtype=bool)
        dgchan = np.zeros((n, nd), dtype=np.int64)
        dmis = np.zeros((n, nd), dtype=np.int64)
        for d in range(1, nd + 1):
            m = free & (dirk == d)
            col = m.argmax(axis=1)
            dfree[:, d - 1] = m[ar, col]
            # Rows without a free pair in this direction read column 0 —
            # a real in-bounds channel of some other direction; the
            # ``dfree`` gate discards it everywhere downstream.
            dgchan[:, d - 1] = gchan[ar, col]
            dmis[:, d - 1] = mism[ar, col]
        return dfree, dgchan, dmis

    # -- vectorized output-selection policies --------------------------------

    def _congestion(self, cycle: int):
        """Per-node (occupancy, credits, live out-degree) over the whole
        arena — the vectorized EngineCongestionView.  Computed at most
        once per cycle: arbitration reads a frozen snapshot (grants and
        flit movement happen only after every request is collected,
        exactly as in the event engine), and dead channels hold no flits
        (their owners were killed when they failed)."""
        if self._cong_cycle != cycle:
            self._cong_cycle = cycle
            occ = self._occ
            occ[:] = 0
            held = np.nonzero(self.ch_held)[0]
            if held.size:
                np.add.at(
                    occ, self.ch_src_g[held], self.ch_mb[held] & _MB_LOW
                )
            np.subtract(self.node_capacity, occ, out=self._cred)
        return self._occ, self._cred, self.node_liveout

    def _select_cols(self, slots, free, gchan, cycle: int):
        """Pick one free LUT column per requesting header, replaying
        each member's selection policy exactly.

        The LUT columns are (dim, sign)-sorted and direction-deduped, so
        the free columns of a row are precisely the policy's
        ``sorted(options)`` list.  Stateful pointers (round-robin,
        max-credits tie-break) advance in each member's waiting order —
        ``pk_wseq`` — which is the event engine's policy invocation
        order; a lexsort + within-member rank serialises the whole batch
        in one pass.
        """
        sims = self.pk_sim[slots]
        pol = self.m_policy[sims]
        # Default: first free column == min(options) — xy preference and
        # the fallback every congestion policy reduces to on missing data.
        pick = free.argmax(axis=1)
        rr = np.nonzero(pol == 1)[0]
        if rr.size:
            order = np.lexsort((self.pk_wseq[slots[rr]], sims[rr]))
            rrs = rr[order]
            so = sims[rrs]
            rank = _run_ranks(so)
            frr = free[rrs]
            k = (self.m_rrptr[so] + rank) % frr.sum(axis=1)
            csum = frr.cumsum(axis=1)
            # First column where the running free count hits k+1 is the
            # (k+1)-th free direction in (dim, sign) order.
            pick[rrs] = (csum == (k + 1)[:, None]).argmax(axis=1)
            np.add.at(self.m_rrptr, so, 1)
        if not bool((pol >= 2).any()):
            return pick
        occ, cred, liveout = self._congestion(cycle)
        mc = np.nonzero(pol == 2)[0]
        if mc.size:
            frm = free[mc]
            dstg = self.ch_dst_g[gchan[mc]]
            data = liveout[dstg] > 0
            # Any free option whose downstream has no live outputs →
            # credits are None → static preference, pointer untouched.
            bad = (frm & ~data).any(axis=1)
            credm = np.where(frm, cred[dstg], -1)
            best = credm.max(axis=1)
            is_best = frm & (credm == best[:, None])
            ties = is_best.sum(axis=1)
            single = np.nonzero(~bad & (ties == 1))[0]
            if single.size:
                pick[mc[single]] = is_best[single].argmax(axis=1)
            multi = np.nonzero(~bad & (ties > 1))[0]
            if multi.size:
                tied_rows = mc[multi]
                order = np.lexsort(
                    (self.pk_wseq[slots[tied_rows]], sims[tied_rows])
                )
                ro = tied_rows[order]
                so = sims[ro]
                rank = _run_ranks(so)
                tb = is_best[multi[order]]
                k = (self.m_mcptr[so] + rank) % tb.sum(axis=1)
                csum = tb.cumsum(axis=1)
                pick[ro] = (csum == (k + 1)[:, None]).argmax(axis=1)
                np.add.at(self.m_mcptr, so, 1)
        th = np.nonzero(pol == 3)[0]
        if th.size:
            frt = free[th]
            nopts = frt.sum(axis=1)
            gth = gchan[th]
            rows_ar = np.arange(th.size)
            pref_dst = self.ch_dst_g[gth[rows_ar, pick[th]]]
            # Reroute only when there are alternatives, the preferred
            # downstream has data, and its occupancy crossed the line.
            hot = (
                (nopts > 1)
                & (liveout[pref_dst] > 0)
                & (occ[pref_dst] >= self.m_threshold[sims[th]])
            )
            hidx = np.nonzero(hot)[0]
            if hidx.size:
                dstg = self.ch_dst_g[gth[hidx]]
                frh = frt[hidx]
                data = liveout[dstg] > 0
                ok = ~(frh & ~data).any(axis=1)
                oidx = hidx[ok]
                if oidx.size:
                    credm = np.where(
                        frt[oidx], cred[self.ch_dst_g[gth[oidx]]], -1
                    )
                    # First occurrence of the max = the strict-> scan.
                    pick[th[oidx]] = credm.argmax(axis=1)
        return pick

    def _grant_channels(self, slots, chans, mis, cycle: int) -> None:
        sims = self.pk_sim[slots]
        measured = cycle >= self.f_warmup[sims]
        if measured.any():
            np.maximum.at(
                self.m_maxgrant,
                sims[measured],
                cycle - self.pk_wait[slots[measured]],
            )
        self.ch_owner[chans] = slots
        self.ch_held[chans] = True
        self.ch_mb[chans] = 0
        prev = self.pk_head_ch[slots]
        self.ch_prev[chans] = prev
        linked = prev >= 0
        if linked.any():
            self.ch_next[prev[linked]] = chans[linked]
        self.ch_next[chans] = -1
        self.pk_head_ch[slots] = chans
        new_tail = self.pk_tail_ch[slots] < 0
        if new_tail.any():
            self.pk_tail_ch[slots[new_tail]] = chans[new_tail]
        self.pk_state[slots] = _MOVING
        self.pk_hops[slots] += 1
        self.pk_mis[slots] += mis
        self.pk_dormant[slots] = False
        self.m_lastprog[sims] = cycle

    # -- stage 3: movement (vectorized chain recurrence) ---------------------

    def _move_vec(self, cycle: int) -> None:
        live = self.live
        if live.size == 0:
            return
        pk_state = self.pk_state
        pk_len = self.pk_len
        pk_launched = self.pk_launched
        pk_head_ch = self.pk_head_ch
        pk_tail_ch = self.pk_tail_ch
        ch_mb = self.ch_mb
        ch_prev = self.ch_prev
        ch_next = self.ch_next
        movers = live[~self.pk_dormant[live]]
        if movers.size == 0:
            return
        if self._any_vc:
            # Per-member rotated service rank: the event engine rotates
            # its mover list by ``cycle % len(movers)`` when num_vc > 1,
            # which decides who claims a contested physical link first
            # and the order of same-cycle arrivals/deliveries/releases.
            # ``movers`` is ascending-slot (= the engine's insertion
            # order), so a stable member sort + run rank reproduces each
            # member's pre-rotation position exactly.
            sims_mv = self.pk_sim[movers]
            oidx = np.argsort(sims_mv, kind="stable")
            so = sims_mv[oidx]
            rank = _run_ranks(so)
            cnt = np.bincount(so, minlength=len(self.fast))[so]
            rr = rank - cycle % cnt
            neg = rr < 0
            rr[neg] += cnt[neg]
            self.pk_order[movers[oidx]] = rr
        act = np.zeros(movers.size, dtype=bool)
        state = pk_state[movers]
        heads = pk_head_ch[movers]
        # A: ejection consumes one flit per cycle from the head buffer.
        pos = np.nonzero((state == _EJECTING) & (heads >= 0))[0]
        if pos.size:
            head = heads[pos]
            drained = (ch_mb[head] & _MB_LOW) > 0
            pos = pos[drained]
            if pos.size:
                head = head[drained]
                ch_mb[head] -= 1
                self.pk_ejected[movers[pos]] += 1
                act[pos] = True
        # B: shift one flit per held channel.  The scalar engine walks
        # each worm head-first, so hold i (numbered from the tail) moves
        # iff flits remain (moved < len), its upstream supplies a flit
        # (prev buffer non-empty at walk start, or the source is still
        # launching), and there is capacity — where head-first order
        # makes capacity ``buffered_i < depth OR hold i+1 moves`` (that
        # move frees one slot first).  All other reads see walk-start
        # values (chains are disjoint), so per chain this is the linear
        # recurrence  move_i = a_i | (b_i & move_{i+1}),  a = can&cap,
        # b = can, solved for every chain at once by pointer doubling in
        # O(log max_chain) passes instead of O(max_chain) rank passes.
        launch_done: List = []
        blocked_slots = None
        held = np.nonzero(self.ch_held)[0]
        if held.size:
            own = self.ch_owner[held]
            # Dormant worms cannot move (nothing changed since they
            # parked); frozen members' channels are dormant-marked too.
            awake = ~self.pk_dormant[own]
            held = held[awake]
            own = own[awake]
        if held.size:
            length = pk_len[own]
            prev = ch_prev[held]
            mb = ch_mb[held]
            # ``prev == -1`` wraps to the last channel — in bounds, and
            # the tail fixup below overwrites what it read.
            supply = (ch_mb[prev] & _MB_LOW) > 0
            tails_b = np.nonzero(prev < 0)[0]
            if tails_b.size:
                supply[tails_b] = (
                    pk_launched[own[tails_b]] < length[tails_b]
                )
            b = ((mb >> 32) < length) & supply
            depth = self._depth_one
            if depth is None:
                cap = (mb & _MB_LOW) < self.pk_depth[own]
            else:
                cap = (mb & _MB_LOW) < depth
            # One inverse-permutation fill makes every held-index
            # lookup downstream (chain solver, link arbiter, blocked
            # scan) an O(1) gather instead of a bisection.
            self._ch_pos[held] = np.arange(held.size, dtype=np.int64)
            move = self._solve_chains(held, b, cap)
            if self._any_vc:
                move, blocked_slots = self._link_arbitrate(
                    held, own, b, cap, move
                )
            moving = held[move]
            if moving.size:
                prev_m = prev[move]
                own_m = own[move]
                has_prev = prev_m >= 0
                ch_mb[prev_m[has_prev]] -= 1
                src_m = moving[~has_prev]
                if src_m.size:
                    slots = own_m[~has_prev]
                    pk_launched[slots] += 1
                    fresh = self.pk_injected[slots] < 0
                    if fresh.any():
                        self.pk_injected[slots[fresh]] = cycle
                    done = pk_launched[slots] == pk_len[slots]
                    if done.any():
                        launch_done.append(slots[done])
                ch_mb[moving] += _MB_BOTH
                if self.loads is not None:
                    counted = cycle >= self.ch_warm[moving]
                    if counted.any():
                        self.loads[moving[counted]] += 1
                if self.ch_series is not None:
                    # Channel-util series counts flit shifts inside the
                    # measurement window only (the collector's gate).
                    windowed = (cycle >= self.ch_s0[moving]) & (
                        cycle < self.ch_s1[moving]
                    )
                    if windowed.any():
                        self.ch_series[moving[windowed]] += 1
                scratch = self.pk_scratch
                scratch[own_m] = True
                act |= scratch[movers]
                scratch[own_m] = False
        # C: header arrival at the next router.  ``heads`` is still the
        # pre-stage snapshot: neither ejection nor flit movement changes
        # ``pk_head_ch``, so no re-gather is needed.
        pos = np.nonzero((state == _MOVING) & (heads >= 0))[0]
        if pos.size:
            head = heads[pos]
            crossed = ch_mb[head] >= _MB_HI1
            pos = pos[crossed]
            if pos.size:
                head = head[crossed]
                slots = movers[pos]
                dstloc = self.ch_dst_local[head]
                self.pk_head_node[slots] = dstloc
                self.pk_head_dir[slots] = self.ch_dir[head]
                self.pk_head_vc[slots] = self.ch_vc[head]
                self.pk_wait[slots] = cycle
                # Re-entering the waiting set: within a member, arrival
                # order this cycle is the engine's mover order —
                # ascending slot, except multi-VC members walk their
                # movers in rotated-rank order.
                if self._any_vc:
                    simsa = self.pk_sim[slots]
                    key = np.where(
                        self.f_numvc[simsa] > 1, self.pk_order[slots], slots
                    )
                    aord = np.lexsort((key, simsa))
                    self.pk_wseq[slots[aord]] = self._wseq + np.arange(
                        slots.size, dtype=np.int64
                    )
                else:
                    self.pk_wseq[slots] = self._wseq + np.arange(
                        slots.size, dtype=np.int64
                    )
                self._wseq += int(slots.size)
                pk_state[slots] = np.where(
                    dstloc == self.pk_dst[slots], _EJECT_WAIT, _ROUTING
                )
        # D: tail flits release drained channels (possibly several per
        # worm per cycle, as in the engine's while-loop).  Only a worm
        # that just released can release again (channel state is private
        # to its chain), so later passes recheck just those.
        tails = pk_tail_ch[movers]
        sel = np.nonzero(tails >= 0)[0]
        lengths = pk_len[movers]
        while sel.size:
            tail = tails[sel]
            # Fully drained: every flit crossed (moved == length) and the
            # buffer is empty — one packed compare covers both.
            rel = ch_mb[tail] == (lengths[sel] << 32)
            sel = sel[rel]
            if sel.size == 0:
                break
            released = tail[rel]
            self.ch_owner[released] = -1
            self.ch_held[released] = False
            self.ch_freed[released] = True
            self._any_freed = True
            next_tail = ch_next[released]
            ch_next[released] = -1
            ch_prev[released] = -1
            ch_mb[released] = 0
            # The new tail's upstream pointer must not dangle at the
            # released channel: its supply is "launched < length" now
            # (provably exhausted — the released channel carried every
            # flit), exactly like the engine's popped hold list.
            chained = next_tail >= 0
            if chained.any():
                ch_prev[next_tail[chained]] = -1
            slots = movers[sel]
            pk_tail_ch[slots] = next_tail
            if not chained.all():
                pk_head_ch[slots[~chained]] = -1
            act[sel] = True
            tails[sel] = next_tail
            sel = sel[chained]
        # E: delivery — per member, the engine's mover order (ascending
        # slot; rotated rank for multi-VC members), so accounting
        # appends match.
        pos = np.nonzero(
            (pk_state[movers] == _EJECTING)
            & (self.pk_ejected[movers] == lengths)
        )[0]
        if pos.size:
            act[pos] = True
            dslots = movers[pos]
            if self._any_vc:
                simsd = self.pk_sim[dslots]
                key = np.where(
                    self.f_numvc[simsd] > 1, self.pk_order[dslots], dslots
                )
                dslots = dslots[np.lexsort((key, simsd))]
            for slot in dslots:
                self.fast[int(self.pk_sim[slot])]._deliver(
                    self, int(slot), cycle
                )
        if launch_done:
            ls = np.concatenate(launch_done)
            if self._any_vc:
                simsl = self.pk_sim[ls]
                key = np.where(self.f_numvc[simsl] > 1, self.pk_order[ls], ls)
                ls = ls[np.lexsort((key, simsl))]
            else:
                ls = np.sort(ls)
            for slot in ls:
                f = int(self.pk_sim[slot])
                if self.fast[f].life.release_injection(int(self.pk_src[slot])):
                    self.m_pending[f] = True
        if act.any():
            # Duplicate member hits assign the same value — no reduction
            # needed, so skip the np.unique pass.
            self.m_lastprog[self.pk_sim[movers[act]]] = cycle
        idle = np.nonzero(~act)[0]
        if idle.size:
            slots = movers[idle]
            slots = slots[pk_state[slots] != _DONE]
            if blocked_slots is not None and slots.size:
                # A link-blocked worm is not dormant: its buffers did
                # not change, but the contended link can free next cycle
                # without any grant/release event (the engine's
                # ``_link_blocked`` flag).
                self.pk_flag[blocked_slots] = True
                slots = slots[~self.pk_flag[slots]]
                self.pk_flag[blocked_slots] = False
            # A zero-move scan stays zero until an arbitration grant
            # wakes the worm (its buffers are private) — park it.
            self.pk_dormant[slots] = True

    def _solve_chains(self, held, b, cap):
        """Solve the per-chain move recurrence
        ``move_i = b_i & (cap_i | move_{i+1})`` for every held channel
        at once (i+1 = the worm's next-downstream hold).

        Chain state packed per hold: 0 = cannot move (b false, absorbing
        under composition), 1 = undecided (supplied but at capacity —
        moves iff its downstream hold moves), 3 = moves outright.
        Composing an undecided hold with the segment ahead of it just
        adopts that segment's state, so pointer doubling reduces to
        ``v[i] = v[i + 2**r]`` for the undecided set — decided holds are
        absorbing (0) or have a monotone move bit (3) and drop out,
        which shrinks the active set far faster than composing every
        linked hold.
        """
        ch_next = self.ch_next
        v = b.astype(np.int8) * (1 + 2 * cap.astype(np.int8))
        und = np.nonzero(v == 1)[0]
        if und.size:
            # Links are only ever chased *from* undecided holds, so
            # build them for just those: the downstream channel of a
            # held channel belongs to the same worm (hence is in the
            # sorted held array) — ``_ch_pos`` (filled by the caller)
            # inverts that array in O(1) per lookup.  A decided
            # partner's missing link (-1) is harmless: its ``jumped``
            # value is read into a lane the ``vp == 1`` gate discards.
            lnk = np.full(held.size, -1, dtype=np.int64)
            nxtu = ch_next[held[und]]
            has_n = nxtu >= 0
            idx = und[has_n]
            lnk[idx] = self._ch_pos[nxtu[has_n]]
            while idx.size:
                part = lnk[idx]
                vp = v[part]
                v[idx] = vp
                jumped = lnk[part]
                lnk[idx] = jumped
                idx = idx[(vp == 1) & (jumped >= 0)]
        return v == 3

    def _link_arbitrate(self, held, own, b, cap, move):
        """Enforce one flit per physical link per cycle for multi-VC
        members, replaying the event engine's ``links_used`` bookkeeping
        exactly.

        The engine walks worms in rotated order; a worm's hold skips its
        move (and marks the worm link-blocked, exempting it from
        dormancy) when an earlier-walked worm already moved a flit on
        the same physical link this cycle.  Vectorized as a
        wave-confirmation fixpoint over ``pk_order`` (the rotated rank):

        * solve the chain recurrence with the current link gates;
        * a worm is *confirmed* when, on every link it would move on,
          no unconfirmed worm of smaller rotated rank also wants to
          move — its move set is then final (gates only ever shrink
          move sets, so a smaller-rank mover can never appear later);
        * confirmed worms consume their links (``taken[link] = rank``),
          unconfirmed holds on consumed links gate, and only the newly
          gated worms re-solve (chains are private, so a gate cannot
          change any other worm's moves).  Each wave confirms at least
          the globally smallest-rank unconfirmed mover, so the loop
          terminates.

        Two confirmed worms can never consume the same link — within a
        member rotated ranks are distinct and the larger rank would
        have stayed unconfirmed — so consuming is a plain scatter, not
        a minimum-reduction.

        Worms holding the same physical link twice (possible only via
        non-minimal escape revisits) are finalized by an exact scalar
        walk instead, because their private ``links_used`` set is
        order-dependent within the worm.
        """
        if self._all_vc:
            mvi = np.nonzero(move)[0]
        else:
            multi = self.ch_multi[held]
            if not multi.any():
                return move, None
            mvi = np.nonzero(move & multi)[0]
        lmin = self._link_min
        # Fast path: in the ungated solve, no physical link carries two
        # would-be movers — every worm is immediately confirmable, no
        # hold gates, nobody is link-blocked.  Duplicate detection by
        # scatter-then-compare (last write wins, so every earlier
        # duplicate reads back a different stamp) — ``_link_min`` needs
        # no reset, its consumers always overwrite before reading.
        mlk = self.ch_link[held[mvi]]
        if mlk.size > 1:
            stamp = np.arange(mlk.size, dtype=np.int64)
            lmin[mlk] = stamp
            dup = lmin[mlk] != stamp
            contested = bool(dup.any())
        else:
            contested = False
        if not contested:
            return move, None
        taken = self._link_taken
        pk_flag = self.pk_flag
        scratch = self.pk_scratch
        # Only the worms moving on a contested link (and their chains)
        # enter the wave fixpoint: an uncontested mover is confirmed by
        # definition — no other mover wants its links — and the links
        # it consumes could only ever gate non-moving holds, which
        # never changes a move (moves only shrink).  ``dup`` marks
        # every earlier duplicate, so one scatter through a per-link
        # flag recovers *all* movers on contested links.
        dflag = self._link_dup
        dflag[mlk[dup]] = True
        hot = own[mvi[dflag[mlk]]]
        dflag[mlk] = False
        pk_flag[hot] = False
        scratch[hot] = True
        if self._all_vc:
            rem = np.nonzero(scratch[own])[0]
        else:
            rem = np.nonzero(scratch[own] & multi)[0]
        scratch[hot] = False
        # ``rem`` holds every hold (held-index) of a hot worm; gather
        # its links/owners/ranks once, so the waves below never touch a
        # full-sized array again.
        lk_r = self.ch_link[held[rem]]
        sl_r = own[rem]
        or_r = self.pk_order[sl_r]
        # Intra-worm duplicate physical links (non-minimal revisits of
        # the same edge on different VCs): scalar-walk those worms.
        # Impossible without misroutes — a duplicate link needs a node
        # revisit — so the scan is skipped when no multi-VC member
        # allows them.
        if self._any_vc_mis:
            o2 = np.lexsort((lk_r, sl_r))
            sw = sl_r[o2]
            sl = lk_r[o2]
            d = (sw[1:] == sw[:-1]) & (sl[1:] == sl[:-1])
            dupm = np.unique(sw[1:][d]) if d.any() else None
        else:
            dupm = None
        gate = np.zeros(held.size, dtype=bool)
        # ``alive`` tracks the rem-positions whose worms are still
        # unconfirmed — each wave's reductions run over that shrinking
        # set only.
        alive = np.arange(rem.size, dtype=np.int64)
        for _ in range(alive.size + 1):
            um = alive[move[rem[alive]]]
            if um.size == 0:
                break
            ulk = lk_r[um]
            uor = or_r[um]
            lmin[ulk] = _NEVER
            np.minimum.at(lmin, ulk, uor)
            us = sl_r[um]
            bad = us[lmin[ulk] < uor]
            scratch[bad] = True
            conf = ~scratch[us]
            scratch[bad] = False
            if not conf.any():  # pragma: no cover - unreachable guard
                break
            em = um[conf]
            ew = us[conf]
            walked = None
            if dupm is not None:
                isdup = np.isin(ew, dupm)
                if isdup.any():
                    walked = np.unique(ew[isdup])
                    em = em[~isdup]
                    ew = ew[~isdup]
            pk_flag[ew] = True
            taken[lk_r[em]] = or_r[em]
            if walked is not None:
                for w in walked:
                    for i, val in self._walk_worm(int(w), b, cap):
                        move[i] = val
                pk_flag[walked] = True
            alive = alive[~pk_flag[sl_r[alive]]]
            if alive.size == 0:
                break
            ng = alive[
                ~gate[rem[alive]] & (taken[lk_r[alive]] < or_r[alive])
            ]
            if ng.size:
                gate[rem[ng]] = True
                self._regate_worms(
                    np.unique(sl_r[ng]), b, cap, gate, move
                )
        pk_flag[hot] = False
        taken[lk_r] = _NEVER
        # Link-blocked worms: an attempted move (supply + capacity-or-
        # downstream-move against the *final* move set) denied only by
        # the link — exactly when the engine sets ``_link_blocked``.
        nxt = self.ch_next[held]
        hasn = nxt >= 0
        mnext = np.zeros(held.size, dtype=bool)
        mnext[hasn] = move[self._ch_pos[nxt[hasn]]]
        blk = b & (cap | mnext) & ~move
        blocked = own[blk] if blk.any() else None
        return move, blocked

    def _regate_worms(self, ws, b, cap, gate, move) -> None:
        """Re-solve the newly link-gated worms' chains in place by the
        head-to-tail recurrence ``move_i = b_i & ~gate_i &
        (cap_i | move_{i+1})``, walking every chain in lockstep (one
        vector step per hold depth).  Chains are private to their worm,
        so a gate never changes any other worm's moves — this replaces
        the full re-solve the fixpoint loop used to run each wave."""
        pos = self._ch_pos
        ch_prev = self.ch_prev
        c = self.pk_head_ch[ws]
        mv = np.zeros(c.size, dtype=bool)
        while True:
            alive = c >= 0
            if not alive.all():
                if not alive.any():
                    break
                c = c[alive]
                mv = mv[alive]
            i = pos[c]
            mv = b[i] & ~gate[i] & (cap[i] | mv)
            move[i] = mv
            c = ch_prev[c]

    def _walk_worm(self, w: int, b, cap):
        """Finalize one confirmed worm by the engine's exact head-to-
        tail hold walk (needed only when the worm holds the same
        physical link on two VCs, so its private ``links_used`` set is
        order-dependent).  Returns (held-index, move) overrides."""
        order_w = int(self.pk_order[w])
        taken = self._link_taken
        ch_link = self.ch_link
        ch_prev = self.ch_prev
        pos = self._ch_pos
        used: set = set()
        out: List[Tuple[int, bool]] = []
        c = int(self.pk_head_ch[w])
        mv_next = False
        while c >= 0:
            i = int(pos[c])
            mv = False
            if b[i] and (cap[i] or mv_next):
                link = int(ch_link[c])
                if taken[link] >= order_w and link not in used:
                    mv = True
                    used.add(link)
            out.append((i, mv))
            mv_next = mv
            c = int(ch_prev[c])
        for link in used:
            if order_w < taken[link]:
                taken[link] = order_w
        return out

    # -- post-move stages: watchdog + collectors -----------------------------

    def _watchdog_pass(self, cycle: int) -> None:
        """The event engine's post-move stall watchdog, batched."""
        if not self._any_timeout:
            return
        live = self.live
        state = self.pk_state[live]
        waits = live[(state == _ROUTING) | (state == _EJECT_WAIT)]
        if waits.size == 0:
            return
        sims = self.pk_sim[waits]
        timed = self.m_timeout[sims] > 0
        if timed.any():
            tw = waits[timed]
            ts = sims[timed]
            age = cycle - self.pk_wait[tw]
            np.maximum.at(self.m_maxstall, ts, age)
            over = age > self.m_timeout[ts]
            if over.any():
                victims = tw[over]
                vsims = ts[over]
                # Per member: one wait-for graph over the pre-kill
                # waiting set, then kills in waiting (wseq) order —
                # the engine's exact sequence.
                for f in np.unique(vsims):
                    self._timeout_kill(
                        self.fast[int(f)],
                        waits[sims == f],
                        victims[vsims == f],
                        cycle,
                    )
                self._refresh_live()

    def _collect_pass(self, cycle: int) -> None:
        """The collectors' ``on_cycle_end``, batched: blocked counting
        sees the post-watchdog waiting set, as in the engine."""
        if not self._any_collect:
            return
        if self.node_blocked is not None:
            live = self.live
            state = self.pk_state[live]
            waits = live[(state == _ROUTING) | (state == _EJECT_WAIT)]
            if waits.size:
                sims = self.pk_sim[waits]
                counted = (
                    self.m_blocked[sims]
                    & (cycle >= self.f_warmup[sims])
                    & (cycle < self.m_genend[sims])
                )
                if counted.any():
                    np.add.at(
                        self.node_blocked,
                        self.f_node_off[sims[counted]]
                        + self.pk_head_node[waits[counted]],
                        1,
                    )
        if self.ch_series is not None:
            due = np.nonzero(self.m_act & (self.m_nextroll == cycle))[0]
            for f in due:
                member = self.fast[int(f)]
                lo = member.ch_off
                hi = lo + member.num_ch
                member._series_buckets.append(
                    [int(x) for x in self.ch_series[lo:hi]]
                )
                self.ch_series[lo:hi] = 0
                nxt = cycle + member.config.channel_series_period
                self.m_nextroll[f] = (
                    nxt if nxt < member.config.generation_cycles else _NEVER
                )

    def _timeout_kill(self, member: _FastMember, waits, victims, cycle: int) -> None:
        """Kill one member's over-age headers, classifying each against
        the wait-for graph (circular wait vs dead-end stall) exactly
        like the engine's ``_check_packet_timeouts``."""
        graph: DiGraph = DiGraph()
        tables = self.groups[int(self.f_group[member.fidx])]
        group: _GroupTables = tables.array_lut
        ch_off = member.ch_off
        node_off = member.node_off
        span = group.num_dirs + 1
        dead = self.ch_dead
        for slot in waits:
            slot = int(slot)
            if self.pk_state[slot] == _EJECT_WAIT:
                holder = int(
                    self.ej_owner[node_off + int(self.pk_head_node[slot])]
                )
                if holder >= 0 and holder != slot:
                    graph.add_edge(slot, holder)
                continue
            row = (
                int(self.pk_head_node[slot]) * group.N
                + int(self.pk_dst[slot])
            ) * span + int(self.pk_head_dir[slot])
            if group.num_vc > 1:
                # The wait-for graph watches the minimal (direction, vc)
                # pairs for the header's arrival VC class, in candidate
                # order — the same rows arbitration reads.
                row = row * group.num_vc + int(self.pk_head_vc[slot])
            group.ensure_rows(tables, np.asarray([row]), escape=False)
            holders: List[int] = []
            blocked = True
            for cid in group.cand[row]:
                cid = int(cid)
                if cid < 0:
                    break  # sentinel padding: row exhausted
                gchan = ch_off + cid
                if dead is not None and dead[gchan]:
                    continue  # fault-masked candidate
                holder = int(self.ch_owner[gchan])
                if holder < 0:
                    blocked = False
                    break
                holders.append(holder)
            if blocked:
                for holder in holders:
                    if holder != slot:
                        graph.add_edge(slot, holder)
        circular = {s for comp in graph.cyclic_components() for s in comp}
        for slot in victims[np.argsort(self.pk_wseq[victims])]:
            slot = int(slot)
            cause = (
                "timeout-deadlock" if slot in circular else "timeout-stall"
            )
            member._kill(self, slot, cycle, cause, killed=False)

    # -- per-cycle member bookkeeping ---------------------------------------

    def _finalize_fast(self, member: _FastMember) -> SimulationResult:
        result = member.result
        result.inflight_at_end = member.inflight
        if member.config.track_channel_load and self.loads is not None:
            result.channel_flits = [
                int(x)
                for x in self.loads[
                    member.ch_off : member.ch_off + member.num_ch
                ]
            ]
        grant_wait = int(self.m_maxgrant[member.fidx])
        if grant_wait > result.max_grant_wait_cycles:
            result.max_grant_wait_cycles = grant_wait
        stall = int(self.m_maxstall[member.fidx])
        if stall > result.max_stall_age_cycles:
            result.max_stall_age_cycles = stall
        state = self.pk_state[: self.n_slots]
        stalled = np.nonzero(
            (self.pk_sim[: self.n_slots] == member.fidx)
            & ((state == _ROUTING) | (state == _EJECT_WAIT))
        )[0]
        end = member._last_cycle
        for slot in stalled:
            age = end - int(self.pk_wait[slot])
            if age > result.max_stall_age_cycles:
                result.max_stall_age_cycles = age
        config = member.config
        period = config.channel_series_period
        if period > 0:
            # The collector's partial final bucket: measured cycles seen
            # beyond the last rollover (the engine counts them in
            # ``_cycles_in_bucket``; here they are implied by the cycle
            # the member stopped at).
            measured_seen = max(
                0,
                min(member._last_cycle + 1, config.generation_cycles)
                - config.warmup_cycles,
            )
            buckets = member._series_buckets
            if measured_seen - len(buckets) * period > 0:
                lo = member.ch_off
                buckets.append(
                    [int(x) for x in self.ch_series[lo : lo + member.num_ch]]
                )
            result.channel_util_series = buckets
            result.channel_series_period = period
        if config.collect_router_blocked:
            lo = member.node_off
            result.router_blocked_cycles = [
                int(x)
                for x in self.node_blocked[
                    lo : lo + member.topology.num_nodes
                ]
            ]
        return result

    # -- the batched run loop ------------------------------------------------

    # The scalar stages: Python only for the members with work due this
    # cycle, each refreshing the core's mirrors (``m_nextfault``,
    # ``m_nextretry``, ``m_nextgen``, ``m_pending``) of the lifecycle
    # state it changed.

    def _faults_pass(self, cycle: int) -> None:
        if self._any_faults:
            for f in np.nonzero(self.m_act & (self.m_nextfault <= cycle))[0]:
                self._apply_faults(self.fast[int(f)], cycle)

    def _retries_pass(self, cycle: int) -> None:
        if self._any_drops:
            for f in np.nonzero(self.m_act & (self.m_nextretry <= cycle))[0]:
                life = self.fast[int(f)].life
                life.pop_retries(cycle)
                self.m_nextretry[f] = min(life.retry_at, default=_NEVER)
                if life.pending_nodes:
                    self.m_pending[f] = True

    def _generate_pass(self, cycle: int) -> None:
        for f in np.nonzero(self.m_act & (self.m_nextgen <= cycle))[0]:
            member = self.fast[int(f)]
            if cycle >= member.config.generation_cycles:
                self.m_nextgen[f] = np.inf
                continue
            life = member.life
            life.generate(cycle)
            heap = life.arrival_heap
            self.m_nextgen[f] = heap[0][0] if heap else np.inf
            if life.pending_nodes:
                self.m_pending[f] = True

    def _inject_pass(self, cycle: int) -> None:
        for f in np.nonzero(self.m_act & self.m_pending)[0]:
            member = self.fast[int(f)]
            member.life.inject(
                cycle,
                partial(self._alloc_slot, member),
                lambda p, cycle, cause: member._drop(  # (never in the arena)
                    self, p.src, p.dst, p.length, p.created, p.attempt,
                    cycle, cause,
                ),
            )
            self.m_pending[f] = bool(member.life.pending_nodes)

    def run(self) -> List[SimulationResult]:
        fast = self.fast
        m_act = self.m_act
        # The cycle of the fast members: ``_STAGES`` in order (bound
        # here, not at construction, so the core holds no reference to
        # itself).  Profiled members time the shared kernel passes — the
        # batch advances them together, so each profiler records the
        # same per-phase wall clock — by wrapping this same list.
        profilers = [m.profiler for m in fast if m.profiler is not None]
        stages = [
            timed(phase, getattr(self, name), profilers)
            if profilers
            else getattr(self, name)
            for phase, name in _STAGES
        ]
        for cycle in range(max(m.total for m in fast)):
            expired = m_act & (self.m_total <= cycle)
            if expired.any():
                for f in np.nonzero(expired)[0]:
                    member = fast[int(f)]
                    member.frozen = True
                    member._last_cycle = member.total - 1
                    m_act[f] = False
                    self._drop_member_slots(int(f))
            if not m_act.any():
                break
            for stage in stages:
                stage(cycle)
            for f in np.nonzero(m_act & (self.m_next_sample == cycle))[0]:
                member = fast[int(f)]
                member.result.backlog_samples.append(member.life.backlog)
                self.m_next_sample[f] += self.m_period[f]
            dead = np.nonzero(
                m_act
                & (cycle - self.m_lastprog > self.m_dlthresh)
                & (self.m_inflight > 0)
            )[0]
            for f in dead:
                member = fast[int(f)]
                member.result.deadlock = True
                member.result.deadlock_cycle = cycle
                member.frozen = True
                member._last_cycle = cycle
                m_act[f] = False
                self._drop_member_slots(int(f))
        for member in fast:
            if not member.frozen:
                member._last_cycle = member.total - 1
        return [self._finalize_fast(member) for member in fast]


class _Split:
    """A batch split by the vectorized envelope — the front-end of
    :class:`ArrayWormholeSimulator` and :class:`BatchSimulator`.

    The in-envelope points share one :class:`_BatchCore` (none is built
    when there are none); every other point runs as one whole
    :class:`~repro.simulation.engine.WormholeSimulator` run — the same
    code, therefore bit-identical.  Results come back in input order.
    """

    def __init__(self, points, sinks, profilers) -> None:
        _require_numpy()
        if not points:
            raise ValueError("BatchSimulator needs at least one point")
        fast: List[tuple] = []
        fast_profilers: List = []
        # Per point, in input order: the event simulator that runs it,
        # or None when the core does.
        self._event: List = []
        self._demotions: Dict[str, int] = {}
        for point, sink, profiler in zip(points, sinks, profilers):
            algorithm, pattern, config = point
            reasons = list(demotion_reasons(config))
            if sink is not None:
                reasons.append("trace-sink")
            # Every applicable gate is reported, so the LUT-cap check
            # runs even when a config gate already fired (cheap: a
            # closed-form entry count, no group is built).
            num_vc = config.virtual_channels
            if _lut_entries(algorithm.topology, num_vc) > _LUT_ENTRY_CAP:
                reasons.append("lut-cap")  # exceeds the memory cap
            for reason in reasons:
                self._demotions[reason] = self._demotions.get(reason, 0) + 1
            if reasons:
                self._event.append(WormholeSimulator(
                    algorithm, pattern, config, sink=sink, profiler=profiler
                ))
            else:
                self._event.append(None)
                fast.append(point)
                fast_profilers.append(profiler)
        self._core = _BatchCore(fast, fast_profilers) if fast else None

    @property
    def demotion_counts(self) -> Dict[str, int]:
        """How many points each envelope gate demoted to the event
        engine, keyed by reason (see :func:`demotion_reasons`; runtime
        gates add ``"trace-sink"`` and ``"lut-cap"``).  A point failing
        several gates counts once per gate."""
        return dict(self._demotions)

    def _run_all(self) -> List[SimulationResult]:
        fast = iter(self._core.run() if self._core is not None else ())
        return [
            next(fast) if sim is None else sim.run() for sim in self._event
        ]


class ArrayWormholeSimulator(_Split):
    """The array-backend equivalent of one-point ``WormholeSimulator``.

    A batch of one.  Accepts the same sink/profiler hooks; points whose
    feature set leaves the vectorized envelope (see
    :func:`vectorized_envelope`) transparently run on the event engine,
    so every configuration is supported and bit-identical (documented
    per feature in docs/SIMULATOR.md).
    """

    def __init__(
        self, algorithm, pattern, config: SimulationConfig,
        sink=None, profiler=None,
    ) -> None:
        super().__init__([(algorithm, pattern, config)], [sink], [profiler])

    @property
    def vectorized(self) -> bool:
        """Whether this point runs on the vectorized kernels (else it
        runs on the event engine)."""
        return self._core is not None

    def run(self) -> SimulationResult:
        return self._run_all()[0]


class BatchSimulator(_Split):
    """Advance B independent operating points through one array engine.

    ``points`` is a sequence of ``(algorithm, pattern, config)`` tuples;
    :meth:`run` returns their :class:`SimulationResult` objects in input
    order, each bit-identical to a solo run of the same point (on either
    backend).  The vectorized points advance cycle by cycle together,
    inside shared numpy kernels — which is what amortises the per-cycle
    dispatch cost across the batch (docs/PERFORMANCE.md, "When batching
    wins"); each point outside the envelope is one event-engine run.
    """

    def __init__(self, points: Sequence[tuple]) -> None:
        points = list(points)
        none = [None] * len(points)
        super().__init__(points, none, none)

    @property
    def batch_size(self) -> int:
        return len(self._event)

    @property
    def vectorized_count(self) -> int:
        """How many points run on the vectorized kernels."""
        return self._event.count(None)

    @property
    def vectorized_fraction(self) -> float:
        """Fraction of batch points on the vectorized kernels."""
        return self.vectorized_count / self.batch_size

    def run(self) -> List[SimulationResult]:
        return self._run_all()


def make_simulator(
    algorithm, pattern, config: SimulationConfig,
    sink=None, profiler=None,
):
    """Build the simulator selected by ``config.backend``.

    ``"event"`` (default) is the event-driven engine; ``"array"`` is the
    numpy struct-of-arrays backend (requires the ``repro[array]``
    extra).  Both expose ``run() -> SimulationResult`` and are
    bit-identical per the cross-backend equivalence suite.
    """
    if config.backend == "array":
        return ArrayWormholeSimulator(
            algorithm, pattern, config, sink=sink, profiler=profiler
        )
    return WormholeSimulator(
        algorithm, pattern, config, sink=sink, profiler=profiler
    )
