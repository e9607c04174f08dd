"""The cycle-driven flit-level wormhole network simulator.

One simulator cycle is the transmission time of one flit on a channel
(0.05 us at the paper's 20 flits/us).  Each cycle has three stages:

1. **generation / injection** — processors create messages with
   negative-exponential interarrival times; the head message of a source
   queue becomes eligible when the node's injection channel is free;
2. **arbitration** — every waiting header asks the routing algorithm for
   its candidate outputs, picks one *free* candidate with the output
   selection policy, and contested channels are awarded by the input
   selection policy (local FCFS, as in the paper);
3. **movement** — every worm shifts forward: one flit per cycle per held
   channel, heads first so a whole unblocked worm advances one buffer per
   cycle; ejection consumes one flit per cycle at the destination; tail
   flits release channels as they drain.

**Structure** (docs/SIMULATOR.md, "Engine structure"): the cycle is the
ordered stage list ``_STAGES`` — fault application, retry requeueing,
the three stages above, the per-packet watchdog — run by
:meth:`WormholeSimulator.step`.  The source side of stage 1 and all
measurement accounting (RNG, arrival calendar, source queues, injection
gates, retry calendar, delivery/drop counters) belong to the
:class:`~repro.simulation.lifecycle.PacketLifecycle` this engine shares
with the array backend; this module owns how worms occupy the network.

**The event-driven hot path** (docs/PERFORMANCE.md): the engine is
semantically a per-cycle scan of every source and every waiting header,
but it executes four structural optimisations that skip the scans whose
outcome is already known — each one bit-identical to the naive scan
(the scan oracle ``ScanSimulator`` in ``tests/support/scan_oracle.py``
runs the scan-based code paths; the cross-equivalence suite compares
the two, and the golden-fingerprint tests pin the optimised engine to
the numbers captured before any of this existed):

* **routing-table precomputation** — candidate channels are a pure
  function of ``(node, destination, arrival direction[, vc])``; the
  process-wide :class:`~repro.routing.table.NetworkTables` of the
  algorithm object (:func:`~repro.routing.table.shared_tables`) answers
  each decision as ``(direction, runtime channel id, misroute bit)``
  triples derived once, so every simulator of a campaign reads the same
  tables and a routing decision is a dict hit.  A fault plan layers a
  private mask over the shared answers; fault events invalidate exactly
  the masked rows touching the dead (or healed) hardware and never
  write to the shared tables;
* **arrival calendar** (in the lifecycle) — sources sit in a heap keyed
  on their next arrival time, so a cycle in which no source fires costs
  one peek instead of a full scan; due sources are drained in
  source-list order, preserving the exact RNG draw sequence of the scan;
* **channel-free wakeup sets** — a header whose candidate set is fully
  busy is *parked*: it is skipped by arbitration until one of the
  channels it is watching frees (tail drain, kill), its ejection port
  frees, or a fault event fires (which wakes everyone).  Parked headers
  stay in ``waiting`` — watchdogs, deadlock detection, and the
  blocked-cycle collectors see them exactly as before;
* **dormant worms** — the movement stage skips one set of worms whose
  next cycles are already known, because everything a worm touches is
  privately held.  A worm whose scan moved nothing is *blocked* until an
  arbitration grant wakes it (this keeps saturated-network cycles
  cheap).  A worm ejecting with every buffer fed is *streaming*: each
  cycle passes exactly one flit over every channel it holds until its
  source runs dry, so it sleeps until the cycle its last flit launches
  and is then *settled* — the cycles it is owed applied in one pass
  over its holds — before that cycle's real step.  A fault that kills
  it, and ``finalize``, settle it earlier.  Every release, delivery and
  trace event still happens in a real step, in ``active`` order.

A watchdog records the last cycle on which any flit moved or channel was
granted; silence beyond ``config.deadlock_threshold`` with flits still in
flight is reported as deadlock (used by the Figure 1/Figure 4
demonstrations; the turn-model algorithms never trip it).

**Fault injection and graceful degradation** (see docs/FAULTS.md): a
:class:`~repro.faults.plan.FaultPlan` in the config schedules channel and
router failures mid-run.  Worms holding a failed channel (or touching a
failed router) are killed with full accounting; surviving traffic routes
around the fault through the :class:`~repro.faults.routing.
FaultAwareRouting` mask.  A per-packet watchdog (``config.packet_timeout``)
drops headers that stall too long, diagnosing each drop against the
wait-for graph; dropped packets are retried from the source with bounded
exponential backoff (``config.max_retries``).  With the default empty
plan and the watchdog/retry knobs at zero, every fault hook is skipped
and the simulation is bit-identical to the fault-free engine.

**Observability** (see docs/OBSERVABILITY.md): pass a
:class:`~repro.observability.sinks.TraceSink` to receive cycle-stamped
packet-lifecycle events (``injected``, ``channel_allocated``,
``header_advance``, ``blocked``, ``delivered``, ``dropped``, ``killed``,
``fault_applied``); switch on the config's collector knobs for
per-channel utilization time series, per-router blocked-cycle counters,
and exact latency histograms; pass a
:class:`~repro.observability.profiler.PhaseProfiler` to time the hot
phases.  All three are strictly observational — they never touch the
RNG or reorder any decision — and with all of them off the engine runs
exactly the instruction sequence it ran before they existed (the
golden-fingerprint tests pin this down bit-for-bit).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..faults.plan import CHANNEL_FAULT, FAIL
from ..faults.routing import FaultAwareRouting, MaskedTables
from ..faults.state import FaultState
from ..observability.collectors import MetricsCollectors
from ..observability.events import (
    BLOCKED,
    CHANNEL_ALLOCATED,
    DELIVERED,
    DROPPED,
    FAULT_APPLIED,
    HEADER_ADVANCE,
    INJECTED,
    KILLED,
    TraceEvent,
)
from ..observability.profiler import timed
from ..routing.base import RoutingAlgorithm
from ..routing.selection.congestion import EngineCongestionView
from ..routing.table import shared_tables
from ..topology.base import Topology
from .config import SimulationConfig
from .lifecycle import PacketLifecycle
from .metrics import SimulationResult
from .packet import ChannelHold, Packet, PacketState
from .selection import get_input_policy, make_output_policy


#: The cycle, in order: ``(profiler phase, stage)``.  The one stage list
#: of this engine — ``step`` runs it, a profiler times it.
_STAGES = (
    ("faults", "_apply_faults"),
    ("retries", "_pop_retries"),
    ("generate", "_generate"),
    ("inject", "_inject"),
    ("allocate", "_arbitrate"),
    ("advance", "_move"),
    ("watchdog", "_check_packet_timeouts"),
)


class WormholeSimulator:
    """Simulates one (algorithm, traffic pattern, load) operating point.

    The test suite's scan oracle (``tests/support/scan_oracle.py``)
    subclasses this engine with the scan-based generation and routing
    code paths (no arrival calendar, no routing-table memo, no wakeup
    parking, no streaming-worm fast-forward); the cross-equivalence
    suite requires bit-identical results from the two.
    """

    def __init__(
        self,
        algorithm: RoutingAlgorithm,
        pattern,
        config: SimulationConfig,
        sink=None,
        profiler=None,
    ) -> None:
        self.algorithm = algorithm
        self.pattern = pattern
        self.config = config
        self.topology: Topology = algorithm.topology
        self.output_policy = make_output_policy(config)
        self.input_policy = get_input_policy(config.input_selection)

        # The immutable part of the network — runtime channels (physical
        # channel ``i`` expands into ``num_vc`` lanes ``i * num_vc + vc``
        # sharing the link's bandwidth), ``channel_ids[(src, direction)]``
        # = a link's first lane, and the algorithm's routing answers —
        # is built once per process and shared (docs/PERFORMANCE.md).
        self.num_vc = config.virtual_channels
        self._tables = tables = shared_tables(algorithm, self.num_vc)
        self.channels = tables.channels
        self.channel_ids = tables.channel_ids
        self.channel_alloc: List[Optional[Packet]] = [None] * len(self.channels)
        self.ejection_alloc: List[Optional[Packet]] = [None] * self.topology.num_nodes

        # Insertion-ordered (dicts) so runs are exactly reproducible even
        # under randomised selection policies.
        self.waiting: Dict[Packet, None] = {}  # headers needing arbitration
        self.active: Dict[Packet, None] = {}  # worms with flits in the network
        self.dormant: Set[Packet] = set()  # worms the movement stage skips

        # Streaming worms (see ``_move``): a sleeping worm's first owed
        # cycle, and the calendar that wakes it.  Worms only sleep when
        # no per-cycle consumer couples them to the outside — a shared
        # link (virtual channels) or per-bucket channel counts (the
        # series collector).
        self._owed: Dict[Packet, int] = {}
        self._wake_at: Dict[int, List[Packet]] = {}  # cycle -> worms due
        self._stream = (
            config.virtual_channels == 1 and config.channel_series_period == 0
        )
        # Host-side work counters (never part of the result): worm steps
        # the movement stage executed one by one, and flit-hops it
        # applied in bulk instead.  Read-only for callers.
        self.worm_steps = 0
        self.bulk_flit_hops = 0

        self.cycle = 0
        self.last_progress = 0
        self._last_cycle = 0  # last cycle whose bookkeeping ran
        self._link_blocked = False
        self.channel_load = (
            [0] * len(self.channels) if config.track_channel_load else None
        )

        # Fault injection: a live fault state plus the plan's schedule.
        # With the (default) empty plan both stay empty/None and every
        # fault hook below short-circuits, keeping the zero-fault path
        # bit-identical to the fault-free engine.
        self.fault_state: Optional[FaultState] = None
        self._fault_schedule: Dict[int, list] = {}
        if not config.fault_plan.is_empty:
            self.fault_state = FaultState(self.topology)
            self._fault_schedule = config.fault_plan.schedule()
            self.algorithm = FaultAwareRouting(algorithm, self.fault_state)

        # The source side and the measurement accounting live in the
        # lifecycle component shared with the array backend; the
        # attributes below alias its objects.  An injection gate holds
        # the ``Packet`` using the node's injection channel.
        self._life = life = PacketLifecycle(
            algorithm, pattern, config,
            self.fault_state.dead_routers if self.fault_state is not None else (),
        )
        self.rng = life.rng
        self.sources = life.sources
        self.next_arrival = life.next_arrival
        self.queues = life.queues
        self.injection_busy = life.injection_busy
        self.pending_nodes = life.pending_nodes
        self.result: SimulationResult = life.result
        self._generate = life.generate
        self._pop_retries = life.pop_retries
        self._release_injection = life.release_injection

        # Congestion-aware output selection: bind the engine-backed
        # view only when the configured policy asks for it, so the
        # default xy path never builds or consults congestion state.
        # The scan oracle inherits this binding — and both only invoke
        # the policy on non-empty free candidate sets — so stateful
        # policies stay cross-engine bit-identical.
        if getattr(self.output_policy, "uses_congestion", False):
            self.output_policy.bind(EngineCongestionView(self))

        # Routing decisions come from the shared tables — through a
        # private fault mask when this run has a fault plan.
        routes = tables
        if self.fault_state is not None:
            routes = self._masked = MaskedTables(tables, self.fault_state)
        self._minimal = routes.minimal
        self._escape = routes.escape

        # Channel-free wakeup sets: parked headers (still in ``waiting``)
        # skipped by arbitration until a watched channel or ejection port
        # frees, or a fault event wakes everyone.
        self._parked: Set[Packet] = set()
        self._channel_watchers: Dict[int, Set[Packet]] = {}
        self._eject_watchers: Dict[int, Set[Packet]] = {}

        # Observability: a trace sink, streaming metrics collectors, and
        # a phase profiler — each held as None when disabled so every
        # hook below is one pointer check.  None of them ever touches
        # the RNG or reorders a decision, so enabling them cannot change
        # the simulated outcome (and disabling them restores the exact
        # pre-observability instruction sequence).
        self._sink = sink
        self._emit = sink.emit if sink is not None else None
        self._blocked_noted: Set[Packet] = set()  # one `blocked` per stall
        self._collectors: Optional[MetricsCollectors] = None
        if config.channel_series_period > 0 or config.collect_router_blocked:
            self._collectors = MetricsCollectors(
                len(self.channels),
                self.topology.num_nodes,
                channel_series_period=config.channel_series_period,
                collect_router_blocked=config.collect_router_blocked,
            )

        # The cycle: the stages of ``_STAGES`` whose subsystem this run
        # uses, in order — by name, so an unprofiled simulator holds no
        # reference to itself.  A profiler shadows each named stage (and
        # the routing decision, so the report can split "route" out of
        # "allocate") with a timed wrapper here, so the profiled cycle
        # is this same list.
        used = {
            "faults": bool(self._fault_schedule),
            "retries": config.max_retries > 0,
            "watchdog": config.packet_timeout > 0,
        }
        stages = [stage for stage in _STAGES if used.get(stage[0], True)]
        self._stages = tuple(name for _, name in stages)
        if profiler is not None:
            for phase, name in stages + [("route", "_candidate_channels")]:
                setattr(
                    self, name, timed(phase, getattr(self, name), (profiler,))
                )

    # -- public API ----------------------------------------------------------

    def run(self) -> SimulationResult:
        """Simulate warmup + measurement and return the measurements."""
        for _ in range(self.cycle, self.config.total_cycles):
            if self.step():
                break
        return self.finalize()

    def step(self) -> bool:
        """Advance a single cycle: the stage list, then the per-cycle
        bookkeeping (collector sampling, backlog sampling, the global
        deadlock watchdog).  True when the run should abort — the
        watchdog tripped.

        :meth:`run` and interactive drivers both advance through here,
        so stepping N cycles leaves the simulator in exactly the state
        running N cycles would (call :meth:`finalize` to fold end-of-run
        state into the result)."""
        cycle = self.cycle
        for stage in self._stages:
            getattr(self, stage)(cycle)
        config = self.config
        warmup = config.warmup_cycles
        if self._collectors is not None and (
            warmup <= cycle < config.generation_cycles
        ):
            self._collectors.on_cycle_end(self.waiting)
        self._last_cycle = cycle
        self.cycle = cycle + 1
        if cycle >= warmup and (cycle - warmup) % config.queue_sample_period == 0:
            self.result.backlog_samples.append(self._life.backlog)
        if cycle - self.last_progress > config.deadlock_threshold and (
            self.active or self.waiting
        ):
            self.result.deadlock = True
            self.result.deadlock_cycle = cycle
            return True
        return False

    def finalize(self) -> SimulationResult:
        """Fold end-of-run state into the result and return it.

        :meth:`run` calls this automatically; drivers using
        :meth:`step` call it once after the last step.  Call it once —
        it folds collector state and end-of-run gauges."""
        result = self.result
        end_cycle = self._last_cycle
        for packet in list(self._owed):  # worms still streaming at the end
            self._settle(packet, self.cycle)
        result.inflight_at_end = len(self.active)
        result.channel_flits = self.channel_load
        if self._collectors is not None:
            self._collectors.finish(result)
        for packet in self.waiting:  # headers still stalled at the end
            age = end_cycle - packet.header_wait_since
            if age > result.max_stall_age_cycles:
                result.max_stall_age_cycles = age
        return result

    # -- stage 1: generation and injection ------------------------------------
    # (``_generate`` is the lifecycle's arrival calendar, bound in
    # ``__init__``.)

    def inject_packet(
        self, src: int, dst: int, length: int, created: Optional[int] = None
    ) -> Packet:
        """Create and queue one message explicitly (scripted workloads)."""
        if src == dst:
            raise ValueError(
                "messages to self are consumed locally and never enter the "
                "network; src and dst must differ"
            )
        if length < 1:
            raise ValueError("a packet needs at least one flit")
        life = self._life
        packet = life.new_packet(
            src, dst, length, self.cycle if created is None else created
        )
        life.enqueue(packet)
        return packet

    def _inject(self, cycle: int) -> None:
        if self.pending_nodes:
            self._life.inject(cycle, self._admit, self._finish_drop)

    def _admit(self, packet: Packet, cycle: int) -> Packet:
        """Put a queue head into the network as a header awaiting its
        first grant; the packet itself is the injection gate's handle."""
        packet.state = PacketState.ROUTING
        packet.header_wait_since = cycle
        self.waiting[packet] = None
        self.active[packet] = None
        if self._emit is not None:
            self._emit(
                TraceEvent(INJECTED, cycle, pid=packet.pid, node=packet.src)
            )
        return packet

    # -- stage 2: arbitration --------------------------------------------------

    def _port(self, packet: Packet) -> int:
        """The router input port this header waits at (the key of its
        routing decision): the port its arrival channel feeds, or its
        source's injection port while it holds no channel yet."""
        holds = packet.holds
        if holds:
            return self._tables.arrive_port[holds[-1].channel_id]
        return packet.head_node * self._tables.node_ports

    def _candidate_channels(self, packet: Packet) -> List[tuple]:
        """Free ``(direction, runtime channel id, misroute bit)``
        candidates for this header, served from the routing tables."""
        alloc = self.channel_alloc
        port = self._port(packet)
        dest = packet.dst
        free = [c for c in self._minimal(port, dest) if alloc[c[1]] is None]
        if not free and packet.misroutes < self.config.misroute_limit:
            free = [c for c in self._escape(port, dest) if alloc[c[1]] is None]
        return free

    # -- channel-free wakeup sets ---------------------------------------------

    def _park(self, packet: Packet) -> None:
        """Park a header whose candidate set is fully busy: register it
        on every channel it could use (including eligible escapes) and
        skip it in arbitration until one of them frees.

        A parked header provably has zero free candidates, and its
        candidate set is a pure function of state that cannot change
        while it waits — so skipping its scan is unobservable."""
        port = self._port(packet)
        pairs = self._minimal(port, packet.dst)
        if packet.misroutes < self.config.misroute_limit:
            pairs = pairs + self._escape(port, packet.dst)
        watchers = self._channel_watchers
        for _, cid, _ in pairs:
            ws = watchers.get(cid)
            if ws is None:
                ws = watchers[cid] = set()
            ws.add(packet)
        self._parked.add(packet)

    def _park_eject(self, packet: Packet) -> None:
        """Park a header waiting for its (busy) ejection port."""
        node = packet.head_node
        ws = self._eject_watchers.get(node)
        if ws is None:
            ws = self._eject_watchers[node] = set()
        ws.add(packet)
        self._parked.add(packet)

    def _free_channel(self, cid: int) -> None:
        """Release a runtime channel and wake every header watching it."""
        self.channel_alloc[cid] = None
        watchers = self._channel_watchers.pop(cid, None)
        if watchers:
            self._parked.difference_update(watchers)

    def _free_ejector(self, node: int) -> None:
        """Release an ejection port and wake every header watching it."""
        self.ejection_alloc[node] = None
        watchers = self._eject_watchers.pop(node, None)
        if watchers:
            self._parked.difference_update(watchers)

    def _wake_all(self) -> None:
        """Un-park everything (fault events change candidate masks)."""
        self._parked.clear()
        self._channel_watchers.clear()
        self._eject_watchers.clear()

    def _arbitrate(self, cycle: int) -> None:
        waiting = self.waiting
        if not waiting:
            return
        parked = self._parked
        if len(parked) >= len(waiting):
            return  # every waiting header is parked on a wakeup set
        channel_requests: Dict[int, List[Packet]] = {}
        eject_requests: Dict[int, List[Packet]] = {}
        misrouting: Set[Packet] = set()  # requests for a nonminimal hop
        emit = self._emit
        candidate_channels = self._candidate_channels
        ejection_alloc = self.ejection_alloc
        output_policy = self.output_policy
        rng = self.rng
        for packet in waiting:
            if packet in parked:
                continue
            if packet.state is PacketState.EJECT_WAIT:
                if ejection_alloc[packet.head_node] is None:
                    eject_requests.setdefault(packet.head_node, []).append(packet)
                else:
                    if emit is not None:
                        self._note_blocked(packet, cycle)
                    self._park_eject(packet)
                continue
            free = candidate_channels(packet)
            if not free:
                if emit is not None:
                    self._note_blocked(packet, cycle)
                self._park(packet)
                continue
            directions = []
            for direction, _, _ in free:
                if direction not in directions:
                    directions.append(direction)
            direction = output_policy(directions, packet, rng)
            # Respect the algorithm's virtual-channel preference order.
            cid, misroute = next(
                (c, m) for d, c, m in free if d == direction
            )
            channel_requests.setdefault(cid, []).append(packet)
            if misroute:
                misrouting.add(packet)
        for cid, contenders in channel_requests.items():
            winner = self.input_policy(contenders, rng)
            self._grant_channel(winner, cid, winner in misrouting)
        for node, contenders in eject_requests.items():
            winner = self.input_policy(contenders, rng)
            self.ejection_alloc[node] = winner
            winner.state = PacketState.EJECTING
            self.waiting.pop(winner, None)
            self.dormant.discard(winner)
            self.last_progress = cycle
            if emit is not None:
                self._blocked_noted.discard(winner)

    def _note_blocked(self, packet: Packet, cycle: int) -> None:
        """Emit one ``blocked`` event per stall episode (the packet must
        receive a grant before it counts as newly blocked again)."""
        if packet in self._blocked_noted:
            return
        self._blocked_noted.add(packet)
        self._emit(
            TraceEvent(BLOCKED, cycle, pid=packet.pid, node=packet.head_node)
        )

    def _grant_channel(self, packet: Packet, cid: int, misroute: bool) -> None:
        if self.cycle >= self.config.warmup_cycles:
            waited = self.cycle - packet.header_wait_since
            if waited > self.result.max_grant_wait_cycles:
                self.result.max_grant_wait_cycles = waited
        channel = self.channels[cid]
        self.channel_alloc[cid] = packet
        packet.holds.append(ChannelHold(cid))
        packet.state = PacketState.MOVING
        packet.hops += 1
        if misroute:
            packet.misroutes += 1
        self.waiting.pop(packet, None)
        self.dormant.discard(packet)
        self.last_progress = self.cycle
        if self._emit is not None:
            self._blocked_noted.discard(packet)
            self._emit(
                TraceEvent(
                    CHANNEL_ALLOCATED,
                    self.cycle,
                    pid=packet.pid,
                    node=channel.src,
                    channel=cid,
                    direction=repr(channel.direction),
                )
            )

    # -- stage 3: movement -------------------------------------------------------

    def _move(self, cycle: int) -> None:
        buffer_depth = self.config.buffer_depth
        loads = None
        if self.channel_load is not None and cycle >= self.config.warmup_cycles:
            loads = self.channel_load
        series = None
        if (
            self._collectors is not None
            and self._collectors.channel_counts is not None
            and self.config.warmup_cycles <= cycle < self.config.generation_cycles
        ):
            series = self._collectors.channel_counts
        dormant = self.dormant
        if self._wake_at:
            # Streaming worms sleep in ``dormant`` too.  Each one moves
            # flits this cycle (progress, though nothing scans it), and
            # the ones whose last flit launches now settle what they are
            # owed and take this real step in their usual place.
            owed = self._owed
            if owed:
                self.last_progress = cycle
            for packet in self._wake_at.pop(cycle, ()):
                if packet in owed:  # (a worm killed asleep stays listed)
                    self._settle(packet, cycle)
        if dormant:
            movers = [p for p in self.active if p not in dormant]
        else:
            movers = list(self.active)
        self.worm_steps += len(movers)
        links_used = None
        if self.num_vc > 1 and movers:
            # Virtual channels share their physical link: one flit per
            # link per cycle.  Rotate service order for fairness.
            links_used = set()
            rotation = cycle % len(movers)
            movers = movers[rotation:] + movers[:rotation]
        stream = self._stream
        for packet in movers:
            self._link_blocked = False
            moved = self._move_packet(
                packet, cycle, buffer_depth, loads, links_used, series
            )
            if moved:
                self.last_progress = cycle
                if (
                    stream
                    and packet.state is PacketState.EJECTING
                    and packet.length - packet.launched > 2
                    and all(hold.buffered for hold in packet.holds)
                ):
                    # Rigid streaming: ejecting with every buffer fed,
                    # this worm passes exactly one flit over each held
                    # channel per cycle — through resources nobody else
                    # can touch — until its source runs dry.  Sleep
                    # until the cycle the last flit launches (the
                    # injection release must be a real step).
                    self._owed[packet] = cycle + 1
                    self._wake_at.setdefault(
                        cycle + packet.length - packet.launched, []
                    ).append(packet)
                    dormant.add(packet)
            elif not self._link_blocked:
                # A worm's buffers are private, so a zero-move scan stays
                # zero until an arbitration grant un-parks the packet —
                # unless the link-sharing arbitration (not the worm's own
                # state) caused the stall, which can clear next cycle.
                dormant.add(packet)

    def _settle(self, packet: Packet, upto: int) -> None:
        """Wake a streaming worm: apply, in one pass over its holds, the
        cycles it slept through — its first owed one up to (excluding)
        ``upto``.  Each was one flit launched, one ejected and one
        across every held channel (counted in ``channel_load`` from the
        warmup boundary on), with every ``buffered`` unchanged."""
        cycles = upto - self._owed.pop(packet)
        self.dormant.discard(packet)
        holds = packet.holds
        packet.launched += cycles
        packet.ejected += cycles
        for hold in holds:
            hold.moved += cycles
        loads = self.channel_load
        counted = min(cycles, upto - self.config.warmup_cycles)
        if loads is not None and counted > 0:
            for hold in holds:
                loads[hold.channel_id] += counted
        self.bulk_flit_hops += cycles * len(holds)

    def _move_packet(
        self,
        packet: Packet,
        cycle: int,
        buffer_depth: int,
        loads=None,
        links_used=None,
        series=None,
    ) -> int:
        moved = 0
        holds = packet.holds
        # Ejection consumes one flit per cycle from the head-most buffer.
        if packet.state is PacketState.EJECTING and holds:
            head = holds[-1]
            if head.buffered > 0:
                head.buffered -= 1
                packet.ejected += 1
                moved += 1
        # Shift one flit across each held channel, head first, so an
        # unblocked worm advances one position per cycle.
        for i in range(len(holds) - 1, -1, -1):
            hold = holds[i]
            if hold.moved >= packet.length or hold.buffered >= buffer_depth:
                continue
            supply = (
                holds[i - 1].buffered > 0
                if i > 0
                else packet.launched < packet.length
            )
            if not supply:
                continue
            if links_used is not None:
                link = hold.channel_id // self.num_vc
                if link in links_used:
                    self._link_blocked = True
                    continue
                links_used.add(link)
            if i > 0:
                holds[i - 1].buffered -= 1
            else:
                packet.launched += 1
                if packet.injected is None:
                    packet.injected = cycle
                if packet.launched == packet.length:
                    self._release_injection(packet.src)
            hold.buffered += 1
            hold.moved += 1
            moved += 1
            if loads is not None:
                loads[hold.channel_id] += 1
            if series is not None:
                series[hold.channel_id] += 1
        # Header arrival at the next router.
        if packet.state is PacketState.MOVING and holds and holds[-1].moved > 0:
            channel = self.channels[holds[-1].channel_id]
            packet.head_node = channel.dst
            packet.head_direction = channel.direction
            packet.head_vc = holds[-1].channel_id % self.num_vc
            packet.header_wait_since = cycle
            packet.state = (
                PacketState.EJECT_WAIT
                if channel.dst == packet.dst
                else PacketState.ROUTING
            )
            self.waiting[packet] = None
            if self._emit is not None:
                self._emit(
                    TraceEvent(
                        HEADER_ADVANCE,
                        cycle,
                        pid=packet.pid,
                        node=channel.dst,
                        channel=holds[-1].channel_id,
                        direction=repr(channel.direction),
                    )
                )
        # Release drained channels at the tail (waking any header parked
        # on the freed channel).
        while holds and holds[0].moved >= packet.length and holds[0].buffered == 0:
            hold = holds.pop(0)
            self._free_channel(hold.channel_id)
            moved += 1  # a release is progress for the watchdog
        if packet.state is PacketState.EJECTING and packet.ejected == packet.length:
            self._deliver(packet, cycle)
            moved += 1
        return moved

    # -- fault injection, per-packet watchdog, and retries ---------------------

    def _apply_faults(self, cycle: int) -> None:
        """Fire the fault plan's scheduled changes for this cycle.

        Every fired event drops the privately masked decisions of exactly
        the nodes whose candidate masks it touches (the shared tables
        are unmasked and stay as they are), and wakes every parked
        header (their watch sets may be stale against the new masks)."""
        events = self._fault_schedule.pop(cycle, None)
        if not events:
            return
        state = self.fault_state
        assert state is not None
        for action, event in events:
            if self._emit is not None:
                self._emit(
                    TraceEvent(
                        FAULT_APPLIED,
                        cycle,
                        node=event.node,
                        direction=(
                            repr(event.direction)
                            if event.kind == CHANNEL_FAULT
                            else None
                        ),
                        cause=f"{action}:{event.kind}",
                    )
                )
            if event.kind == CHANNEL_FAULT:
                if action == FAIL:
                    state.fail_channel(event.node, event.direction)
                    self._kill_channel_holders(event, cycle)
                else:
                    state.heal_channel(event.node, event.direction)
            else:
                if action == FAIL:
                    state.fail_router(event.node)
                    self._kill_router_worms(event.node, cycle)
                    self._life.router_failed(event.node)
                else:
                    state.heal_router(event.node)
                    self._life.router_healed(event.node)
            for node in self._tables.index.affected_nodes(
                event.node, channel_only=(event.kind == CHANNEL_FAULT)
            ):
                self._masked.invalidate(node)
        self._wake_all()

    def _kill_channel_holders(self, event, cycle: int) -> None:
        """Kill every worm holding a virtual channel of the failed link."""
        base = self.channel_ids.get((event.node, event.direction))
        if base is None:
            return  # plan references a channel this topology lacks
        for cid in range(base, base + self.num_vc):
            packet = self.channel_alloc[cid]
            if packet is not None:
                self._kill(packet, cycle, "link-failure")

    def _kill_router_worms(self, node: int, cycle: int) -> None:
        """Kill every worm whose header sits at, or whose body crosses,
        the failed router."""
        victims = []
        for packet in self.active:
            if packet.head_node == node:
                victims.append(packet)
                continue
            for hold in packet.holds:
                channel = self.channels[hold.channel_id]
                if channel.src == node or channel.dst == node:
                    victims.append(packet)
                    break
        for packet in victims:
            self._kill(packet, cycle, "router-failure")

    def _kill(
        self, packet: Packet, cycle: int, cause: str, killed: bool = True
    ) -> None:
        """Remove an in-flight worm: release every held resource, then
        account the drop (and schedule a retry if attempts remain)."""
        stall = cycle - packet.header_wait_since
        if stall > self.result.max_stall_age_cycles:
            self.result.max_stall_age_cycles = stall
        if packet in self._owed:
            # Cut mid-stream: count exactly the cycles before the cut.
            self._settle(packet, cycle)
        for hold in packet.holds:
            if self.channel_alloc[hold.channel_id] is packet:
                self._free_channel(hold.channel_id)
        packet.holds.clear()
        if self.injection_busy[packet.src] is packet:
            self._release_injection(packet.src)
        if self.ejection_alloc[packet.dst] is packet:
            self._free_ejector(packet.dst)
        self.active.pop(packet, None)
        self.waiting.pop(packet, None)
        self.dormant.discard(packet)
        self._parked.discard(packet)
        if self._emit is not None and killed:
            self._blocked_noted.discard(packet)
            self._emit(
                TraceEvent(
                    KILLED,
                    cycle,
                    pid=packet.pid,
                    node=packet.head_node,
                    cause=cause,
                )
            )
        self._finish_drop(packet, cycle, cause, killed=killed)

    def _finish_drop(
        self, packet: Packet, cycle: int, cause: str, killed: bool = False
    ) -> None:
        """Mark one packet dropped and account it (the lifecycle
        schedules the retry, if attempts remain)."""
        packet.state = PacketState.DROPPED
        packet.drop_cause = cause
        self.last_progress = cycle  # freed resources are progress
        if self._emit is not None:
            self._blocked_noted.discard(packet)
            self._emit(
                TraceEvent(
                    DROPPED,
                    cycle,
                    pid=packet.pid,
                    node=packet.head_node,
                    cause=cause,
                )
            )
        self._life.account_drop(
            packet.src, packet.dst, packet.length, packet.created,
            packet.attempt, cycle, cause, killed,
        )

    def _check_packet_timeouts(self, cycle: int) -> None:
        """The per-packet watchdog: drop headers stalled beyond
        ``config.packet_timeout``, diagnosing each batch against the
        wait-for graph so circular waits are distinguished from dead-end
        stalls (e.g. a deterministic algorithm facing a dead channel)."""
        timeout = self.config.packet_timeout
        result = self.result
        victims = []
        for packet in self.waiting:
            age = cycle - packet.header_wait_since
            if age > result.max_stall_age_cycles:
                result.max_stall_age_cycles = age
            if age > timeout:
                victims.append(packet)
        if not victims:
            return
        from .deadlock import detect_deadlock  # deferred: avoids an import cycle

        report = detect_deadlock(self)
        circular = {p for cyc in report.cycles for p in cyc}
        for packet in victims:
            cause = (
                "timeout-deadlock" if packet in circular else "timeout-stall"
            )
            self._kill(packet, cycle, cause, killed=False)

    def _deliver(self, packet: Packet, cycle: int) -> None:
        packet.state = PacketState.DELIVERED
        packet.delivered = cycle
        self._free_ejector(packet.dst)
        self.active.pop(packet, None)
        self.dormant.discard(packet)
        if self._emit is not None:
            self._emit(
                TraceEvent(DELIVERED, cycle, pid=packet.pid, node=packet.dst)
            )
        self._life.account_delivery(
            packet.length, packet.created, packet.injected, packet.hops,
            packet.misroutes, cycle,
        )
