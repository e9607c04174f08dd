"""Pin ledger: what the canonical operating points compute, exactly.

The simulator is deterministic, so everything recorded here repeats
bit-for-bit on any machine and is compared by **exact equality**:

* the run's **fingerprint** — the nine counters the golden
  bit-identity tests pin (see ``tests/faults/test_fault_injection.py``),
  summed over the members of a batch;
* on event-engine points the counted work, ``worm_steps``,
  ``bulk_flit_hops`` and ``quiet_cycles`` (docs/SIMULATOR.md) — how
  much of the run was stepped worm by worm, how much was applied in
  closed form, and how many cycles were jumped over as quiet;
* on array-engine points a run-time reference check: the first
  ``event_sample`` members are re-run on the event engine and must
  match their array results bit-for-bit.

Nothing here is a wall-clock number.  Timing belongs to ``bench/`` and
``BENCHMARK.json`` (fresh interpreters, paired runs, bounded metrics);
this ledger only says whether a change computes the same simulations
with the same counted work.

Entry point: ``repro bench`` (``scripts/bench_engine.py`` delegates to
it).  The committed ledger is ``BENCH_engine.json``; writing it twice
gives byte-identical files (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from typing import Collection, Dict, List, Optional, Sequence, Tuple

from ..faults.plan import FaultPlan
from ..simulation.backend import make_simulator
from ..simulation.config import SimulationConfig
from .runner import ParallelSweepRunner, PointSpec, parse_topology_spec

BENCH_SCHEMA = 4
"""Schema 3 dropped every host-dependent value (walls, rates, speedups,
baselines, timestamps) and merged ``batch_points`` into ``points``;
schema 4 added ``quiet_cycles`` to the event points."""

FINGERPRINT_FIELDS = (
    "generated_packets", "delivered_packets", "delivered_flits",
    "total_latency_cycles", "total_net_latency_cycles", "total_hops",
    "total_misroutes", "max_grant_wait_cycles", "inflight_at_end",
)
"""The nine counters the golden bit-identity tests pin."""


@dataclass(frozen=True)
class PinnedPoint:
    """``batch_size`` seeds (``seed``, ``seed + 1``, ...) of one
    operating point, fully deterministic.  A solo point is a batch of
    one.  Event points run one simulator per member; array points run
    through an inline sweep runner, as a single batched engine pass."""

    id: str
    topology: str
    algorithm: str
    pattern: str
    offered_load: float
    warmup_cycles: int
    measure_cycles: int
    seed: int = 0
    batch_size: int = 1
    quick: bool = False
    """Included in the ``--quick`` subset (CI smoke and tier-1)."""

    backend: str = "event"
    """Engine (``SimulationConfig.backend``) the point is pinned on.
    The array twin of an event point carries the id ``<id>@array``."""

    event_sample: int = 0
    """Array points: how many leading members the event engine re-runs
    as the reference."""

    observability: bool = False
    """Switch on all three metrics collectors."""

    fault_links: int = 0
    """Fail this many links mid-run in every member (each member's plan
    seeded from its own simulation seed: the ``repro faults`` shape)."""

    packet_timeout: int = 0
    max_retries: int = 0
    drain_cycles: int = 0
    buffer_depth: int = 1
    track_channel_load: bool = False
    selection: str = "xy"
    selection_threshold: int = 2
    virtual_channels: int = 1

    def config(self, member: int = 0) -> SimulationConfig:
        seed = self.seed + member
        config = SimulationConfig(
            offered_load=self.offered_load,
            warmup_cycles=self.warmup_cycles,
            measure_cycles=self.measure_cycles,
            seed=seed,
            buffer_depth=self.buffer_depth,
            track_channel_load=self.track_channel_load,
            drain_cycles=self.drain_cycles,
            output_selection=self.selection,
            selection_threshold=self.selection_threshold,
            virtual_channels=self.virtual_channels,
            packet_timeout=self.packet_timeout,
            max_retries=self.max_retries,
            backend=self.backend,
        )
        if self.fault_links:
            plan = FaultPlan.random_links(
                parse_topology_spec(self.topology), self.fault_links,
                seed=seed + 1, start=self.warmup_cycles // 2,
            )
            config = config.with_faults(plan)
        if self.observability:
            config = config.with_observability()
        return config

    def specs(self) -> List[PointSpec]:
        """One :class:`PointSpec` per member."""
        return [
            PointSpec(self.topology, self.algorithm, self.pattern, self.config(m))
            for m in range(self.batch_size)
        ]

    def build(self) -> List[tuple]:
        """(algorithm, pattern, config) per member — the shared
        topology/algorithm and one fresh pattern each."""
        return [(*spec.build(), spec.config) for spec in self.specs()]

    def spec_dict(self) -> Dict[str, object]:
        """Every field that defines the simulation and differs from its
        default (``id`` is the ledger key; ``quick`` only selects)."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("id", "quick")
            and getattr(self, f.name) != f.default
        }


# Ids are stable across PRs: the ledger is compared id by id, and a
# renamed or dropped id is reported, not skipped.  The "low" loads sit
# inside the sustainable region; the "sat" loads sit at/above
# saturation, where most headers are blocked and arbitration dominates.
CANONICAL_POINTS: Tuple[PinnedPoint, ...] = (
    PinnedPoint(
        id="mesh8-uniform-low", topology="mesh:8x8", algorithm="west-first",
        pattern="uniform", offered_load=0.6, warmup_cycles=500,
        measure_cycles=2_500, seed=3, quick=True,
    ),
    PinnedPoint(
        id="mesh8-uniform-sat", topology="mesh:8x8", algorithm="west-first",
        pattern="uniform", offered_load=1.5, warmup_cycles=500,
        measure_cycles=2_500, seed=3, quick=True,
    ),
    PinnedPoint(
        id="mesh16-uniform-low", topology="mesh:16x16",
        algorithm="west-first", pattern="uniform", offered_load=0.5,
        warmup_cycles=1_000, measure_cycles=4_000, seed=7,
    ),
    PinnedPoint(
        id="mesh16-uniform-sat", topology="mesh:16x16",
        algorithm="west-first", pattern="uniform", offered_load=2.0,
        warmup_cycles=1_000, measure_cycles=4_000, seed=7,
    ),
    PinnedPoint(
        id="mesh16-sat-quick", topology="mesh:16x16", algorithm="west-first",
        pattern="uniform", offered_load=2.0, warmup_cycles=300,
        measure_cycles=1_200, seed=7, quick=True,
    ),
    PinnedPoint(
        id="cube8-uniform-low", topology="cube:8", algorithm="p-cube",
        pattern="uniform", offered_load=1.0, warmup_cycles=400,
        measure_cycles=1_600, seed=5,
    ),
    PinnedPoint(
        id="cube8-uniform-sat", topology="cube:8", algorithm="p-cube",
        pattern="uniform", offered_load=3.0, warmup_cycles=400,
        measure_cycles=1_600, seed=5,
    ),
    PinnedPoint(
        id="mesh16-sat-observability", topology="mesh:16x16",
        algorithm="west-first", pattern="uniform", offered_load=2.0,
        warmup_cycles=500, measure_cycles=2_000, seed=7,
        observability=True,
    ),
    PinnedPoint(
        id="mesh16-sat-faults", topology="mesh:16x16",
        algorithm="west-first", pattern="uniform", offered_load=2.0,
        warmup_cycles=500, measure_cycles=2_000, seed=7, fault_links=4,
        packet_timeout=800, max_retries=2, drain_cycles=500,
    ),
    # The paper's torus shape with dateline VCs: its work counters pin
    # the multi-VC streaming sleep (a worm alone on its links sleeps).
    PinnedPoint(
        id="torus8-dateline-vc2", topology="torus:8x2",
        algorithm="dateline-dimension-order", pattern="uniform",
        offered_load=1.2, warmup_cycles=300, measure_cycles=1_200, seed=7,
        virtual_channels=2, buffer_depth=4, quick=True,
    ),
    # Seed sweeps, each run as one array batch.  The first is the regime
    # batching targets (docs/PERFORMANCE.md): deep buffers near saturation.
    PinnedPoint(
        id="mesh16-d4-seedsweep", topology="mesh:16x16",
        algorithm="west-first", pattern="uniform", offered_load=2.4,
        seed=100, batch_size=320, backend="array", warmup_cycles=200,
        measure_cycles=1_000, buffer_depth=4, track_channel_load=True,
        event_sample=320,
    ),
    PinnedPoint(
        id="mesh8-d4-seedsweep-quick", topology="mesh:8x8",
        algorithm="west-first", pattern="uniform", offered_load=1.5,
        seed=100, batch_size=48, backend="array", warmup_cycles=150,
        measure_cycles=600, buffer_depth=4, quick=True, event_sample=12,
    ),
    # A paired fault campaign — every member fails seeded links mid-run
    # with the watchdog + bounded retries active — and a credit-steered
    # selection sweep in the ``repro selection`` comparison-grid shape.
    PinnedPoint(
        id="mesh16-faultsweep", topology="mesh:16x16",
        algorithm="west-first", pattern="uniform", offered_load=1.2,
        seed=100, batch_size=256, backend="array", warmup_cycles=500,
        measure_cycles=2_000, fault_links=4, packet_timeout=800,
        max_retries=2, drain_cycles=500, event_sample=16,
    ),
    PinnedPoint(
        id="mesh16-mc-selsweep", topology="mesh:16x16",
        algorithm="west-first", pattern="uniform", offered_load=2.0,
        seed=100, batch_size=160, backend="array", warmup_cycles=500,
        measure_cycles=1_500, selection="max-credits", event_sample=16,
    ),
    PinnedPoint(
        id="mesh8-faultsweep-quick", topology="mesh:8x8",
        algorithm="west-first", pattern="uniform", offered_load=0.5,
        seed=100, batch_size=48, backend="array", warmup_cycles=150,
        measure_cycles=600, fault_links=3, packet_timeout=400,
        max_retries=2, drain_cycles=200, quick=True, event_sample=12,
    ),
    # The multi-VC workloads (the paper's torus/hypercube figure
    # shapes): a dateline seed-sweep on the 16x16 wraparound torus
    # (``torus:16x2`` = radix 16, 2 dims) and an escape-VC adaptive
    # mesh sweep.
    PinnedPoint(
        id="torus16-dateline-seedsweep", topology="torus:16x2",
        algorithm="dateline-dimension-order", pattern="uniform",
        offered_load=1.2, seed=100, batch_size=192, backend="array",
        warmup_cycles=300, measure_cycles=1_200, virtual_channels=2,
        buffer_depth=4, event_sample=16,
    ),
    PinnedPoint(
        id="mesh16-escape-vc-sweep", topology="mesh:16x16",
        algorithm="escape-vc-adaptive", pattern="uniform",
        offered_load=1.2, seed=100, batch_size=160, backend="array",
        warmup_cycles=300, measure_cycles=1_200, virtual_channels=2,
        buffer_depth=4, event_sample=16,
    ),
    PinnedPoint(
        id="torus8-dateline-seedsweep-quick", topology="torus:8x2",
        algorithm="dateline-dimension-order", pattern="uniform",
        offered_load=1.2, seed=100, batch_size=96, backend="array",
        warmup_cycles=150, measure_cycles=600, virtual_channels=2,
        buffer_depth=4, quick=True, event_sample=12,
    ),
)


def bench_points(
    quick: bool = False, backend: str = "event"
) -> List[PinnedPoint]:
    """The pinned points of ``backend`` (``--quick`` subset when asked):
    :data:`CANONICAL_POINTS` plus, for every event point, its array
    twin ``<id>@array``.  ``"both"`` is all the committed ledger holds.
    """
    points = list(CANONICAL_POINTS) + [
        replace(p, id=f"{p.id}@array", backend="array", event_sample=1)
        for p in CANONICAL_POINTS
        if p.backend == "event"
    ]
    return [
        p for p in points
        if backend in (p.backend, "both") and (p.quick or not quick)
    ]


def _fingerprint(result) -> Tuple[int, ...]:
    return tuple(getattr(result, name) for name in FINGERPRINT_FIELDS)


@dataclass
class Pin:
    """What one run of a :class:`PinnedPoint` computed."""

    point: PinnedPoint
    fingerprint: Tuple[int, ...]
    """The nine counters, summed element-wise over the members."""

    worm_steps: Optional[int] = None
    """Event-engine work counters, summed over the members: worms
    stepped one by one, (``bulk_flit_hops``) flit-hops applied in bulk
    for streaming worms instead, and (``quiet_cycles``) cycles jumped
    over because no stage could act.  ``None`` on the array engine."""

    bulk_flit_hops: Optional[int] = None
    quiet_cycles: Optional[int] = None
    bit_identical: bool = True
    """Array points: the sampled event-engine results matched.  A
    verdict on this run (see :func:`compare_reports`), never stored."""

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "spec": self.point.spec_dict(),
            "fingerprint": list(self.fingerprint),
        }
        if self.worm_steps is not None:
            out["worm_steps"] = self.worm_steps
            out["bulk_flit_hops"] = self.bulk_flit_hops
            out["quiet_cycles"] = self.quiet_cycles
        return out


def run_point(point: PinnedPoint) -> Pin:
    """Run every member of ``point`` once (array points need numpy)."""
    worm_steps = bulk_flit_hops = quiet_cycles = None
    bit_identical = True
    if point.backend == "event":
        sims = [make_simulator(*member) for member in point.build()]
        results = [sim.run() for sim in sims]
        worm_steps = sum(sim.worm_steps for sim in sims)
        bulk_flit_hops = sum(sim.bulk_flit_hops for sim in sims)
        quiet_cycles = sum(sim.quiet_cycles for sim in sims)
    else:
        runner = ParallelSweepRunner(jobs=1, cache=None)
        results = runner.run_points(point.specs())
        sampled = replace(point, backend="event", batch_size=point.event_sample)
        bit_identical = all(
            _fingerprint(make_simulator(*member).run()) == _fingerprint(result)
            for member, result in zip(sampled.build(), results)
        )
    fingerprint = tuple(
        sum(column) for column in zip(*map(_fingerprint, results))
    )
    return Pin(
        point, fingerprint, worm_steps, bulk_flit_hops, quiet_cycles,
        bit_identical,
    )


def write_report(pins: Sequence[Pin], path: str) -> None:
    """Write the ledger: byte-identical for identical pins."""
    ledger = {
        "schema": BENCH_SCHEMA,
        "points": {pin.point.id: pin.to_dict() for pin in pins},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path: str) -> Dict[str, object]:
    """Read a previously-written ledger (``BENCH_engine.json``)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if (
        not isinstance(data, dict)
        or data.get("schema") != BENCH_SCHEMA
        or not isinstance(data.get("points"), dict)
    ):
        raise ValueError(
            f"{path} is not a schema-{BENCH_SCHEMA} pin ledger; re-record "
            f"it with `repro bench --backend both --out {path}`"
        )
    return data


def compare_reports(
    pins: Sequence[Pin],
    committed: Optional[Dict[str, object]] = None,
    canonical_ids: Collection[str] = (),
) -> List[str]:
    """The exact gate: problems with a fresh run (empty = pass).

    * an array point whose sampled event-engine results did not match
      bit-for-bit — fatal with or without a ``committed`` ledger;
    * a stored value — fingerprint, work counter, spec — that is not
      **equal** to the fresh one, or a point with no committed entry;
    * a committed id outside ``canonical_ids`` (every id the ledger
      should hold): no point produces it any more.
    """
    problems = [
        f"{pin.point.id}: sampled event-engine results no longer match "
        f"the array results bit-for-bit"
        for pin in pins
        if not pin.bit_identical
    ]
    if committed is None:
        return problems
    committed_points = committed["points"]
    for pin in pins:
        entry = pin.to_dict()
        prior = committed_points.get(pin.point.id)
        if not isinstance(prior, dict):
            problems.append(f"{pin.point.id}: not in the committed ledger")
            continue
        for key in sorted(set(entry) | set(prior)):
            if entry.get(key) != prior.get(key):
                problems.append(
                    f"{pin.point.id}: {key} changed "
                    f"{prior.get(key)} -> {entry.get(key)}"
                )
    if canonical_ids:
        for orphan in sorted(set(committed_points) - set(canonical_ids)):
            problems.append(
                f"{orphan}: committed, but no canonical point produces it"
            )
    return problems
