"""Per-layer metrics, measured from outside the program.

Three sources, all through public functions only:

* **spans** — :func:`install` wraps the public entry points with the
  span recorder of :mod:`trace`; :func:`from_trace` turns the spans and
  the counts taken at the same boundaries into per-repetition host
  seconds, work counts, and self-time shares per layer (layer = module);
* **phase split** — :func:`phase_split` re-runs a few of the workload's
  points alone under the public ``profiler=`` argument of
  ``make_simulator`` (a batch member cannot be phase-split from outside;
  that needs in-program tracing and is deferred);
* **probes** — :func:`probes` times unit costs of each layer directly
  (a routing-table row, a cache put, a journal fsync, a pool round
  trip).  They do not depend on the workload.

Every traced run emits every per-layer metric; a layer the workload
never enters reads 0.  All times are host time.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Sequence

from repro import (
    FaultPlan,
    Mesh2D,
    MeshTransposePattern,
    PhaseProfiler,
    SimulationConfig,
    SimulationResult,
    UniformPattern,
    WestFirst,
    analysis,
    make_simulator,
    simulation,
)
from repro.analysis import (
    CampaignJournal,
    ParallelSweepRunner,
    PointSpec,
    ResultCache,
    SupervisedPool,
)
from repro.routing import RoutingTable

import trace as tracing

# -- what a result says about simulated work ---------------------------------


def simulated_cycles(spec: PointSpec, result: SimulationResult) -> int:
    """Simulated cycles the point actually ran (a deadlocked run stops
    early)."""
    if result.deadlock and result.deadlock_cycle is not None:
        return result.deadlock_cycle + 1
    return spec.config.total_cycles


def flit_hops(result: SimulationResult) -> float:
    """Flit-channel traversals of the measured packets: the simulated
    event count host time is compared against."""
    if not result.delivered_packets:
        return 0.0
    return result.delivered_flits * result.total_hops / result.delivered_packets


# -- span layer map ----------------------------------------------------------

LAYER_OF_SPAN = {
    "repetition": "bench",
    "figure14_mesh_transpose": "sweep",
    "figure16_cube_reverse_flip": "sweep",
    "run_fault_campaign": "sweep",
    "FaultPlan.random_links": "faults",
    "ParallelSweepRunner.run_batch": "runner",
    "PointSpec.build": "runner",
    "PointSpec.execute": "runner",
    "PointSpec.cache_key": "runner",
    "ResultCache.get": "runner",
    "ResultCache.put": "runner",
    "SupervisedPool.run": "supervision",
    "CampaignJournal.__init__": "supervision",
    "CampaignJournal.record_point": "supervision",
    "make_simulator.event": "engine",
    "WormholeSimulator.run": "engine",
    "make_simulator.array": "array",
    "ArrayWormholeSimulator.run": "array",
    "BatchSimulator.__init__": "array",
    "BatchSimulator.run": "array",
}
LAYERS = ("engine", "array", "runner", "supervision", "sweep", "faults")
SIMULATION_SPANS = (
    "PointSpec.execute", "BatchSimulator.__init__", "BatchSimulator.run",
)
"""Spans that are point execution, for ``runner.overhead_s``."""


def install(recorder: tracing.Recorder) -> None:
    """Wrap the public entry points (undone by ``recorder.unwrap_all``)."""

    def count_work(prefix: str) -> Callable:
        def after(rec, args, kwargs, result):
            results = result if isinstance(result, list) else [result]
            rec.count(f"{prefix}.flit_hops", sum(flit_hops(r) for r in results))
        return after

    def after_make_simulator(rec, args, kwargs, sim):
        config = kwargs["config"] if "config" in kwargs else args[2]
        if config.backend == "array":
            rec.count("array.member_cycles", config.total_cycles)
            rec.count("array.members")
            rec.count("array.vectorized", int(sim.vectorized))
        else:
            rec.count("engine.cycles", config.total_cycles)

    def after_batch_init(rec, args, kwargs, result):
        batch, points = args[0], args[1]
        rec.count(
            "array.member_cycles", sum(p[2].total_cycles for p in points)
        )
        rec.count("array.members", batch.batch_size)
        rec.count("array.vectorized", batch.vectorized_count)

    def after_cache_get(rec, args, kwargs, result):
        rec.count("cache.gets")
        rec.count("cache.hits", int(result is not None))

    def after_record_point(rec, args, kwargs, result):
        attempts = kwargs.get("attempts", args[2] if len(args) > 2 else 1)
        rec.count("supervision.retries", attempts - 1)

    def after_run_batch(rec, args, kwargs, report):
        rec.count("supervision.failures", len(report.failures))

    for function in (
        analysis.figure14_mesh_transpose,
        analysis.figure16_cube_reverse_flip,
        analysis.run_fault_campaign,
    ):
        recorder.wrap_function(function)
    recorder.wrap_function(
        make_simulator,
        name=lambda algorithm, pattern, config, **hooks:
            f"make_simulator.{config.backend}",
        after=after_make_simulator,
    )
    recorder.wrap_method(
        FaultPlan, "random_links",
        after=lambda rec, *_: rec.count("faults.plans"),
    )
    recorder.wrap_method(ParallelSweepRunner, "run_batch", after=after_run_batch)
    for attr in ("build", "execute", "cache_key"):
        recorder.wrap_method(PointSpec, attr)
    recorder.wrap_method(ResultCache, "get", after=after_cache_get)
    recorder.wrap_method(ResultCache, "put")
    recorder.wrap_method(SupervisedPool, "run")
    recorder.wrap_method(CampaignJournal, "__init__")
    recorder.wrap_method(CampaignJournal, "record_point", after=after_record_point)
    recorder.wrap_method(
        simulation.WormholeSimulator, "run", after=count_work("engine")
    )
    recorder.wrap_method(
        simulation.ArrayWormholeSimulator, "run", after=count_work("array")
    )
    recorder.wrap_method(simulation.BatchSimulator, "__init__", after=after_batch_init)
    recorder.wrap_method(simulation.BatchSimulator, "run", after=count_work("array"))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def from_trace(recorder: tracing.Recorder, repetitions: int) -> Dict[str, float]:
    """Trace-derived per-layer metrics, per body repetition."""
    spans, counts = recorder.spans, recorder.counts
    selfs = tracing.self_times(spans)

    by_name: Dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS + ("bench",), 0.0)
    for span in spans:
        name = span[tracing.NAME]
        by_name[name] = by_name.get(name, 0.0) + span[tracing.END] - span[tracing.START]
        layer_self[LAYER_OF_SPAN[name]] += selfs[span[tracing.ID]]

    def seconds(*names: str) -> float:
        return sum(by_name.get(name, 0.0) for name in names) / repetitions

    def count(name: str) -> float:
        return counts.get(name, 0) / repetitions

    total_self = sum(layer_self.values())
    root_seconds = seconds("repetition") * repetitions
    batch_seconds, simulating = tracing.coverage(
        spans, inner=SIMULATION_SPANS, outer=("ParallelSweepRunner.run_batch",)
    )

    engine_run = seconds("WormholeSimulator.run")
    array_run = seconds("BatchSimulator.run", "ArrayWormholeSimulator.run")
    metrics = {
        "engine.construct_s": seconds("make_simulator.event"),
        "engine.run_s": engine_run,
        "engine.cycles": count("engine.cycles"),
        "engine.flit_hops": count("engine.flit_hops"),
        "engine.ns_per_cycle": 1e9 * _ratio(engine_run, count("engine.cycles")),
        "engine.ns_per_flit_hop": 1e9
        * _ratio(engine_run, count("engine.flit_hops")),
        "array.construct_s": seconds(
            "BatchSimulator.__init__", "make_simulator.array"
        ),
        "array.run_s": array_run,
        "array.ns_per_member_cycle": 1e9
        * _ratio(array_run, count("array.member_cycles")),
        "array.ns_per_flit_hop": 1e9 * _ratio(array_run, count("array.flit_hops")),
        "array.vectorized_fraction": _ratio(
            count("array.vectorized"), count("array.members")
        ),
        "array.demoted_points": count("array.members") - count("array.vectorized"),
        "faults.plan_build_s": seconds("FaultPlan.random_links"),
        "faults.plans": count("faults.plans"),
        "runner.spec_build_s": seconds("PointSpec.build"),
        "runner.cache_hit_ratio": _ratio(count("cache.hits"), count("cache.gets")),
        "runner.overhead_s": (batch_seconds - simulating) / repetitions,
        "supervision.retries": count("supervision.retries"),
        "supervision.failures": count("supervision.failures"),
        "sweep.assemble_s": layer_self["sweep"] / repetitions,
        # Share of the repetition that some wrapped entry point accounts
        # for: 1 - (time in the benchmark's own glue) / (root span).
        "trace.coverage": 1.0 - _ratio(layer_self["bench"], root_seconds),
    }
    for layer in LAYERS:
        metrics[f"trace.share.{layer}"] = _ratio(layer_self[layer], total_self)
    return metrics


# -- phase split (public profiler= hook) -------------------------------------

ENGINE_PHASES = (
    "generate", "inject", "allocate", "route", "advance", "faults", "watchdog",
)
ARRAY_PHASES = (
    "generate", "inject", "allocate", "advance", "faults", "watchdog", "collect",
)


def phase_split(specs: Sequence[PointSpec]) -> Dict[str, float]:
    """Host seconds per engine phase, summed over ``specs`` run alone
    with a ``PhaseProfiler`` attached (event specs feed ``engine.phase``,
    array specs ``array.phase``)."""
    metrics = {f"engine.phase.{p}_s": 0.0 for p in ENGINE_PHASES}
    metrics.update({f"array.phase.{p}_s": 0.0 for p in ARRAY_PHASES})
    for spec in specs:
        profiler = PhaseProfiler()
        algorithm, pattern = spec.build()
        make_simulator(algorithm, pattern, spec.config, profiler=profiler).run()
        prefix = "array" if spec.config.backend == "array" else "engine"
        for phase in profiler.seconds:
            key = f"{prefix}.phase.{phase}_s"
            if key in metrics:
                metrics[key] += profiler.exclusive_seconds(phase)
    return metrics


# -- probes ------------------------------------------------------------------


class _TrivialSpec:
    """Duck-typed pool spec that does nothing: what is left is the pool."""

    def execute(self) -> int:
        return 0


def _timed(function: Callable[[], object]) -> float:
    start = time.perf_counter()
    function()
    return time.perf_counter() - start


def probes(scratch: Path, quick: bool) -> Dict[str, float]:
    """Unit costs of each layer, on fixed inputs (seeded, the same for
    every workload)."""
    side = 8 if quick else 16
    scale = 10 if quick else 1
    rng = random.Random(0)
    mesh = Mesh2D(side, side)
    algorithm = WestFirst(mesh)
    nodes = range(mesh.num_nodes)
    metrics: Dict[str, float] = {}

    # repro.routing: fill every (node, dest) row, then hit them.
    table = RoutingTable(algorithm)

    def sweep_table() -> None:
        candidates = table.candidates
        for node in nodes:
            for dest in nodes:
                candidates(node, dest, None)

    pairs = mesh.num_nodes ** 2
    metrics["routing.table_fill_s"] = _timed(sweep_table)
    metrics["routing.table_hit_ns"] = 1e9 * _timed(sweep_table) / pairs
    metrics["routing.table_entries"] = table.num_entries
    sample = [(rng.randrange(len(nodes)), rng.randrange(len(nodes)))
              for _ in range(20_000 // scale)]
    metrics["routing.candidates_ns"] = 1e9 * _timed(
        lambda: [algorithm.candidates(a, b, None) for a, b in sample]
    ) / len(sample)

    # repro.traffic: one destination draw, uniform and transpose.
    draws = 0.0
    for pattern in (UniformPattern(mesh), MeshTransposePattern(mesh)):
        draws += _timed(lambda: [pattern.dest(a, rng) for a, _ in sample])
    metrics["traffic.dest_ns"] = 1e9 * draws / (2 * len(sample))

    # repro.analysis.runner: key, put, get on small real results.
    config = SimulationConfig(warmup_cycles=20, measure_cycles=80)
    specs = [
        PointSpec("mesh:8x8", "west-first", "uniform", config.with_seed(s))
        for s in range(64 // scale)
    ]
    result = specs[0].execute()
    cache = ResultCache(scratch / "probe-cache")
    metrics["runner.cache_key_us"] = 1e6 * _timed(
        lambda: [spec.cache_key() for spec in specs]
    ) / len(specs)
    metrics["runner.cache_put_us"] = 1e6 * _timed(
        lambda: [cache.put(spec, result) for spec in specs]
    ) / len(specs)
    metrics["runner.cache_get_us"] = 1e6 * _timed(
        lambda: [cache.get(spec) for spec in specs]
    ) / len(specs)
    metrics["runner.cache_bytes_per_entry"] = statistics.fmean(
        cache.path_for(spec).stat().st_size for spec in specs
    )
    shutil.rmtree(cache.root)

    # repro.simulation.config / metrics.
    hashes, roundtrips = 2_000 // scale, 500 // scale
    metrics["config.stable_hash_us"] = 1e6 * _timed(
        lambda: [config.stable_hash() for _ in range(hashes)]
    ) / hashes
    metrics["metrics.result_roundtrip_us"] = 1e6 * _timed(
        lambda: [
            SimulationResult.from_dict(result.to_dict())
            for _ in range(roundtrips)
        ]
    ) / roundtrips

    # repro.analysis.supervision: the pool and the journal, no simulation.
    # Time to the first result back is spawn + one trip; the spacing of
    # the later results is the steady per-point round trip.
    stamps: List[float] = []
    trips = 200 // scale
    start = time.perf_counter()
    SupervisedPool(workers=2).run(
        [(i, _TrivialSpec()) for i in range(trips)],
        on_point=lambda *_: stamps.append(time.perf_counter()),
    )
    metrics["supervision.pool_spawn_s"] = stamps[0] - start
    metrics["supervision.pool_roundtrip_ms"] = (
        1e3 * (stamps[-1] - stamps[0]) / (trips - 1)
    )
    journal_path = scratch / "probe-journal.jsonl"
    records = 640 // scale
    with CampaignJournal(journal_path) as journal:
        metrics["supervision.journal_record_us"] = 1e6 * _timed(
            lambda: [journal.record_point(f"key-{i}") for i in range(records)]
        ) / records
    metrics["supervision.journal_load_ms"] = 1e3 * _timed(
        lambda: CampaignJournal(journal_path, resume=True).close()
    )
    journal_path.unlink()

    # repro.observability: collectors on over collectors off, one
    # saturated event point (best of two each; a ratio of two noisy
    # single runs would mostly report the noise).
    loaded = SimulationConfig(
        offered_load=2.4, warmup_cycles=100 // scale, measure_cycles=300 // scale
    )

    def run_point(point_config: SimulationConfig) -> float:
        return min(
            _timed(make_simulator(
                algorithm, UniformPattern(mesh), point_config
            ).run)
            for _ in range(2)
        )

    metrics["observability.collectors_overhead_ratio"] = _ratio(
        run_point(loaded.with_observability()), run_point(loaded)
    )

    # repro.cli: interpreter start + import + argparse.
    metrics["cli.version_s"] = _timed(
        lambda: subprocess.run(
            [sys.executable, "-m", "repro", "--version"],
            check=True, stdout=subprocess.DEVNULL, env=os.environ,
        )
    )
    return metrics


def as_event(spec: PointSpec) -> PointSpec:
    """The same operating point on the event backend."""
    return replace(spec, config=spec.config.with_backend("event"))
