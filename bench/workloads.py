"""The six benchmark workloads: inputs generated from ``--seed``, run
through the public API only.

Every workload is an untimed ``prepare`` (build the inputs, learn the
specs the harness will submit) plus a ``body`` that the driver times.
The body is what a user of the repo waits for: a figure regeneration, a
batched seed sweep, a supervised fault campaign, a warm re-run.  Names
and shapes are fixed (later issues cite them); only the sizes in
:data:`SIZES` may be trimmed to fit the run budget.

All cycle counts here are *simulated* cycles.  Nothing in this file
measures host time; :mod:`child` does.

The harness functions are reached through the ``analysis`` module
attribute (not ``from ... import``) so the traced run can wrap them at
run time without editing the program.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro import SimulationConfig
from repro import analysis
from repro.analysis import ExperimentPreset, PointSpec

SIZES: Dict[str, Dict[str, Dict[str, object]]] = {
    # Sized so one body repetition is about 0.5-1.5 s of host time on
    # the 2-core reference box: the driver's budget is ~25 s per run
    # including three set-ups, which rules out the 3-4 s bodies the
    # issue sketched.  Shapes (topologies, algorithms, batch regime,
    # supervision knobs) are the issue's.  Where there was a choice,
    # points were cut rather than simulated cycles: every point of a
    # figure (or every algorithm of a campaign trial) shares one traffic
    # seed, so the seed-to-seed spread of the work done shrinks with the
    # cycles per point and the number of trials, not with the point count.
    "full": {
        "fig-event": {
            "warmup": 250, "measure": 750,
            "mesh_loads": (1.0, 2.0), "cube_loads": (2.0, 4.0),
        },
        "seedsweep-array": {"batch": 80, "warmup": 100, "measure": 300},
        "vcsweep-array": {"batch": 64, "warmup": 100, "measure": 400},
        "solo-array": {
            "warmup": 200, "measure": 800,
            "loads": (0.5, 1.0, 2.0), "small_batch": 8,
        },
        "campaign-supervised": {
            "trials": 40, "fault_counts": (2, 4),
            "warmup": 100, "measure": 400, "drain": 200, "watchdog": 300,
        },
        "rerun-warm": {"plain": 6, "resumed": 6},
    },
    # --quick: the same shapes at toy sizes, for the self-tests.
    "quick": {
        "fig-event": {
            "warmup": 20, "measure": 60,
            "mesh_loads": (1.0,), "cube_loads": (2.0,),
        },
        "seedsweep-array": {"batch": 6, "warmup": 20, "measure": 60},
        "vcsweep-array": {"batch": 4, "warmup": 20, "measure": 60},
        "solo-array": {
            "warmup": 20, "measure": 80, "loads": (1.0,), "small_batch": 2,
        },
        "campaign-supervised": {
            "trials": 2, "fault_counts": (1, 2),
            "warmup": 50, "measure": 250, "drain": 100, "watchdog": 120,
        },
        "rerun-warm": {"plain": 2, "resumed": 2},
    },
}
# rerun-warm serves the campaign-supervised points; it shares their size.
for _sizes in SIZES.values():
    _sizes["rerun-warm"] = {
        **_sizes["campaign-supervised"], **_sizes["rerun-warm"]
    }

PROFILED = 4
"""Points per workload the traced run phase-splits."""

CAMPAIGN_WORKERS = 2
"""The only parallel workload uses two workers (``nproc`` on the
reference box); the driver never asks for more workers than cores."""


class SpecTap:
    """A duck-typed runner that records the specs a harness submits and
    simulates nothing — how ``prepare`` learns a figure's or a
    campaign's operating points without reaching into the harness."""

    def __init__(self) -> None:
        self.specs: List[PointSpec] = []

    def run_points(self, specs: Sequence[PointSpec], progress=None):
        self.specs.extend(specs)
        return [None] * len(specs)


@dataclass
class State:
    """What ``prepare`` hands to ``body``."""

    specs: List[PointSpec]
    """The operating points of one body repetition, in result order."""

    run: Callable[[], list]
    """One body repetition: returns results in ``specs`` order (a body
    that serves the points several times returns the serves in a row)."""

    reset: Optional[Callable[[], None]] = None
    """Untimed clean-up before each repetition (fresh cache/journal)."""

    reference: Optional[list] = None
    """Results every repetition must equal, point for point; ``None``
    means the cold pass.  ``rerun-warm`` pins the simulation its
    ``prepare`` ran: its body returns every serve back to back, so its
    results are this list several times over."""

    profile: Sequence[PointSpec] = ()
    """Points the traced run re-executes alone under the public
    ``profiler=`` hook for the per-phase split.  Empty where the body
    simulates nothing or only inside a batch (a batch member cannot be
    phase-split from outside)."""


def _member_seeds(seed: int, count: int) -> List[int]:
    return random.Random(seed).sample(range(1 << 30), count)


def sample(items: Sequence, seed: int, limit: int) -> list:
    """A seeded sample of at most ``limit`` items."""
    if len(items) <= limit:
        return list(items)
    return random.Random(seed).sample(list(items), limit)


# -- fig-event ---------------------------------------------------------------


def _figure_pair(preset: ExperimentPreset, runner) -> list:
    series = analysis.figure14_mesh_transpose(preset, runner=runner)
    series += analysis.figure16_cube_reverse_flip(preset, runner=runner)
    return [result for s in series for result in s.results]


def prepare_fig_event(seed: int, size: dict, scratch: Path) -> State:
    preset = ExperimentPreset(
        warmup_cycles=size["warmup"],
        measure_cycles=size["measure"],
        mesh_loads=size["mesh_loads"],
        cube_loads=size["cube_loads"],
        seed=seed,
    )
    tap = SpecTap()
    _figure_pair(preset, tap)

    def run() -> list:
        runner = analysis.ParallelSweepRunner(jobs=1, cache=None)
        return _figure_pair(preset, runner)

    return State(
        specs=tap.specs, run=run, profile=sample(tap.specs, seed, PROFILED)
    )


# -- the three array workloads -----------------------------------------------


def _array_batch_state(
    batches: List[List[PointSpec]], profile: Sequence[PointSpec] = ()
) -> State:
    """Each inner list is one ``run_points`` call (one batched pass)."""

    def run() -> list:
        runner = analysis.ParallelSweepRunner(jobs=1, cache=None)
        results: list = []
        for batch in batches:
            results += runner.run_points(batch)
        return results

    return State(
        specs=[s for batch in batches for s in batch], run=run, profile=profile
    )


def prepare_seedsweep_array(seed: int, size: dict, scratch: Path) -> State:
    config = SimulationConfig(
        offered_load=2.4,
        buffer_depth=4,
        warmup_cycles=size["warmup"],
        measure_cycles=size["measure"],
        backend="array",
    )
    batch = [
        PointSpec("mesh:16x16", "west-first", "uniform", config.with_seed(s))
        for s in _member_seeds(seed, size["batch"])
    ]
    return _array_batch_state([batch])


def prepare_vcsweep_array(seed: int, size: dict, scratch: Path) -> State:
    config = SimulationConfig(
        offered_load=1.2,
        buffer_depth=4,
        virtual_channels=2,
        warmup_cycles=size["warmup"],
        measure_cycles=size["measure"],
        backend="array",
    )
    batch = [
        PointSpec(
            "torus:16x2", "dateline-dimension-order", "uniform",
            config.with_seed(s),
        )
        for s in _member_seeds(seed, size["batch"])
    ]
    return _array_batch_state([batch])


def prepare_solo_array(seed: int, size: dict, scratch: Path) -> State:
    config = SimulationConfig(
        warmup_cycles=size["warmup"],
        measure_cycles=size["measure"],
        backend="array",
    )
    seeds = _member_seeds(seed, len(size["loads"]) + size["small_batch"])
    solos = [
        [PointSpec(
            "mesh:16x16", "west-first", "uniform",
            replace(config, offered_load=load, seed=seeds.pop()),
        )]
        for load in size["loads"]
    ]
    small_batch = [
        PointSpec(
            "mesh:8x8", "west-first", "uniform",
            replace(config, offered_load=0.5, seed=s),
        )
        for s in seeds
    ]
    return _array_batch_state(
        solos + [small_batch], profile=[solo[0] for solo in solos]
    )


# -- the two campaign workloads ----------------------------------------------


def _campaign(seed: int, size: dict, runner) -> list:
    campaign = analysis.run_fault_campaign(
        "mesh:8x8",
        fault_counts=size["fault_counts"],
        trials=size["trials"],
        base_config=analysis.campaign_config(
            warmup_cycles=size["warmup"],
            measure_cycles=size["measure"],
            drain_cycles=size["drain"],
            packet_timeout=size["watchdog"],
            max_retries=2,
            seed=seed,
        ),
        seed=seed,
        runner=runner,
    )
    # Spec order is (count, trial, algorithm); cells regroup it.  Undo
    # that so results line up with the tapped specs.
    algorithms = campaign.algorithms()
    return [
        campaign.cell(algorithm, count).results[trial]
        for count in size["fault_counts"]
        for trial in range(size["trials"])
        for algorithm in algorithms
    ]


SUPERVISED = dict(
    jobs=CAMPAIGN_WORKERS, keep_going=True, point_timeout=60, max_point_retries=1
)
"""The ``repro faults --journal`` knobs (plus a cache and a journal)."""


def _run_campaign(seed: int, size: dict, **runner_kwargs) -> list:
    runner = analysis.ParallelSweepRunner(**runner_kwargs)
    try:
        return _campaign(seed, size, runner)
    finally:
        runner.close()


def _tapped_campaign_specs(seed: int, size: dict) -> List[PointSpec]:
    tap = SpecTap()
    _campaign(seed, size, tap)
    return tap.specs


def prepare_campaign_supervised(seed: int, size: dict, scratch: Path) -> State:
    cache, journal = scratch / "cache", scratch / "journal.jsonl"

    def reset() -> None:
        shutil.rmtree(cache, ignore_errors=True)
        journal.unlink(missing_ok=True)

    def run() -> list:
        return _run_campaign(
            seed, size, cache=cache, journal=journal, **SUPERVISED
        )

    specs = _tapped_campaign_specs(seed, size)
    return State(
        specs=specs, run=run, reset=reset,
        profile=sample(specs, seed, PROFILED),
    )


def prepare_rerun_warm(seed: int, size: dict, scratch: Path) -> State:
    cache, journal = scratch / "cache", scratch / "journal.jsonl"
    cold = _run_campaign(seed, size, cache=cache, journal=journal, **SUPERVISED)

    def run() -> list:
        results: list = []
        for _ in range(size["plain"]):
            results += _run_campaign(seed, size, jobs=1, cache=cache)
        for _ in range(size["resumed"]):
            results += _run_campaign(
                seed, size, jobs=1, cache=cache, journal=journal, resume=True
            )
        return results

    return State(
        specs=_tapped_campaign_specs(seed, size), run=run, reference=cold
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[int, dict, Path], State]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fig-event",
            "Figure 14 + Figure 16 regeneration on the event engine: what "
            "users wait for; engine + routing do >95% of the work.",
            prepare_fig_event,
        ),
        Workload(
            "seedsweep-array",
            "One large homogeneous single-VC batch near saturation: the "
            "array backend's home regime, kernels amortised.",
            prepare_seedsweep_array,
        ),
        Workload(
            "vcsweep-array",
            "2-VC dateline torus batch: every cycle enters the link-"
            "arbitration fixpoint and the per-(channel,VC) arena.",
            prepare_vcsweep_array,
        ),
        Workload(
            "solo-array",
            "Array backend at batch-of-one and B=8: per-cycle numpy "
            "dispatch dominates, the honest slower-than-event regime.",
            prepare_solo_array,
        ),
        Workload(
            "campaign-supervised",
            "Many tiny fault points under 2 supervised workers with cache "
            "and journal: harness overhead is a large share.",
            prepare_campaign_supervised,
        ),
        Workload(
            "rerun-warm",
            "The same campaign served repeatedly from a warm cache and a "
            "resumed journal: zero simulation, all cache/key/journal.",
            prepare_rerun_warm,
        ),
    )
}
