"""Maximum sustainable throughput estimation.

The paper defines throughput as *sustainable* "when the number of packets
queued at their source processors is small and bounded".  This module
finds each (algorithm, pattern) pair's maximum sustainable operating
point by bisecting on offered load with that test.

Bisection is inherently sequential per pair — each probe depends on the
last — but a *campaign* over many pairs is not: :func:`find_saturation_many`
advances every pair's bisection in lock-step, submitting each level's
midpoint probes as one batch to a
:class:`~repro.analysis.runner.ParallelSweepRunner`, so a fleet of
saturation searches runs in the wall-clock time of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..routing.base import RoutingAlgorithm
from ..simulation.config import SimulationConfig
from ..simulation.metrics import SimulationResult
from .runner import ParallelSweepRunner, run_live_points


@dataclass
class SaturationPoint:
    """Estimated saturation of one (algorithm, pattern) pair."""

    algorithm: str
    pattern: str
    max_sustainable_load: float  # flits/us/node offered
    throughput_flits_per_us: float  # delivered at that load, aggregate
    latency_us: Optional[float]
    probes: int


def _sustainable(result: Optional[SimulationResult]) -> bool:
    # A probe lost to a worker failure under keep_going counts as
    # unsustainable: the bisection stays conservative (docs/RESILIENCE.md).
    return result is not None and result.sustainable


class _Search:
    """Mutable bisection state for one (algorithm, pattern) pair."""

    def __init__(self, algorithm, pattern, low: float, high: float) -> None:
        self.algorithm = algorithm
        self.pattern = pattern
        self.low = low
        self.high = high
        self.probes = 0
        self.best: Optional[SimulationResult] = None
        self.done: Optional[SaturationPoint] = None

    def finish(
        self, load: float, result: Optional[SimulationResult]
    ) -> SaturationPoint:
        self.done = SaturationPoint(
            algorithm=self.algorithm.name,
            pattern=getattr(
                self.pattern, "name", type(self.pattern).__name__
            ),
            max_sustainable_load=load,
            throughput_flits_per_us=(
                result.throughput_flits_per_us if result is not None else 0.0
            ),
            latency_us=result.avg_latency_us if result is not None else None,
            probes=self.probes,
        )
        return self.done


def find_saturation_many(
    pairs: Sequence[Tuple[RoutingAlgorithm, object]],
    base_config: Optional[SimulationConfig] = None,
    low: float = 0.0,
    high: float = 8.0,
    iterations: int = 6,
    runner: Optional[ParallelSweepRunner] = None,
) -> List[SaturationPoint]:
    """Saturation search over many (algorithm, pattern) pairs at once.

    Each pair bisects offered load exactly as :func:`find_saturation`
    does, but the searches advance level-synchronously: every round's
    probes are submitted as one batch, so with a parallel runner ``P``
    pairs need the wall-clock of a single search.  Results are identical
    to running :func:`find_saturation` on each pair.
    """
    if base_config is None:
        base_config = SimulationConfig()
    searches = [_Search(a, p, low, high) for a, p in pairs]

    def probe(batch: List[_Search], loads: List[float]) -> list:
        return run_live_points(
            [
                (s.algorithm, s.pattern, base_config.with_load(load))
                for s, load in zip(batch, loads)
            ],
            runner,
        )

    # Ceiling probes: ``high`` must be unsustainable (raised once if not).
    top = probe(searches, [s.high for s in searches])
    doubled: List[_Search] = []
    for search, result in zip(searches, top):
        search.probes += 1
        if _sustainable(result):
            search.high *= 2
            doubled.append(search)
    if doubled:
        retop = probe(doubled, [s.high for s in doubled])
        for search, result in zip(doubled, retop):
            search.probes += 1
            if _sustainable(result):
                # Treat the probed ceiling as the answer rather than
                # searching an unbounded range.
                search.finish(search.high, result)

    for _ in range(iterations):
        active = [s for s in searches if s.done is None]
        if not active:
            break
        mids = [(s.low + s.high) / 2 for s in active]
        results = probe(active, mids)
        for search, mid, result in zip(active, mids, results):
            search.probes += 1
            if _sustainable(result):
                search.low = mid
                search.best = result
            else:
                search.high = mid

    return [
        s.done if s.done is not None else s.finish(s.low, s.best)
        for s in searches
    ]


def find_saturation(
    algorithm: RoutingAlgorithm,
    pattern,
    base_config: Optional[SimulationConfig] = None,
    low: float = 0.0,
    high: float = 8.0,
    iterations: int = 6,
    runner: Optional[ParallelSweepRunner] = None,
) -> SaturationPoint:
    """Bisect offered load between ``low`` (sustainable) and ``high``.

    ``high`` must be unsustainable (it is probed and raised once if not).
    Each probe is a full simulation at the midpoint load; ``iterations``
    probes give a load resolution of ``(high - low) / 2**iterations``.
    A runner parallelises nothing here (probes are sequential) but its
    result cache makes repeated searches instant.
    """
    return find_saturation_many(
        [(algorithm, pattern)],
        base_config=base_config,
        low=low,
        high=high,
        iterations=iterations,
        runner=runner,
    )[0]
