"""Load sweeps: latency-vs-throughput curves, one simulation per point.

The paper's Figures 13-16 plot average communication latency against
average network throughput as the offered load rises.  A sweep runs the
simulator at a list of offered loads and collects the
:class:`~repro.simulation.metrics.SimulationResult` per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..routing.base import RoutingAlgorithm
from ..simulation.config import SimulationConfig
from ..simulation.metrics import SimulationResult
from .runner import ParallelSweepRunner, run_live_points


@dataclass
class SweepSeries:
    """One algorithm's latency/throughput curve under one pattern.

    Under the runner's ``keep_going`` mode a permanently failed point
    leaves ``None`` at its position (docs/RESILIENCE.md); every
    aggregate here skips the holes and :meth:`rows` marks them.
    """

    algorithm: str
    pattern: str
    results: List[Optional[SimulationResult]]

    def completed_results(self) -> List[SimulationResult]:
        """The results that were actually delivered (no ``None`` holes)."""
        return [r for r in self.results if r is not None]

    def points(self) -> List[Tuple[float, Optional[float]]]:
        """(delivered throughput in flits/us, avg latency in us) pairs."""
        return [
            (r.throughput_flits_per_us, r.avg_latency_us)
            for r in self.completed_results()
        ]

    def sustainable_results(self) -> List[SimulationResult]:
        return [r for r in self.completed_results() if r.sustainable]

    def max_sustainable_throughput(self) -> float:
        """Highest delivered throughput among sustainable points."""
        sustainable = self.sustainable_results()
        if not sustainable:
            return 0.0
        return max(r.throughput_flits_per_us for r in sustainable)

    def rows(self) -> List[str]:
        header = (
            f"# {self.algorithm} / {self.pattern}\n"
            f"# offered(fl/us)  delivered(fl/us)  latency(us)  sustainable"
        )
        lines = [header]
        for r in self.results:
            if r is None:
                lines.append("         FAILED            FAILED         "
                             "FAILED  (see failure manifest)")
                continue
            latency = r.avg_latency_us
            lat = f"{latency:11.2f}" if latency is not None else "        n/a"
            # Three decimals: a 0.02 vs 0.04 flits/us/node sweep on a
            # small network differs by far less than 0.1 aggregate
            # flits/us, which a .1f column collapsed into equal rows.
            lines.append(
                f"{r.offered_flits_per_us:15.3f} {r.throughput_flits_per_us:17.3f} "
                f"{lat}  {'yes' if r.sustainable else 'NO'}"
            )
        return lines


def run_sweep(
    algorithm: RoutingAlgorithm,
    pattern,
    loads: Sequence[float],
    base_config: Optional[SimulationConfig] = None,
    progress: Optional[Callable[[SimulationResult], None]] = None,
    runner: Optional[ParallelSweepRunner] = None,
) -> SweepSeries:
    """Simulate each offered load in ``loads`` (flits/us/node).

    The points run through ``runner`` (default: inline and uncached;
    see :func:`~repro.analysis.runner.run_live_points`), so the result
    is the same for any runner.
    """
    return compare_algorithms(
        [algorithm], lambda topology: pattern, loads, base_config, progress,
        runner,
    )[0]


def compare_algorithms(
    algorithms: Sequence[RoutingAlgorithm],
    pattern_factory: Callable[[object], object],
    loads: Sequence[float],
    base_config: Optional[SimulationConfig] = None,
    progress: Optional[Callable[[SimulationResult], None]] = None,
    runner: Optional[ParallelSweepRunner] = None,
) -> List[SweepSeries]:
    """One sweep per algorithm; ``pattern_factory(topology)`` builds the
    workload for each algorithm's topology (they normally share one).

    The whole (algorithm x load) grid is one runner batch, so a pool
    stays saturated across series boundaries.
    """
    if base_config is None:
        base_config = SimulationConfig()
    patterns = [pattern_factory(a.topology) for a in algorithms]
    results = run_live_points(
        [
            (algorithm, pattern, base_config.with_load(load))
            for algorithm, pattern in zip(algorithms, patterns)
            for load in loads
        ],
        runner,
        progress,
    )
    n = len(loads)
    return [
        SweepSeries(
            algorithm=algorithm.name,
            pattern=getattr(pattern, "name", type(pattern).__name__),
            results=results[k * n : (k + 1) * n],
        )
        for k, (algorithm, pattern) in enumerate(zip(algorithms, patterns))
    ]
