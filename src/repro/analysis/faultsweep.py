"""Seeded fault-injection campaigns: graceful degradation, quantified.

The paper's fault-tolerance motivation — adaptive algorithms give packets
"alternative paths ... around congested or faulty hardware" — is checked
statically by :mod:`repro.verification.faults`; this module exercises it
*dynamically*.  A campaign sweeps the number of failed links: for each
fault count it draws ``trials`` deterministic
:class:`~repro.faults.plan.FaultPlan` schedules (seed-derived, identical
across algorithms, so every algorithm faces exactly the same broken
hardware), runs the fault-injected wormhole simulator per algorithm, and
aggregates delivery ratio, latency of what was delivered, drops by
cause, retries, and kill counts.

Campaign points route through the ordinary
:class:`~repro.analysis.runner.ParallelSweepRunner`/:class:`~repro.
analysis.runner.ResultCache` machinery — a fault plan is part of
:class:`~repro.simulation.config.SimulationConfig`, so cache keys cover
the full schedule.  The ``repro faults`` CLI subcommand fronts
:func:`run_fault_campaign`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..faults.plan import FaultPlan
from ..simulation.config import SimulationConfig
from ..simulation.metrics import SimulationResult
from .runner import ParallelSweepRunner, PointSpec, parse_topology_spec

DEFAULT_ALGORITHMS = ("xy", "west-first", "north-last", "negative-first")
DEFAULT_FAULT_COUNTS = (1, 2, 4, 8)


def campaign_config(
    offered_load: float = 0.5,
    warmup_cycles: int = 500,
    measure_cycles: int = 4_000,
    seed: int = 1,
    packet_timeout: int = 800,
    max_retries: int = 2,
    drain_cycles: int = 3_000,
    **overrides,
) -> SimulationConfig:
    """The default operating point for fault campaigns: light load (so
    losses measure *faults*, not congestion), a per-packet watchdog well
    above the largest message's drain time, a couple of retries, and a
    drain window so every measured packet resolves to delivered or
    dropped instead of "out of simulated time"."""
    return SimulationConfig(
        offered_load=offered_load,
        warmup_cycles=warmup_cycles,
        measure_cycles=measure_cycles,
        seed=seed,
        packet_timeout=packet_timeout,
        max_retries=max_retries,
        drain_cycles=drain_cycles,
        **overrides,
    )


def plan_seed(campaign_seed: int, num_faults: int, trial: int) -> int:
    """Deterministic per-(count, trial) fault-plan seed."""
    return campaign_seed * 1_000_003 + num_faults * 10_007 + trial


@dataclass
class FaultCell:
    """One (algorithm, fault count) cell: its trials' results.

    Under the runner's ``keep_going`` mode a trial lost to a worker
    failure leaves ``None`` in :attr:`results`; the aggregates below
    skip the holes (the cell then summarises the trials that completed,
    and :attr:`lost_trials` says how many did not)."""

    algorithm: str
    num_faults: int
    results: List[Optional[SimulationResult]]

    def completed(self) -> List[SimulationResult]:
        return [r for r in self.results if r is not None]

    @property
    def lost_trials(self) -> int:
        """Trials whose worker permanently failed (keep_going holes)."""
        return sum(1 for r in self.results if r is None)

    @property
    def generated(self) -> int:
        return sum(r.generated_packets for r in self.completed())

    @property
    def delivered(self) -> int:
        return sum(r.delivered_packets for r in self.completed())

    @property
    def delivery_ratio(self) -> float:
        generated = self.generated
        return self.delivered / generated if generated else 1.0

    @property
    def avg_latency_us(self) -> Optional[float]:
        delivered = self.delivered
        if delivered == 0:
            return None
        completed = self.completed()
        cycles = sum(r.total_latency_cycles for r in completed)
        return cycles / delivered * completed[0].cycle_time_us

    @property
    def dropped(self) -> int:
        return sum(r.dropped_packets for r in self.completed())

    @property
    def killed(self) -> int:
        return sum(r.killed_packets for r in self.completed())

    @property
    def retried(self) -> int:
        return sum(r.retried_packets for r in self.completed())

    @property
    def drops_by_cause(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for r in self.completed():
            for cause, count in r.drops_by_cause.items():
                merged[cause] = merged.get(cause, 0) + count
        return {cause: merged[cause] for cause in sorted(merged)}

    def to_dict(self) -> Dict[str, object]:
        return {
            "algorithm": self.algorithm,
            "num_faults": self.num_faults,
            "generated": self.generated,
            "delivered": self.delivered,
            "delivery_ratio": self.delivery_ratio,
            "avg_latency_us": self.avg_latency_us,
            "dropped": self.dropped,
            "killed": self.killed,
            "retried": self.retried,
            "drops_by_cause": self.drops_by_cause,
            "lost_trials": self.lost_trials,
        }


@dataclass
class FaultCampaign:
    """A full campaign: cells over (algorithm x fault count)."""

    topology: str
    pattern: str
    trials: int
    seed: int
    cells: List[FaultCell]

    def cell(self, algorithm: str, num_faults: int) -> FaultCell:
        for cell in self.cells:
            if cell.algorithm == algorithm and cell.num_faults == num_faults:
                return cell
        raise KeyError((algorithm, num_faults))

    def algorithms(self) -> List[str]:
        seen: Dict[str, None] = {}
        for cell in self.cells:
            seen.setdefault(cell.algorithm)
        return list(seen)

    def fault_counts(self) -> List[int]:
        return sorted({cell.num_faults for cell in self.cells})

    def overall_delivery_ratio(self, algorithm: str) -> float:
        """Aggregate delivery ratio across every fault count."""
        generated = delivered = 0
        for cell in self.cells:
            if cell.algorithm == algorithm:
                generated += cell.generated
                delivered += cell.delivered
        return delivered / generated if generated else 1.0

    def rows(self) -> List[str]:
        """Text report: one row per (algorithm, fault count) plus an
        aggregate row per algorithm."""
        lines = [
            f"# fault campaign: {self.topology} / {self.pattern}, "
            f"{self.trials} trial(s) per point, seed {self.seed}",
            f"# {'algorithm':<16s} {'links':>5s} {'ratio':>7s} "
            f"{'latency(us)':>11s} {'lost':>5s} {'killed':>6s} "
            f"{'retries':>7s}  drops by cause",
        ]
        for algorithm in self.algorithms():
            for count in self.fault_counts():
                cell = self.cell(algorithm, count)
                latency = cell.avg_latency_us
                lat = f"{latency:11.2f}" if latency is not None else "        n/a"
                causes = ",".join(
                    f"{cause}={n}" for cause, n in cell.drops_by_cause.items()
                ) or "-"
                lines.append(
                    f"  {algorithm:<16s} {count:5d} {cell.delivery_ratio:7.4f} "
                    f"{lat} {cell.dropped:5d} {cell.killed:6d} "
                    f"{cell.retried:7d}  {causes}"
                )
            lines.append(
                f"  {algorithm:<16s} {'all':>5s} "
                f"{self.overall_delivery_ratio(algorithm):7.4f}"
            )
        return lines

    def to_dict(self) -> Dict[str, object]:
        return {
            "topology": self.topology,
            "pattern": self.pattern,
            "trials": self.trials,
            "seed": self.seed,
            "cells": [cell.to_dict() for cell in self.cells],
            "overall": {
                algorithm: self.overall_delivery_ratio(algorithm)
                for algorithm in sorted(self.algorithms())
            },
        }


def campaign_specs(
    topology: str = "mesh:16x16",
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    pattern: str = "uniform",
    fault_counts: Sequence[int] = DEFAULT_FAULT_COUNTS,
    trials: int = 3,
    base_config: Optional[SimulationConfig] = None,
    seed: int = 0,
    fault_start: int = 0,
) -> List[Tuple[str, int, PointSpec]]:
    """The campaign grid as ``(algorithm, fault count, spec)`` rows, in
    the order :func:`run_fault_campaign` runs them.

    Fault plans are permanent link failures appearing at cycle
    ``fault_start`` (0 = present from the beginning; a mid-run start
    additionally kills in-flight worms), drawn per (fault count, trial)
    from :func:`plan_seed` — *not* per algorithm, so the comparison
    across algorithms is paired.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if any(count < 0 for count in fault_counts):
        raise ValueError("fault counts must be non-negative")
    if fault_start < 0:
        raise ValueError("fault_start must be non-negative")
    algorithms = list(dict.fromkeys(algorithms))
    topo = parse_topology_spec(topology)
    if base_config is None:
        base_config = campaign_config()
    rows: List[Tuple[str, int, PointSpec]] = []
    for count in dict.fromkeys(fault_counts):
        for trial in range(trials):
            plan = FaultPlan.random_links(
                topo, count, seed=plan_seed(seed, count, trial),
                start=fault_start,
            )
            config = replace(
                base_config,
                fault_plan=plan,
                seed=base_config.seed + 7_919 * trial,
            )
            for algorithm in algorithms:
                rows.append(
                    (algorithm, count, PointSpec(topology, algorithm, pattern, config))
                )
    return rows


def run_fault_campaign(
    topology: str = "mesh:16x16",
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    pattern: str = "uniform",
    fault_counts: Sequence[int] = DEFAULT_FAULT_COUNTS,
    trials: int = 3,
    base_config: Optional[SimulationConfig] = None,
    seed: int = 0,
    fault_start: int = 0,
    runner: Optional[ParallelSweepRunner] = None,
    progress: Optional[Callable[[SimulationResult], None]] = None,
) -> FaultCampaign:
    """Run the :func:`campaign_specs` grid and aggregate it into a
    :class:`FaultCampaign`."""
    algorithms = list(dict.fromkeys(algorithms))
    fault_counts = list(dict.fromkeys(fault_counts))
    rows = campaign_specs(
        topology, algorithms, pattern, fault_counts, trials, base_config,
        seed, fault_start,
    )
    if runner is None:
        runner = ParallelSweepRunner(jobs=1, cache=None)
    results = runner.run_points([spec for _, _, spec in rows], progress=progress)
    cells: Dict[tuple, FaultCell] = {}
    for (algorithm, count, _), result in zip(rows, results):
        key = (algorithm, count)
        if key not in cells:
            cells[key] = FaultCell(algorithm, count, [])
        cells[key].results.append(result)
    ordered = [
        cells[(algorithm, count)]
        for algorithm in algorithms
        for count in fault_counts
    ]
    return FaultCampaign(
        topology=topology,
        pattern=pattern,
        trials=trials,
        seed=seed,
        cells=ordered,
    )
