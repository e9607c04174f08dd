"""Output-selection policy comparison sweeps (docs/SELECTION.md).

The paper fixes output selection to the xy rule; :mod:`repro.routing.
selection` makes it pluggable.  This module measures what that buys: a
comparison grid over (policy x algorithm x traffic pattern x fault
plan), each cell a small load sweep, reporting saturation throughput,
low-load latency, and delivery ratio — plus deltas against the ``xy``
baseline policy, which is the results axis the paper never had.

Points route through the ordinary :class:`~repro.analysis.runner.
ParallelSweepRunner`/:class:`~repro.analysis.runner.ResultCache`
machinery — the selection policy and its threshold are
:class:`~repro.simulation.config.SimulationConfig` fields, so cache
keys cover them.  Fault plans are drawn once per comparison and shared
by every policy and algorithm, so the faulted halves are paired.  The
``repro selection`` CLI subcommand fronts :func:`run_selection_comparison`
(``repro selection --json`` writes the committed
``docs/data/selection_compare.json`` artifact).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..faults.plan import FaultPlan
from ..simulation.config import SimulationConfig
from ..simulation.metrics import SimulationResult
from ..simulation.selection import output_policy_names
from .runner import ParallelSweepRunner, PointSpec, parse_topology_spec

BASELINE_POLICY = "xy"
DEFAULT_POLICIES = ("xy", "round-robin", "max-credits", "threshold")
# Adaptive algorithms only: xy routing offers one candidate per hop, so
# every selection policy degenerates to it (a valid control, but not a
# default worth simulating).
DEFAULT_COMPARE_ALGORITHMS = ("west-first", "negative-first")
DEFAULT_COMPARE_PATTERNS = ("uniform", "transpose")
DEFAULT_COMPARE_LOADS = (0.6, 1.2, 2.0)


def comparison_config(
    offered_load: float = 1.0,
    warmup_cycles: int = 800,
    measure_cycles: int = 3_000,
    seed: int = 1,
    **overrides,
) -> SimulationConfig:
    """The default operating point for policy comparisons: windows long
    enough for saturation behaviour to separate the policies, short
    enough that the full grid runs in minutes on one core."""
    return SimulationConfig(
        offered_load=offered_load,
        warmup_cycles=warmup_cycles,
        measure_cycles=measure_cycles,
        seed=seed,
        **overrides,
    )


@dataclass
class SelectionSeries:
    """One (policy, algorithm, pattern, fault count) load sweep.

    Under the runner's ``keep_going`` mode a load point lost to a
    worker failure leaves ``None`` in :attr:`results`; the aggregates
    below skip the holes (docs/RESILIENCE.md)."""

    policy: str
    algorithm: str
    pattern: str
    num_faults: int
    loads: List[float]
    results: List[Optional[SimulationResult]]

    def completed(self) -> List[SimulationResult]:
        return [r for r in self.results if r is not None]

    @property
    def saturation_throughput(self) -> float:
        """Delivered throughput (flits/us) at the highest offered load
        — the classic saturation comparison point."""
        for r in reversed(self.results):
            if r is not None:
                return r.throughput_flits_per_us
        return 0.0

    @property
    def max_sustainable_throughput(self) -> float:
        sustainable = [r for r in self.completed() if r.sustainable]
        return max(
            (r.throughput_flits_per_us for r in sustainable), default=0.0
        )

    @property
    def low_load_latency_us(self) -> Optional[float]:
        """Average latency at the lowest offered load."""
        if not self.results or self.results[0] is None:
            return None
        return self.results[0].avg_latency_us

    @property
    def delivery_ratio(self) -> float:
        generated = sum(r.generated_packets for r in self.completed())
        delivered = sum(r.delivered_packets for r in self.completed())
        return delivered / generated if generated else 1.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "policy": self.policy,
            "algorithm": self.algorithm,
            "pattern": self.pattern,
            "num_faults": self.num_faults,
            "saturation_throughput_flits_per_us": self.saturation_throughput,
            "max_sustainable_throughput_flits_per_us": (
                self.max_sustainable_throughput
            ),
            "low_load_latency_us": self.low_load_latency_us,
            "delivery_ratio": self.delivery_ratio,
            "per_load": [
                {"failed": True}
                if r is None
                else {
                    "offered_load": r.offered_load,
                    "throughput_flits_per_us": r.throughput_flits_per_us,
                    "avg_latency_us": r.avg_latency_us,
                    "sustainable": r.sustainable,
                    "generated": r.generated_packets,
                    "delivered": r.delivered_packets,
                    "dropped": r.dropped_packets,
                }
                for r in self.results
            ],
        }


@dataclass
class SelectionComparison:
    """A full comparison: series over (policy x algorithm x pattern x
    fault plan), with deltas against the xy baseline policy."""

    topology: str
    loads: List[float]
    seed: int
    fault_links: int
    selection_threshold: int
    series: List[SelectionSeries]

    def groups(self) -> List[Tuple[str, str, int]]:
        """Ordered unique (algorithm, pattern, num_faults) groups."""
        seen: Dict[Tuple[str, str, int], None] = {}
        for s in self.series:
            seen.setdefault((s.algorithm, s.pattern, s.num_faults))
        return list(seen)

    def policies(self) -> List[str]:
        seen: Dict[str, None] = {}
        for s in self.series:
            seen.setdefault(s.policy)
        return list(seen)

    def cell(
        self, policy: str, algorithm: str, pattern: str, num_faults: int
    ) -> SelectionSeries:
        for s in self.series:
            if (
                s.policy == policy
                and s.algorithm == algorithm
                and s.pattern == pattern
                and s.num_faults == num_faults
            ):
                return s
        raise KeyError((policy, algorithm, pattern, num_faults))

    def deltas(self) -> List[Dict[str, object]]:
        """Per (group, non-baseline policy): deltas vs the xy cell."""
        out: List[Dict[str, object]] = []
        for algorithm, pattern, num_faults in self.groups():
            try:
                base = self.cell(BASELINE_POLICY, algorithm, pattern, num_faults)
            except KeyError:
                continue  # comparison run without the baseline policy
            for policy in self.policies():
                if policy == BASELINE_POLICY:
                    continue
                s = self.cell(policy, algorithm, pattern, num_faults)
                base_sat = base.saturation_throughput
                sat_delta_pct = (
                    (s.saturation_throughput - base_sat) / base_sat * 100.0
                    if base_sat
                    else None
                )
                lat_delta_pct = None
                if (
                    s.low_load_latency_us is not None
                    and base.low_load_latency_us
                ):
                    lat_delta_pct = (
                        (s.low_load_latency_us - base.low_load_latency_us)
                        / base.low_load_latency_us
                        * 100.0
                    )
                out.append(
                    {
                        "policy": policy,
                        "algorithm": algorithm,
                        "pattern": pattern,
                        "num_faults": num_faults,
                        "saturation_delta_pct": sat_delta_pct,
                        "low_load_latency_delta_pct": lat_delta_pct,
                        "delivery_ratio_delta": (
                            s.delivery_ratio - base.delivery_ratio
                        ),
                    }
                )
        return out

    def rows(self) -> List[str]:
        """Text report: one row per series, grouped, with deltas vs xy."""
        lines = [
            f"# selection-policy comparison: {self.topology}, "
            f"loads {','.join(f'{ld:g}' for ld in self.loads)}, "
            f"seed {self.seed}, fault plan: "
            + (f"{self.fault_links} link(s)" if self.fault_links else "none"),
            f"# {'policy':<12s} {'sat(fl/us)':>10s} {'sust(fl/us)':>11s} "
            f"{'latency(us)':>11s} {'ratio':>7s} {'vs xy':>8s}",
        ]
        for algorithm, pattern, num_faults in self.groups():
            faults = f", {num_faults} dead link(s)" if num_faults else ""
            lines.append(f"-- {algorithm} / {pattern}{faults}")
            base_sat = None
            try:
                base_sat = self.cell(
                    BASELINE_POLICY, algorithm, pattern, num_faults
                ).saturation_throughput
            except KeyError:
                pass
            for policy in self.policies():
                s = self.cell(policy, algorithm, pattern, num_faults)
                latency = s.low_load_latency_us
                lat = f"{latency:11.2f}" if latency is not None else "        n/a"
                if policy == BASELINE_POLICY or not base_sat:
                    vs = "       -"
                else:
                    pct = (s.saturation_throughput - base_sat) / base_sat * 100
                    vs = f"{pct:+7.1f}%"
                lines.append(
                    f"  {policy:<12s} {s.saturation_throughput:10.1f} "
                    f"{s.max_sustainable_throughput:11.1f} {lat} "
                    f"{s.delivery_ratio:7.4f} {vs}"
                )
        return lines

    def to_dict(self) -> Dict[str, object]:
        return {
            "topology": self.topology,
            "loads": list(self.loads),
            "seed": self.seed,
            "fault_links": self.fault_links,
            "selection_threshold": self.selection_threshold,
            "series": [s.to_dict() for s in self.series],
            "deltas_vs_xy": self.deltas(),
        }


def run_selection_comparison(
    topology: str = "mesh:16x16",
    algorithms: Sequence[str] = DEFAULT_COMPARE_ALGORITHMS,
    patterns: Sequence[str] = DEFAULT_COMPARE_PATTERNS,
    policies: Sequence[str] = DEFAULT_POLICIES,
    loads: Sequence[float] = DEFAULT_COMPARE_LOADS,
    base_config: Optional[SimulationConfig] = None,
    fault_links: int = 4,
    fault_seed: int = 0,
    fault_start: int = 0,
    selection_threshold: int = 2,
    runner: Optional[ParallelSweepRunner] = None,
    progress: Optional[Callable[[SimulationResult], None]] = None,
) -> SelectionComparison:
    """Run the comparison grid and aggregate it.

    Every policy faces the same traffic, seeds, and (when
    ``fault_links > 0``) the same single fault plan — the comparison is
    fully paired, so differences are attributable to selection alone.
    The faulted half gets watchdog/retry/drain knobs (unless the base
    config already sets them) so losses resolve instead of timing out.
    """
    policies = list(dict.fromkeys(policies))
    known = output_policy_names()
    unknown = sorted(set(policies) - set(known))
    if unknown:
        raise ValueError(
            f"unknown selection policies {unknown}; known: {known}"
        )
    if not policies:
        raise ValueError("policies must name at least one policy")
    if fault_links < 0:
        raise ValueError("fault_links must be non-negative")
    algorithms = list(dict.fromkeys(algorithms))
    patterns = list(dict.fromkeys(patterns))
    loads = list(loads)
    topo = parse_topology_spec(topology)
    if base_config is None:
        base_config = comparison_config()
    variants: List[Tuple[int, SimulationConfig]] = [(0, base_config)]
    if fault_links > 0:
        plan = FaultPlan.random_links(
            topo, fault_links, seed=fault_seed, start=fault_start
        )
        faulted = replace(
            base_config,
            fault_plan=plan,
            packet_timeout=base_config.packet_timeout or 800,
            max_retries=base_config.max_retries or 2,
            drain_cycles=base_config.drain_cycles or 2_000,
        )
        variants.append((fault_links, faulted))
    specs: List[PointSpec] = []
    index: List[Tuple[str, str, str, int]] = []
    for policy in policies:
        for algorithm in algorithms:
            for pattern in patterns:
                for num_faults, variant in variants:
                    config = variant.with_selection(
                        policy, selection_threshold
                    )
                    for load in loads:
                        specs.append(
                            PointSpec(
                                topology,
                                algorithm,
                                pattern,
                                config.with_load(load),
                            )
                        )
                        index.append((policy, algorithm, pattern, num_faults))
    if runner is None:
        runner = ParallelSweepRunner(jobs=1, cache=None)
    results = runner.run_points(specs, progress=progress)
    cells: Dict[Tuple[str, str, str, int], SelectionSeries] = {}
    for key, result in zip(index, results):
        series = cells.get(key)
        if series is None:
            policy, algorithm, pattern, num_faults = key
            series = cells[key] = SelectionSeries(
                policy=policy,
                algorithm=algorithm,
                pattern=pattern,
                num_faults=num_faults,
                loads=loads,
                results=[],
            )
        series.results.append(result)
    return SelectionComparison(
        topology=topology,
        loads=loads,
        seed=base_config.seed,
        fault_links=fault_links,
        selection_threshold=selection_threshold,
        series=list(cells.values()),
    )
