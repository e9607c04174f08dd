"""One entry point per paper artifact (the per-experiment index of
DESIGN.md).

Each ``figure*``/``table*``/``section*`` function regenerates the rows or
series behind that artifact.  Two presets control cost:

* ``FAST`` — reduced topology-faithful runs (same 256-node networks,
  shorter windows, fewer load points); seconds per figure.
* ``FULL`` — longer windows and denser load grids for smoother curves.

Absolute numbers are properties of our simulator, not of the authors'
hardware testbed; the *shape* comparisons (who wins, by what factor) are
what EXPERIMENTS.md tracks, over eight seeds of a denser preset
(``scripts/collect_experiments.py``, ``repro.analysis.claims``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.adaptiveness import pcube_choice_table
from ..routing.registry import HYPERCUBE_ALGORITHMS, MESH_ALGORITHMS
from ..simulation.config import SimulationConfig
from ..topology.hypercube import Hypercube
from ..traffic.patterns import (
    HypercubeTransposePattern,
    MeshTransposePattern,
    ReverseFlipPattern,
    UniformPattern,
)
from .runner import ParallelSweepRunner, parse_topology_spec, shared_algorithm
from .sweep import SweepSeries, compare_algorithms


@dataclass(frozen=True)
class ExperimentPreset:
    """Run-cost knobs shared by every figure harness."""

    warmup_cycles: int
    measure_cycles: int
    mesh_loads: Sequence[float]
    cube_loads: Sequence[float]
    seed: int = 7

    # Every other simulation knob (the ``figure`` CLI's flags land here;
    # the default reproduces the paper's fault-free xy runs).
    base: SimulationConfig = SimulationConfig()

    def config(self) -> SimulationConfig:
        return replace(
            self.base,
            warmup_cycles=self.warmup_cycles,
            measure_cycles=self.measure_cycles,
            seed=self.seed,
        )


FAST = ExperimentPreset(
    warmup_cycles=1_500,
    measure_cycles=4_000,
    mesh_loads=(0.5, 1.0, 1.5, 2.0),
    cube_loads=(1.0, 2.0, 3.0, 4.0),
)

FULL = ExperimentPreset(
    warmup_cycles=4_000,
    measure_cycles=12_000,
    mesh_loads=(0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5),
    cube_loads=(0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0),
)


MESH_FIGURE = ("mesh:16x16", MESH_ALGORITHMS)
"""Figures 13-14: the network and the four algorithms compared on it."""

CUBE_FIGURE = ("cube:8", HYPERCUBE_ALGORITHMS)
"""Figures 15-16: the network and the four algorithms compared on it."""


def _figure(
    network: Tuple[str, Sequence[str]],
    pattern: Callable,
    loads: Sequence[float],
    preset: ExperimentPreset,
    progress: Optional[Callable],
    runner: Optional[ParallelSweepRunner],
) -> List[SweepSeries]:
    """One figure's sweeps on the process-wide network objects, the ones
    every point of the run is built on too."""
    spec, names = network
    topology = parse_topology_spec(spec)
    return compare_algorithms(
        [shared_algorithm(name, topology) for name in names],
        pattern,
        loads,
        preset.config(),
        progress,
        runner=runner,
    )


def figure13_mesh_uniform(
    preset: ExperimentPreset = FAST,
    progress: Optional[Callable] = None,
    runner: Optional[ParallelSweepRunner] = None,
) -> List[SweepSeries]:
    """Figure 13: xy / WF / NL / NF under uniform traffic, 16x16 mesh."""
    return _figure(
        MESH_FIGURE, UniformPattern, preset.mesh_loads, preset, progress, runner
    )


def figure14_mesh_transpose(
    preset: ExperimentPreset = FAST,
    progress: Optional[Callable] = None,
    runner: Optional[ParallelSweepRunner] = None,
) -> List[SweepSeries]:
    """Figure 14: the same four algorithms under matrix-transpose."""
    return _figure(
        MESH_FIGURE, MeshTransposePattern, preset.mesh_loads, preset, progress, runner
    )


def figure15_cube_transpose(
    preset: ExperimentPreset = FAST,
    progress: Optional[Callable] = None,
    runner: Optional[ParallelSweepRunner] = None,
) -> List[SweepSeries]:
    """Figure 15: e-cube / ABONF / ABOPL / p-cube under the embedded
    matrix transpose, binary 8-cube."""
    return _figure(
        CUBE_FIGURE,
        HypercubeTransposePattern,
        preset.cube_loads,
        preset,
        progress,
        runner,
    )


def figure16_cube_reverse_flip(
    preset: ExperimentPreset = FAST,
    progress: Optional[Callable] = None,
    runner: Optional[ParallelSweepRunner] = None,
) -> List[SweepSeries]:
    """Figure 16: the same four algorithms under reverse-flip."""
    return _figure(
        CUBE_FIGURE, ReverseFlipPattern, preset.cube_loads, preset, progress, runner
    )


def section5_pcube_table() -> List:
    """The Section 5 walkthrough: p-cube choice counts on a 10-cube path
    from 1011010100 to 0010111001 via dimensions 2, 9, 6, 5, 0, 3."""
    cube = Hypercube(10)
    src = cube.node_from_address_str("1011010100")
    dst = cube.node_from_address_str("0010111001")
    return pcube_choice_table(cube, src, dst, [2, 9, 6, 5, 0, 3])


FIGURE_HARNESSES: Dict[str, Callable] = {
    "fig13": figure13_mesh_uniform,
    "fig14": figure14_mesh_transpose,
    "fig15": figure15_cube_transpose,
    "fig16": figure16_cube_reverse_flip,
}
