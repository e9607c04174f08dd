"""Backend dispatch: one operating point to the engine its config names.

numpy-free: the array engine (and numpy with it) is imported only when
an ``"array"`` point is built, so an event-only process never loads it
(docs/PERFORMANCE.md, "Cold start").
"""

from __future__ import annotations

from .config import SimulationConfig
from .engine import WormholeSimulator


def make_simulator(
    algorithm,
    pattern,
    config: SimulationConfig,
    sink=None,
    profiler=None,
):
    """Build the simulator selected by ``config.backend``.

    ``"event"`` (default) is the event-driven engine; ``"array"`` is the
    numpy struct-of-arrays backend (requires the ``repro[array]``
    extra).  Both expose ``run() -> SimulationResult`` and are
    bit-identical per the cross-backend equivalence suite.
    """
    if config.backend == "array":
        from .array_engine import ArrayWormholeSimulator

        return ArrayWormholeSimulator(
            algorithm, pattern, config, sink=sink, profiler=profiler
        )
    return WormholeSimulator(algorithm, pattern, config, sink=sink, profiler=profiler)
