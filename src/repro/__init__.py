"""repro — a reproduction of Glass & Ni, *The Turn Model for Adaptive
Routing*.

The package provides:

* :mod:`repro.topology` — n-dimensional meshes, k-ary n-cubes, hypercubes;
* :mod:`repro.core` — the turn model itself: turns, abstract cycles,
  prohibition sets, executable channel-numbering proofs, and the
  degree-of-adaptiveness analysis;
* :mod:`repro.routing` — xy / e-cube baselines and the partially adaptive
  algorithms (west-first, north-last, negative-first, ABONF, ABOPL,
  p-cube, torus extensions);
* :mod:`repro.verification` — Dally-Seitz channel-dependency-graph
  deadlock-freedom checking and connectivity reports;
* :mod:`repro.simulation` — a flit-level wormhole network simulator with
  the paper's router microarchitecture;
* :mod:`repro.traffic` — uniform, matrix-transpose, and reverse-flip
  workloads (plus extras);
* :mod:`repro.analysis` — load sweeps, saturation search, and one harness
  per paper figure/table;
* :mod:`repro.faults` — deterministic fault-injection plans, runtime
  fault state, and fault-aware routing wrappers (see docs/FAULTS.md);
* :mod:`repro.observability` — flit-level event tracing, streaming
  channel/router metrics collectors, and engine phase profiling (see
  docs/OBSERVABILITY.md).

Quickstart::

    from repro import Mesh2D, WestFirst, verify_algorithm
    mesh = Mesh2D(16, 16)
    algorithm = WestFirst(mesh)
    assert verify_algorithm(algorithm).deadlock_free

    from repro import SimulationConfig, UniformPattern, WormholeSimulator
    sim = WormholeSimulator(
        algorithm, UniformPattern(mesh), SimulationConfig(offered_load=1.0)
    )
    result = sim.run()
    print(result.avg_latency_us, result.throughput_flits_per_us)
"""

from .core import (
    Turn,
    TurnModel,
    pcube_choice_table,
    s_fully_adaptive,
    s_negative_first,
    s_north_last,
    s_pcube,
    s_west_first,
)
from .routing import (
    AllButOneNegativeFirst,
    AllButOnePositiveLast,
    ClassifiedNegativeFirst,
    DatelineDimensionOrder,
    DimensionOrder,
    EscapeVCAdaptive,
    ECube,
    FirstHopWraparound,
    NegativeFirst,
    NonminimalPCube,
    NorthLast,
    PCube,
    RoutingAlgorithm,
    WestFirst,
    XY,
    make_algorithm,
)
from .faults import (
    FaultAwareRouting,
    FaultEvent,
    FaultPlan,
    FaultState,
)
from .observability import (
    JsonlTraceSink,
    ListSink,
    PhaseProfiler,
    TraceEvent,
)
from .simulation import (
    SimulationConfig,
    SimulationResult,
    WormholeSimulator,
    detect_deadlock,
    make_simulator,
)
from .topology import (
    Channel,
    Direction,
    Hypercube,
    KAryNCube,
    Mesh,
    Mesh2D,
    Topology,
)
from .traffic import (
    HypercubeTransposePattern,
    MeshTransposePattern,
    ReverseFlipPattern,
    TrafficPattern,
    UniformPattern,
)
from .verification import (
    fault_tolerance,
    generate_certificate,
    verify_algorithm,
    verify_escape_discipline,
    verify_turn_set,
    verify_vc_algorithm,
)

__version__ = "1.0.0"

__all__ = [
    "AllButOneNegativeFirst",
    "AllButOnePositiveLast",
    "ArrayWormholeSimulator",
    "BatchSimulator",
    "Channel",
    "ClassifiedNegativeFirst",
    "DatelineDimensionOrder",
    "DimensionOrder",
    "Direction",
    "ECube",
    "EscapeVCAdaptive",
    "FaultAwareRouting",
    "FaultEvent",
    "FaultPlan",
    "FaultState",
    "FirstHopWraparound",
    "Hypercube",
    "HypercubeTransposePattern",
    "JsonlTraceSink",
    "KAryNCube",
    "ListSink",
    "Mesh",
    "Mesh2D",
    "MeshTransposePattern",
    "NegativeFirst",
    "NonminimalPCube",
    "NorthLast",
    "PCube",
    "PhaseProfiler",
    "ReverseFlipPattern",
    "RoutingAlgorithm",
    "SimulationConfig",
    "SimulationResult",
    "Topology",
    "TraceEvent",
    "TrafficPattern",
    "Turn",
    "TurnModel",
    "UniformPattern",
    "WestFirst",
    "WormholeSimulator",
    "XY",
    "detect_deadlock",
    "fault_tolerance",
    "generate_certificate",
    "make_algorithm",
    "make_simulator",
    "numpy_available",
    "pcube_choice_table",
    "s_fully_adaptive",
    "s_negative_first",
    "s_north_last",
    "s_pcube",
    "s_west_first",
    "verify_algorithm",
    "verify_escape_discipline",
    "verify_turn_set",
    "verify_vc_algorithm",
]

#: The array-backend exports import numpy: resolved on first access
#: (PEP 562), so ``import repro`` does not load numpy.
_ARRAY_NAMES = ("ArrayWormholeSimulator", "BatchSimulator", "numpy_available")


def __getattr__(name: str):
    if name in _ARRAY_NAMES:
        from . import simulation

        return getattr(simulation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_ARRAY_NAMES))
