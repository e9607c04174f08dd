"""Routing algorithms: the paper's partially adaptive turn-model
algorithms and the nonadaptive dimension-order baselines."""

from .base import RoutingAlgorithm, sort_canonical
from .dimension_order import DimensionOrder, ECube, XY
from .ndim import (
    AllButOneNegativeFirst,
    AllButOnePositiveLast,
    NegativeFirst,
    NorthLast,
    WestFirst,
)
from .paths import (
    RoutingDeadEnd,
    directions_of_path,
    enumerate_minimal_paths,
    path_channels,
    path_respects_turn_model,
    walk,
)
from .pcube import NonminimalPCube, PCube
from .registry import (
    algorithm_names,
    hypercube_algorithms,
    make_algorithm,
    mesh_algorithms,
    torus_algorithms,
)
from .selection import (
    CongestionView,
    EngineCongestionView,
    MaxFreeCredits,
    RoundRobin,
    SelectionPolicy,
    ThresholdReroute,
    XYPreference,
    make_selection_policy,
    selection_policy_names,
)
from .table import RoutingTable
from .torus import ClassifiedNegativeFirst, FirstHopWraparound, MeshRestriction
from .turn_restricted import TurnRestrictedMinimal
from .virtual import DatelineDimensionOrder, EscapeVCAdaptive

__all__ = [
    "AllButOneNegativeFirst",
    "AllButOnePositiveLast",
    "ClassifiedNegativeFirst",
    "CongestionView",
    "DatelineDimensionOrder",
    "DimensionOrder",
    "ECube",
    "EngineCongestionView",
    "EscapeVCAdaptive",
    "FirstHopWraparound",
    "MaxFreeCredits",
    "MeshRestriction",
    "NegativeFirst",
    "NonminimalPCube",
    "NorthLast",
    "PCube",
    "RoundRobin",
    "RoutingAlgorithm",
    "RoutingDeadEnd",
    "RoutingTable",
    "SelectionPolicy",
    "ThresholdReroute",
    "TurnRestrictedMinimal",
    "WestFirst",
    "XY",
    "XYPreference",
    "algorithm_names",
    "directions_of_path",
    "enumerate_minimal_paths",
    "hypercube_algorithms",
    "make_algorithm",
    "make_selection_policy",
    "mesh_algorithms",
    "path_channels",
    "path_respects_turn_model",
    "selection_policy_names",
    "sort_canonical",
    "torus_algorithms",
    "walk",
]
