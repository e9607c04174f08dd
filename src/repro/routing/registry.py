"""Name-based construction of routing algorithms.

The benchmark harness and examples refer to algorithms by the short names
the paper uses (``xy``, ``e-cube``, ``west-first``, ``north-last``,
``negative-first``, ``abonf``, ``abopl``, ``p-cube``); this registry maps
those names to constructors for a given topology.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..topology.base import Topology
from ..topology.hypercube import Hypercube
from ..topology.mesh import Mesh, Mesh2D
from ..topology.torus import KAryNCube
from .base import RoutingAlgorithm
from .dimension_order import DimensionOrder, ECube, XY
from .ndim import (
    AllButOneNegativeFirst,
    AllButOnePositiveLast,
    NegativeFirst,
    NorthLast,
    WestFirst,
)
from .pcube import NonminimalPCube, PCube
from .torus import ClassifiedNegativeFirst, FirstHopWraparound
from .turn_restricted import TurnRestrictedMinimal
from .virtual import DatelineDimensionOrder, EscapeVCAdaptive

Factory = Callable[[Topology], RoutingAlgorithm]

_FACTORIES: Dict[str, Factory] = {
    "xy": XY,
    "e-cube": ECube,
    "ecube": ECube,
    "dimension-order": DimensionOrder,
    "west-first": WestFirst,
    "north-last": NorthLast,
    "negative-first": NegativeFirst,
    "nf": NegativeFirst,
    "abonf": AllButOneNegativeFirst,
    "abopl": AllButOnePositiveLast,
    "p-cube": PCube,
    "pcube": PCube,
    "p-cube-nonminimal": NonminimalPCube,
    "negative-first-torus": ClassifiedNegativeFirst,
    "negative-first+wrap1": FirstHopWraparound,
    # The virtual-channel extension algorithms (need virtual_channels>=2
    # in the simulation config).
    "dateline-dimension-order": DatelineDimensionOrder,
    "dateline": DatelineDimensionOrder,
    "escape-vc-adaptive": EscapeVCAdaptive,
}


def algorithm_names() -> List[str]:
    """Canonical registry names (aliases collapsed)."""
    seen = {}
    for name, factory in _FACTORIES.items():
        seen.setdefault(factory, name)
    return sorted(seen.values())


class UnknownAlgorithmError(KeyError, ValueError):
    """No registered algorithm has this name.  A ``KeyError`` (a registry
    lookup missed) and a ``ValueError`` (a bad name, like every other
    malformed point field)."""


def make_algorithm(name: str, topology: Topology) -> RoutingAlgorithm:
    """Build the named algorithm on ``topology``.

    Raises :class:`UnknownAlgorithmError` for unknown names and
    ``ValueError`` when the algorithm does not support the topology.
    """
    key = name.strip().lower()
    if key not in _FACTORIES:
        raise UnknownAlgorithmError(
            f"unknown routing algorithm {name!r}; known: {algorithm_names()}"
        )
    return _FACTORIES[key](topology)


#: The classes certified unmodified: the registry's and the generic
#: turn-model construction.  Negative-first-torus and first-hop
#: wraparound read plain deltas and landing coordinates, which no torus
#: offset class fixes.
_CLASSED = frozenset({*_FACTORIES.values(), TurnRestrictedMinimal}) - {
    ClassifiedNegativeFirst, FirstHopWraparound,
}


def offset_classed(algorithm: RoutingAlgorithm, num_vc: int = 1) -> bool:
    """Whether ``algorithm``'s answers at ``num_vc`` virtual channels
    depend only on the query kind, the arrival direction and VC, each
    dimension's offset to the destination clamped to ``-2..2`` (the
    torus offset on a torus) and, for escapes and every query on a
    torus, which edges the node lies on — so
    :class:`~repro.routing.table.NetworkTables` may ask once per such
    key (:meth:`~repro.routing.table.NetworkTables.key`).

    True, on a mesh, hypercube or k-ary n-cube and at any VC count, for
    an unmodified class of ``_CLASSED`` — except a
    :class:`TurnRestrictedMinimal` (registered or not) whose derived
    :attr:`~TurnRestrictedMinimal.clamp` exceeds 2, in any dimension.
    The equivalence suite checks them against direct queries
    (``tests/routing/test_decision_keys.py``); a subclass, an instance
    override of a query the tables ask, or another topology or
    algorithm is not certified.
    """
    asked = {"candidates", "escape_candidates"}
    if num_vc > 1:  # the default ``vc_*`` queries call the two above
        asked |= {"vc_candidates", "vc_escape_candidates"}
    if asked & vars(algorithm).keys():
        return False
    if type(algorithm.topology) not in (Mesh, Mesh2D, Hypercube, KAryNCube):
        return False
    if isinstance(algorithm, TurnRestrictedMinimal) and algorithm.clamp > 2:
        return False
    return type(algorithm) in _CLASSED


MESH_ALGORITHMS = ("xy", "west-first", "north-last", "negative-first")
"""The four algorithms the paper compares on the 16x16 mesh."""

HYPERCUBE_ALGORITHMS = ("e-cube", "abonf", "abopl", "p-cube")
"""The four algorithms the paper compares on the binary 8-cube.

ABONF, ABOPL, and negative-first operate on the hypercube through the
general n-dimensional mesh formulation (negative-first's hypercube
special case is p-cube).
"""


def mesh_algorithms(topology: Topology) -> List[RoutingAlgorithm]:
    """:data:`MESH_ALGORITHMS` built on ``topology``."""
    return [make_algorithm(name, topology) for name in MESH_ALGORITHMS]


def hypercube_algorithms(topology: Hypercube) -> List[RoutingAlgorithm]:
    """:data:`HYPERCUBE_ALGORITHMS` built on ``topology``."""
    return [make_algorithm(name, topology) for name in HYPERCUBE_ALGORITHMS]


def torus_algorithms(topology: KAryNCube) -> List[RoutingAlgorithm]:
    """The Section 4.2 extensions plus a deterministic baseline."""
    return [
        FirstHopWraparound(topology),
        ClassifiedNegativeFirst(topology),
    ]
