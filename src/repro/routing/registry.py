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


_CLASSED = frozenset(_FACTORIES.values())
#: The classes certified on a torus: their answers read only the
#: shorter-way-round offsets, the arrival direction and VC, and whether
#: the hop leaves from an edge.  Negative-first-torus and first-hop
#: wraparound read plain deltas and landing coordinates.
_TORUS_CLASSED = frozenset({DatelineDimensionOrder, EscapeVCAdaptive})


def offset_classed(algorithm: RoutingAlgorithm, num_vc: int = 1) -> bool:
    """Whether ``algorithm``'s answers at ``num_vc`` virtual channels
    depend only on the query kind, the arrival direction and VC, each
    dimension's offset to the destination clamped to ``-2..2`` and (for
    escapes, and for every query on a torus) which edges the node lies
    on — so :class:`~repro.routing.table.NetworkTables` may ask once per
    such key (:meth:`~repro.routing.table.NetworkTables.key`).

    True at any VC count for the registry's own classes, unmodified, on
    meshes and hypercubes, for :class:`TurnRestrictedMinimal` under any
    2D turn model (a minimal journey there needs at most two
    directions), and for :class:`DatelineDimensionOrder` and
    :class:`EscapeVCAdaptive` on a k-ary n-cube, where the offset is
    the torus one.  The equivalence suite checks every one of them
    against direct queries (``tests/routing/test_decision_keys.py``); a
    subclass, an instance override of a query the tables ask, or
    another topology or algorithm is not certified.
    """
    asked = {"candidates", "escape_candidates"}
    if num_vc > 1:  # the default ``vc_*`` queries call the two above
        asked |= {"vc_candidates", "vc_escape_candidates"}
    if asked & vars(algorithm).keys():
        return False
    kind = type(algorithm)
    topology = algorithm.topology
    shape = type(topology)
    if shape is KAryNCube:
        return kind in _TORUS_CLASSED
    if shape not in (Mesh, Mesh2D, Hypercube):
        return False
    return kind in _CLASSED or (
        kind is TurnRestrictedMinimal and topology.n_dims == 2
    )


def mesh_algorithms(topology: Topology) -> List[RoutingAlgorithm]:
    """The four algorithms the paper compares on the 16x16 mesh."""
    return [
        XY(topology),
        WestFirst(topology),
        NorthLast(topology),
        NegativeFirst(topology),
    ]


def hypercube_algorithms(topology: Hypercube) -> List[RoutingAlgorithm]:
    """The four algorithms the paper compares on the binary 8-cube.

    ABONF, ABOPL, and negative-first operate on the hypercube through the
    general n-dimensional mesh formulation (negative-first's hypercube
    special case is p-cube).
    """
    return [
        ECube(topology),
        AllButOneNegativeFirst(topology),
        AllButOnePositiveLast(topology),
        PCube(topology),
    ]


def torus_algorithms(topology: KAryNCube) -> List[RoutingAlgorithm]:
    """The Section 4.2 extensions plus a deterministic baseline."""
    return [
        FirstHopWraparound(topology),
        ClassifiedNegativeFirst(topology),
    ]
