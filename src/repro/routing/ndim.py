"""The paper's partially adaptive mesh algorithms: west-first and
north-last (Section 3), negative-first, ABONF and ABOPL (Section 4.1).

Each is :class:`~.turn_restricted.TurnRestrictedMinimal` over the set
:class:`repro.core.turn_model.TurnModel` builds for it.  Read as phases,
a packet routes adaptively among a first set of directions until none is
productive, then among the rest.  The first set is every negative
direction for negative-first; the negative directions of dimensions
``0 .. n-2`` for ABONF (*west-first* when n = 2); every negative
direction plus ``+d0`` for ABOPL (*north-last* when n = 2).
"""

from __future__ import annotations

from ..core.turn_model import TurnModel
from ..topology.base import Topology
from .base import require_mesh_dims
from .turn_restricted import TurnRestrictedMinimal


class NegativeFirst(TurnRestrictedMinimal):
    """Negative-first routing for n-dimensional meshes (and 2D meshes)."""

    def __init__(self, topology: Topology) -> None:
        super().__init__(topology, TurnModel.negative_first(topology.n_dims))

    @property
    def name(self) -> str:
        return "negative-first"


class AllButOneNegativeFirst(TurnRestrictedMinimal):
    """ABONF: negative directions of all dimensions but the last go first.
    The 2D special case is *west-first* (phase 1 = west)."""

    def __init__(self, topology: Topology) -> None:
        super().__init__(topology, TurnModel.west_first(topology.n_dims))

    def _validate_topology(self) -> None:
        if self.topology.n_dims < 2:
            raise ValueError("ABONF needs at least two dimensions")

    @property
    def name(self) -> str:
        return "west-first" if self.topology.n_dims == 2 else "abonf"


class AllButOnePositiveLast(TurnRestrictedMinimal):
    """ABOPL: every positive direction of dimensions ``1..n-1`` goes last.
    The 2D special case is *north-last* (phase 2 = north)."""

    def __init__(self, topology: Topology) -> None:
        super().__init__(topology, TurnModel.north_last(topology.n_dims))

    def _validate_topology(self) -> None:
        if self.topology.n_dims < 2:
            raise ValueError("ABOPL needs at least two dimensions")

    @property
    def name(self) -> str:
        return "north-last" if self.topology.n_dims == 2 else "abopl"


class WestFirst(AllButOneNegativeFirst):
    """West-first routing for 2D meshes (Section 3.1)."""

    def _validate_topology(self) -> None:
        require_mesh_dims(self.topology, 2)


class NorthLast(AllButOnePositiveLast):
    """North-last routing for 2D meshes (Section 3.2)."""

    def _validate_topology(self) -> None:
        require_mesh_dims(self.topology, 2)
