"""p-cube routing for hypercubes (Section 5, Figures 11 and 12).

p-cube is negative-first on the binary n-cube: with ``C`` the current
address and ``D`` the destination, Figure 11 routes along any dimension
with ``c_i = 1, d_i = 0`` (clearing a 1, the *negative* direction), and
once none remains along any with ``c_i = 0, d_i = 1``.  Both classes are
:class:`~.turn_restricted.TurnRestrictedMinimal` over the negative-first
set plus the n reversals ``-d_i -> +d_i``: a packet that cleared a bit
it must set again (only after a Figure 12 move) may set it at once, as
the bitwise rule does and negative-first's mesh form does not.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.turn_model import TurnModel
from ..core.turns import Turn
from ..topology.base import Direction, NEGATIVE, POSITIVE
from ..topology.hypercube import Hypercube
from .base import RoutingAlgorithm
from .turn_restricted import TurnRestrictedMinimal


class PCube(TurnRestrictedMinimal):
    """Minimal p-cube routing (Figure 11)."""

    def __init__(self, topology: Hypercube) -> None:
        n = topology.n_dims
        reversals = [
            Turn(Direction(i, NEGATIVE), Direction(i, POSITIVE))
            for i in range(n)
        ]
        model = TurnModel.from_prohibited(
            "p-cube", n, TurnModel.negative_first(n).prohibited, reversals
        )
        super().__init__(topology, model)

    def _validate_topology(self) -> None:
        if set(self.topology.dims) != {2}:
            raise ValueError("p-cube routing requires a binary hypercube")

    @property
    def name(self) -> str:
        return "p-cube"

    # Figure 11 routes minimally: no escapes.
    escape_candidates = RoutingAlgorithm.escape_candidates


class NonminimalPCube(PCube):
    """p-cube with Figure 12's nonminimal phase-1 extension: while some
    ``c_i = 1, d_i = 0`` remains, escape along dimensions with ``c_i =
    d_i = 1`` (negative moves off the shortest path, for adaptiveness and
    fault tolerance) — under p-cube's set, exactly the generic escapes."""

    @property
    def name(self) -> str:
        return "p-cube-nonminimal"

    @property
    def is_minimal(self) -> bool:
        return False

    def escape_candidates(
        self,
        current: int,
        dest: int,
        in_direction: Optional[Direction] = None,
    ) -> List[Direction]:
        if not current & ~dest:
            return []
        return TurnRestrictedMinimal.escape_candidates(
            self, current, dest, in_direction
        )
