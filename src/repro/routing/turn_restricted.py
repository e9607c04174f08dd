"""Maximal minimal-adaptive routing under an arbitrary turn model — the
one construction behind every turn-model algorithm here.

It offers every productive direction from which the journey can still
finish without a prohibited turn.  Over the paper's sets it *is*
west-first, north-last, negative-first, ABONF, ABOPL (:mod:`.ndim`) and
p-cube (:mod:`.pcube`); over a bad set (Figure 4) or none (Figure 1) the
simulator can drive it into real deadlock.

Without wraparound channels minimal paths stay inside their endpoints'
bounding box, so finishing depends only on the heading and the offset to
the destination.  The offsets are packed into one int (a digit of
``2k - 1`` values per dimension), a hop moves it by one stride, and the
search is memoised per packed offset without touching the topology.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..core.turn_model import TurnModel
from ..topology.base import Direction, Topology
from .base import RoutingAlgorithm
from .table import network_index


class TurnRestrictedMinimal(RoutingAlgorithm):
    """Minimal adaptive routing confined to a turn model's allowed turns.

    ``escape_candidates`` is the generic nonminimal extension: every
    non-productive, turn-legal move into a state that still has a minimal
    candidate.  Deadlock freedom depends entirely on the supplied model:
    safe prohibition sets give deadlock-free routing, unsafe ones (like
    the Figure 4 pair) do not — which is the point.
    """

    def __init__(self, topology: Topology, model: TurnModel) -> None:
        super().__init__(topology)
        if model.n_dims != topology.n_dims:
            raise ValueError(
                f"model covers {model.n_dims} dims, topology has "
                f"{topology.n_dims}"
            )
        if any(c.wraparound for c in network_index(topology).channels):
            raise ValueError(
                f"turn-model routing is not deadlock free across the "
                f"wraparound channels of {topology!r}; use "
                f"negative-first+wrap1, negative-first-torus or dateline"
            )
        self.model = model
        # Direction i is dimension i // 2, negative when i is even.  Bit
        # i of _after[h] allows direction i after heading h; the last
        # entry is injection (no heading).
        self._directions = directions = topology.directions()
        self._index = {d: i for i, d in enumerate((*directions, None))}
        self._after = [
            sum(1 << i for i, to in enumerate(directions)
                if model.is_allowed(frm, to))
            for frm in directions
        ] + [(1 << len(directions)) - 1]
        # Offset digit of dimension d: (dst_d - cur_d + k_d - 1) at
        # stride_d; a node's position is its coordinates at those strides.
        self._radices = [2 * k - 1 for k in topology.dims]
        strides = [1]
        for radix in self._radices[:-1]:
            strides.append(strides[-1] * radix)
        self._home = sum(s * (k - 1) for s, k in zip(strides, topology.dims))
        self._pos = [
            sum(c * s for c, s in zip(topology.coords(node), strides))
            for node in topology.nodes()
        ]
        # Moving in direction i changes the offset by -sign.
        self._steps = [-d.sign * strides[d.dim] for d in directions]
        # At the destination every arrival has finished.
        self._onward_memo: Dict[int, int] = {self._home: self._after[-1]}

    @property
    def name(self) -> str:
        return f"turn-restricted({self.model.name})"

    def _code(self, current: int, dest: int) -> int:
        return self._pos[dest] - self._pos[current] + self._home

    def _productive(self, code: int) -> Iterator[int]:
        """Indices of the productive directions at packed offset ``code``."""
        for dim, radix in enumerate(self._radices):
            code, digit = divmod(code, radix)
            bias = radix // 2
            if digit != bias:
                yield 2 * dim + (digit > bias)

    def _onward(self, code: int) -> int:
        """Bitmask of the productive directions at packed offset ``code``
        after which the journey can still finish — the minimal candidates
        before the heading filter."""
        moves = self._onward_memo.get(code)
        if moves is None:
            moves = 0
            for i in self._productive(code):
                if self._onward(code + self._steps[i]) & self._after[i]:
                    moves |= 1 << i
            self._onward_memo[code] = moves
        return moves

    def candidates(
        self,
        current: int,
        dest: int,
        in_direction: Optional[Direction] = None,
    ) -> List[Direction]:
        if current == dest:
            return []
        moves = self._onward(self._code(current, dest))
        moves &= self._after[self._index[in_direction]]
        return [d for i, d in enumerate(self._directions) if moves >> i & 1]

    def escape_candidates(
        self,
        current: int,
        dest: int,
        in_direction: Optional[Direction] = None,
    ) -> List[Direction]:
        code = self._code(current, dest)
        productive = set(self._productive(code))
        legal = self._after[self._index[in_direction]]
        # Never escape into a dead end — e.g. an eastward detour under
        # west-first creates westward work no legal turn can reach.
        return [
            d for i, d in enumerate(self._directions)
            if i not in productive and legal >> i & 1
            and self.topology.neighbor(current, d) is not None
            and self._onward(code + self._steps[i]) & self._after[i]
        ]

    def turn_model(self) -> TurnModel:
        return self.model
