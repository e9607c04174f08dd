"""Maximal minimal-adaptive routing under an arbitrary turn model — the
one construction behind every turn-model algorithm here.

It offers every productive direction from which the journey can still
finish without a prohibited turn.  Over the paper's sets it *is*
west-first, north-last, negative-first, ABONF, ABOPL (:mod:`.ndim`) and
p-cube (:mod:`.pcube`); over a bad set (Figure 4) or none (Figure 1) the
simulator can drive it into real deadlock.

Without wraparound channels minimal paths stay inside their endpoints'
bounding box, so finishing depends only on the heading and the offset to
the destination — and only on each offset clamped to ``±(n + 1)``
(DESIGN.md section 8, "Turn-model tables").  The constructor derives the
algorithm's own exact clamp, :attr:`TurnRestrictedMinimal.clamp`, and
the search is memoised per clamped offset vector without touching the
topology.
"""

from __future__ import annotations

from itertools import product
from operator import sub
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.turn_model import TurnModel
from ..topology.base import Direction, Topology
from .base import RoutingAlgorithm
from .table import network_index

Offset = Tuple[int, ...]


def _clamped(offset: Iterable[int], clamp: int) -> Offset:
    return tuple(max(-clamp, min(clamp, x)) for x in offset)


class TurnRestrictedMinimal(RoutingAlgorithm):
    """Minimal adaptive routing confined to a turn model's allowed turns.

    ``escape_candidates`` is the generic nonminimal extension: every
    non-productive, turn-legal move into a state that still has a minimal
    candidate.  Deadlock freedom depends entirely on the supplied model:
    safe prohibition sets give deadlock-free routing, unsafe ones (like
    the Figure 4 pair) do not — which is the point.

    ``clamp`` is the smallest ``c`` such that every answer depends only
    on each dimension's offset clamped to ``-c..c``: 1 or 2 when one of
    them is exact over the box that decides it, else the box radius.
    """

    def __init__(self, topology: Topology, model: TurnModel) -> None:
        super().__init__(topology)
        if model.n_dims != topology.n_dims:
            raise ValueError(
                f"model covers {model.n_dims} dims, topology has "
                f"{topology.n_dims}"
            )
        index = network_index(topology)
        if any(c.wraparound for c in index.channels):
            raise ValueError(
                f"turn-model routing is not deadlock free across the "
                f"wraparound channels of {topology!r}; use "
                f"negative-first+wrap1, negative-first-torus or dateline"
            )
        self.model = model
        # Direction i is dimension i // 2, negative when i is even.  Bit
        # i of _after[h] allows direction i after heading h, as
        # ``model.is_allowed`` does; the last entry is injection.
        self._directions = directions = topology.directions()
        self._index = where = {d: i for i, d in enumerate((*directions, None))}
        everything = (1 << len(directions)) - 1
        after = [everything ^ 1 << (h ^ 1) for h in range(len(directions))]
        for turn in model.prohibited:
            after[where[turn.frm]] &= ~(1 << where[turn.to])
        for turn in model.allow_180:
            after[where[turn.frm]] |= 1 << where[turn.to]
        self._after = after + [everything]
        self._coords = index.coords
        # At the destination every arrival has finished.
        self._onward_memo: Dict[Offset, int] = {
            (0,) * topology.n_dims: self._after[-1]
        }
        # Offsets beyond n + 1 (or a side) answer as if clamped there, so
        # the box of that radius decides whether 1 or 2 is exact too
        # (DESIGN.md section 8).
        spans = [min(topology.n_dims + 1, k - 1) for k in topology.dims]
        self.clamp = max(spans)
        if self.clamp > 2:
            sides = [range(-s, s + 1) for s in spans]
            answers = list(map(self._onward, product(*sides)))
            memo = self._onward_memo
            self.clamp = next(
                (
                    c for c in (1, 2)
                    if answers == [
                        memo[v]
                        for v in product(*(_clamped(s, c) for s in sides))
                    ]
                ),
                self.clamp,
            )
        # ``_class[delta]`` is a coordinate delta clamped to the clamp,
        # -top < delta < top (negative deltas index from the end).
        top = max(topology.dims)
        self._class = _clamped((*range(top), *range(1 - top, 0)), self.clamp)

    @property
    def name(self) -> str:
        return f"turn-restricted({self.model.name})"

    def _offset(self, current: int, dest: int) -> Offset:
        """The clamped offset vector from ``current`` to ``dest``."""
        coords = self._coords
        return tuple(
            map(self._class.__getitem__, map(sub, coords[dest], coords[current]))
        )

    def _onward(self, offset: Offset) -> int:
        """Bitmask of the productive directions at ``offset`` after which
        the journey can still finish — the minimal candidates before the
        heading filter."""
        moves = self._onward_memo.get(offset)
        if moves is None:
            moves = 0
            for dim, x in enumerate(offset):
                if x:
                    i = 2 * dim + (x > 0)
                    # A productive hop closes the offset by one.
                    closer = (*offset[:dim], x - 1 if x > 0 else x + 1,
                              *offset[dim + 1:])
                    if self._onward(closer) & self._after[i]:
                        moves |= 1 << i
            self._onward_memo[offset] = moves
        return moves

    def candidates(
        self,
        current: int,
        dest: int,
        in_direction: Optional[Direction] = None,
    ) -> List[Direction]:
        if current == dest:
            return []
        moves = self._onward(self._offset(current, dest))
        moves &= self._after[self._index[in_direction]]
        return [d for i, d in enumerate(self._directions) if moves >> i & 1]

    def escape_candidates(
        self,
        current: int,
        dest: int,
        in_direction: Optional[Direction] = None,
    ) -> List[Direction]:
        offset = self._offset(current, dest)
        legal = self._after[self._index[in_direction]]
        out = []
        for i, d in enumerate(self._directions):
            x = offset[d.dim]
            # Never escape into a dead end — e.g. an eastward detour
            # under west-first creates westward work no legal turn can
            # reach.  A non-productive hop only grows the offset, so
            # clamping the clamped offset's successor is exact.
            if (
                x * d.sign <= 0 and legal >> i & 1
                and self.topology.neighbor(current, d) is not None
            ):
                farther = list(offset)
                farther[d.dim] = max(-self.clamp, min(self.clamp, x - d.sign))
                if self._onward(tuple(farther)) & self._after[i]:
                    out.append(d)
        return out

    def turn_model(self) -> TurnModel:
        return self.model
