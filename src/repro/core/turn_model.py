"""The turn model itself (Section 2, Steps 1-6).

A :class:`TurnModel` is a set of *prohibited* 90-degree turns for an
n-dimensional mesh (optionally with 180-degree turn and wraparound rules).
It knows how to check the paper's structural claims about itself —
whether it breaks every abstract cycle (necessary for deadlock freedom),
and whether it prohibits exactly the minimum ``n(n-1)`` turns (maximal
adaptiveness, Theorems 1 and 6).

Factories build the prohibition sets behind each algorithm in the paper:

* :func:`TurnModel.xy` / dimension-order — prohibits every turn from a
  higher dimension to a lower one (half of all turns; Figure 3).
* :func:`TurnModel.west_first` — prohibits the two turns *to* ``-d0``
  (Figure 5a) and, in n dimensions, every turn from outside into a
  negative direction of dimensions ``0..n-2`` (all-but-one-negative-first).
* :func:`TurnModel.north_last` — prohibits the two turns *from* ``+d1``
  (Figure 9a) and, in n dimensions, every turn out of a positive direction
  of dimensions ``1..n-1`` except into that same set's ordering
  (all-but-one-positive-last).
* :func:`TurnModel.negative_first` — prohibits every turn from a positive
  direction to a negative direction (Figure 10a).

The concrete deadlock-freedom verdict for an arbitrary prohibition set is
delivered by the channel-dependency-graph check in
:mod:`repro.verification.cdg`; the turn model's structural checks here are
the necessary conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Optional

from ..topology.base import Direction, NEGATIVE, POSITIVE, all_directions
from .cycles import breaks_all_abstract_cycles, minimum_prohibited_turns
from .turns import Turn, TurnKind, ninety_degree_turns


@dataclass(frozen=True)
class TurnModel:
    """A named set of prohibited turns for an n-dimensional mesh.

    ``allow_180`` lists the reversal turns incorporated by Step 6 (the
    west-first proof's Figure 8c admits one such turn for nonminimal
    routing); by default no reversals are allowed.
    """

    name: str
    n_dims: int
    prohibited: FrozenSet[Turn]
    allow_180: FrozenSet[Turn] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        for turn in self.prohibited:
            if turn.kind is not TurnKind.NINETY:
                raise ValueError(
                    f"prohibition sets contain 90-degree turns only, got {turn!r}"
                )
            if max(turn.frm.dim, turn.to.dim) >= self.n_dims:
                raise ValueError(f"{turn!r} out of range for {self.n_dims} dims")
        for turn in self.allow_180:
            if turn.kind is not TurnKind.ONE_EIGHTY:
                raise ValueError(
                    f"allow_180 contains 180-degree turns only, got {turn!r}"
                )

    # -- queries -----------------------------------------------------------

    def is_allowed(self, frm: Direction, to: Direction) -> bool:
        """Whether a packet travelling in ``frm`` may next travel in ``to``."""
        turn = Turn(frm, to)
        kind = turn.kind
        if kind is TurnKind.STRAIGHT:
            return True
        if kind is TurnKind.ONE_EIGHTY:
            return turn in self.allow_180
        return turn not in self.prohibited

    def allowed_turns(self) -> List[Turn]:
        """The permitted 90-degree turns, in canonical order."""
        return [
            t for t in ninety_degree_turns(self.n_dims)
            if t not in self.prohibited
        ]

    def allowed_next_directions(self, frm: Optional[Direction]) -> List[Direction]:
        """Directions reachable from heading ``frm`` (all, when injecting)."""
        dirs = all_directions(self.n_dims)
        if frm is None:
            return dirs
        return [d for d in dirs if self.is_allowed(frm, d)]

    # -- structural checks (the paper's theorems) ---------------------------

    def breaks_all_cycles(self) -> bool:
        """Necessary condition: one prohibited turn per abstract cycle."""
        return breaks_all_abstract_cycles(self.n_dims, self.prohibited)

    def is_minimal_prohibition(self) -> bool:
        """Whether exactly ``n(n-1)`` turns are prohibited (Theorems 1/6)."""
        return len(self.prohibited) == minimum_prohibited_turns(self.n_dims)

    def prohibited_fraction(self) -> float:
        """Fraction of the ``4n(n-1)`` turns prohibited (1/4 when maximal)."""
        total = len(ninety_degree_turns(self.n_dims))
        return len(self.prohibited) / total

    # -- factories for the paper's prohibition sets --------------------------

    @staticmethod
    def from_prohibited(
        name: str,
        n_dims: int,
        prohibited: Iterable[Turn],
        allow_180: Iterable[Turn] = (),
    ) -> "TurnModel":
        return TurnModel(
            name=name,
            n_dims=n_dims,
            prohibited=frozenset(prohibited),
            allow_180=frozenset(allow_180),
        )

    @staticmethod
    def xy(n_dims: int = 2) -> "TurnModel":
        """Dimension-order routing: no turns from a higher to a lower dim.

        For 2D this is the xy algorithm's four-turn prohibition
        (Figure 3); for hypercubes it corresponds to e-cube.
        """
        prohibited = {
            t for t in ninety_degree_turns(n_dims) if t.frm.dim > t.to.dim
        }
        name = "xy" if n_dims == 2 else f"dimension-order-{n_dims}d"
        return TurnModel.from_prohibited(name, n_dims, prohibited)

    @staticmethod
    def west_first(n_dims: int = 2) -> "TurnModel":
        """West-first / all-but-one-negative-first prohibition set.

        Phase 1 travels the negative directions of dimensions ``0..n-2``;
        no turn may *enter* one of those directions, so every
        ``Turn(frm, to)`` with ``to`` negative and ``to.dim != n-1`` is
        prohibited — except turns from another phase-1 direction, which
        keep phase 1 adaptive.  For ``n == 2`` this is exactly Figure 5a:
        the two turns into west are prohibited.
        """
        first_phase = {
            Direction(dim, NEGATIVE) for dim in range(n_dims - 1)
        }
        prohibited = {
            t
            for t in ninety_degree_turns(n_dims)
            if t.to in first_phase and t.frm not in first_phase
        }
        name = "west-first" if n_dims == 2 else f"abonf-{n_dims}d"
        return TurnModel.from_prohibited(name, n_dims, prohibited)

    @staticmethod
    def north_last(n_dims: int = 2) -> "TurnModel":
        """North-last / all-but-one-positive-last prohibition set.

        Phase 2 travels the positive directions of dimensions ``1..n-1``;
        no turn may *leave* one of those directions back into phase 1, so
        every ``Turn(frm, to)`` with ``frm`` in phase 2 and ``to`` outside
        it is prohibited.  For ``n == 2`` this is exactly Figure 9a: the
        two turns out of north are prohibited.
        """
        last_phase = {
            Direction(dim, POSITIVE) for dim in range(1, n_dims)
        }
        prohibited = {
            t
            for t in ninety_degree_turns(n_dims)
            if t.frm in last_phase and t.to not in last_phase
        }
        name = "north-last" if n_dims == 2 else f"abopl-{n_dims}d"
        return TurnModel.from_prohibited(name, n_dims, prohibited)

    @staticmethod
    def negative_first(n_dims: int = 2) -> "TurnModel":
        """Negative-first prohibition set: no positive-to-negative turns
        (Figure 10a in 2D; Section 4.1 in n dimensions)."""
        prohibited = {
            t
            for t in ninety_degree_turns(n_dims)
            if t.frm.is_positive and t.to.is_negative
        }
        return TurnModel.from_prohibited(
            "negative-first" if n_dims == 2 else f"negative-first-{n_dims}d",
            n_dims,
            prohibited,
        )

    def __repr__(self) -> str:
        return (
            f"TurnModel({self.name!r}, n_dims={self.n_dims}, "
            f"prohibits {len(self.prohibited)}/{len(ninety_degree_turns(self.n_dims))} turns)"
        )


PAPER_TURN_MODELS_2D = (
    TurnModel.xy(),
    TurnModel.west_first(),
    TurnModel.north_last(),
    TurnModel.negative_first(),
)
