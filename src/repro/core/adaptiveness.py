"""Degree of adaptiveness (Sections 3.4 and 5).

``S_algorithm`` counts the shortest paths an algorithm permits between a
source and a destination.  The paper gives closed forms for the fully
adaptive count, the three 2D partially adaptive algorithms, and p-cube;
this module implements them together with exhaustive path counters that
cross-check the formulas on concrete topologies, and the Section 5
choice-count walkthrough for the binary 10-cube.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..topology.base import Direction, Topology
from ..topology.hypercube import Hypercube


def multinomial(parts: Iterable[int]) -> int:
    """Number of ways to interleave moves: ``(sum parts)! / prod(part!)``."""
    parts = [int(p) for p in parts]
    if any(p < 0 for p in parts):
        raise ValueError(f"parts must be non-negative, got {parts}")
    total = math.factorial(sum(parts))
    for p in parts:
        total //= math.factorial(p)
    return total


def s_fully_adaptive(topology: Topology, src: int, dst: int) -> int:
    """``S_f``: shortest paths available to a fully adaptive algorithm."""
    deltas = [
        abs(topology.offset(src, dst, dim)) for dim in range(topology.n_dims)
    ]
    return multinomial(deltas)


def s_west_first(topology: Topology, src: int, dst: int) -> int:
    """Section 3.4: fully adaptive when the destination is not to the west."""
    _require_2d(topology)
    if topology.offset(src, dst, 0) >= 0:
        return s_fully_adaptive(topology, src, dst)
    return 1


def s_north_last(topology: Topology, src: int, dst: int) -> int:
    """Section 3.4: fully adaptive when the destination is not to the north."""
    _require_2d(topology)
    if topology.offset(src, dst, 1) <= 0:
        return s_fully_adaptive(topology, src, dst)
    return 1


def s_negative_first(topology: Topology, src: int, dst: int) -> int:
    """Section 3.4: fully adaptive when both offsets share a sign."""
    _require_2d(topology)
    dx = topology.offset(src, dst, 0)
    dy = topology.offset(src, dst, 1)
    if (dx <= 0 and dy <= 0) or (dx >= 0 and dy >= 0):
        return s_fully_adaptive(topology, src, dst)
    return 1


def s_negative_first_ndim(topology: Topology, src: int, dst: int) -> int:
    """n-dimensional negative-first: the negative moves interleave freely,
    then the positive moves interleave freely."""
    neg = [
        -topology.offset(src, dst, dim)
        for dim in range(topology.n_dims)
        if topology.offset(src, dst, dim) < 0
    ]
    pos = [
        topology.offset(src, dst, dim)
        for dim in range(topology.n_dims)
        if topology.offset(src, dst, dim) > 0
    ]
    return multinomial(neg) * multinomial(pos)


def s_pcube(cube: Hypercube, src: int, dst: int) -> int:
    """Section 5: ``S_pcube = h1! * h0!`` with ``h1 = |S & ~D|``,
    ``h0 = |~S & D|``."""
    h1 = bin(src & ~dst & ((1 << cube.order) - 1)).count("1")
    h0 = bin(~src & dst & ((1 << cube.order) - 1)).count("1")
    return math.factorial(h1) * math.factorial(h0)


def s_ecube(topology: Topology, src: int, dst: int) -> int:
    """Any deterministic dimension-order algorithm offers exactly one path."""
    return 0 if src == dst else 1


def pcube_ratio(cube: Hypercube, src: int, dst: int) -> Fraction:
    """``S_pcube / S_f = 1 / C(h, h1)`` (Section 5)."""
    h = cube.hamming(src, dst)
    if h == 0:
        return Fraction(1)
    return Fraction(s_pcube(cube, src, dst), math.factorial(h))


def average_adaptiveness_ratio(
    topology: Topology,
    s_partial: Callable[[Topology, int, int], int],
) -> Fraction:
    """Mean of ``S_p / S_f`` over all ordered source-destination pairs.

    Section 3.4 claims this exceeds 1/2 for the three 2D algorithms; the
    generalisation in Section 4.1 claims it exceeds ``1 / 2**(n-1)``.
    """
    total = Fraction(0)
    pairs = 0
    for src in topology.nodes():
        for dst in topology.nodes():
            if src == dst:
                continue
            sf = s_fully_adaptive(topology, src, dst)
            total += Fraction(s_partial(topology, src, dst), sf)
            pairs += 1
    return total / pairs


def count_shortest_paths(
    candidates: Callable[[int, int, Optional[Direction]], Sequence[Direction]],
    topology: Topology,
    src: int,
    dst: int,
) -> int:
    """Exhaustively count the minimal paths an algorithm permits.

    ``candidates(node, dst, heading)`` must return the output directions
    the algorithm allows at ``node`` for a packet arriving with
    ``heading`` (None at its source) — an algorithm's own
    ``candidates`` method.  Paths are counted over (node, heading)
    states, so a turn the algorithm prohibits is never taken; only
    distance-reducing moves are followed, so this counts shortest paths
    even for algorithms whose candidate sets include nonminimal options.
    """
    memo: Dict[Tuple[int, Optional[Direction]], int] = {}

    def paths_from(node: int, heading: Optional[Direction]) -> int:
        if node == dst:
            return 1
        if (node, heading) in memo:
            return memo[node, heading]
        here = topology.distance(node, dst)
        total = 0
        for direction in candidates(node, dst, heading):
            nbr = topology.neighbor(node, direction)
            if nbr is None:
                continue
            if topology.distance(nbr, dst) == here - 1:
                total += paths_from(nbr, direction)
        memo[node, heading] = total
        return total

    return paths_from(src, None)


@dataclass(frozen=True)
class ChoiceRow:
    """One row of the Section 5 walkthrough table."""

    address: str
    minimal_choices: int
    nonminimal_extra: int
    dimension_taken: Optional[int]
    phase: str


def pcube_choice_table(
    cube: Hypercube, src: int, dst: int, dimensions_taken: Sequence[int]
) -> List[ChoiceRow]:
    """Reproduce the Section 5 table: per-hop routing choices under p-cube.

    At each node ``C`` on the way to ``D``, phase 1 offers the dimensions
    with ``c_i = 1, d_i = 0`` (plus, nonminimally, those with
    ``c_i = 1, d_i = 1``); once phase 1 is exhausted, phase 2 offers the
    dimensions with ``c_i = 0, d_i = 1``.
    """
    mask = (1 << cube.order) - 1
    rows: List[ChoiceRow] = []
    current = src
    steps: List[Optional[int]] = list(dimensions_taken) + [None]
    for dim in steps:
        phase1 = current & ~dst & mask
        phase2 = ~current & dst & mask
        ones_shared = current & dst & mask
        if current == dst:
            rows.append(ChoiceRow(cube.address_str(current), 0, 0, None, "destination"))
            break
        if phase1:
            minimal = bin(phase1).count("1")
            extra = bin(ones_shared).count("1")
            phase = "phase 1" if current != src else "source"
        else:
            minimal = bin(phase2).count("1")
            extra = 0
            phase = "phase 2"
        rows.append(
            ChoiceRow(cube.address_str(current), minimal, extra, dim, phase)
        )
        if dim is None:
            raise ValueError(
                f"path ended at {cube.address_str(current)} before reaching "
                f"the destination {cube.address_str(dst)}"
            )
        if not ((phase1 >> dim) & 1 or (phase2 >> dim) & 1 or (ones_shared >> dim) & 1):
            raise ValueError(
                f"dimension {dim} is not a legal p-cube move at "
                f"{cube.address_str(current)}"
            )
        current ^= 1 << dim
    return rows


def _require_2d(topology: Topology) -> None:
    if topology.n_dims != 2:
        raise ValueError(
            f"this formula is for 2D meshes; topology has {topology.n_dims} dims"
        )
