"""Property-based tests for routing-algorithm invariants.

The heart of the suite: every paper algorithm, on randomly drawn
topologies and node pairs, must deliver, stay minimal, respect its turn
model, and — for every 2D turn model — be *maximally adaptive*
(identical to the routing relation enumerated by brute force)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TurnModel
from repro.core.cycles import two_turn_prohibitions_2d
from repro.core.turns import Turn
from repro.routing import (
    AllButOneNegativeFirst,
    AllButOnePositiveLast,
    DimensionOrder,
    NegativeFirst,
    PCube,
    TurnRestrictedMinimal,
    WestFirst,
    NorthLast,
    XY,
    directions_of_path,
    path_respects_turn_model,
    walk,
)
from repro.topology import Direction, Hypercube, Mesh, Mesh2D


MESH_ALGOS = [XY, WestFirst, NorthLast, NegativeFirst]


@st.composite
def mesh_case(draw):
    m = draw(st.integers(2, 8))
    n = draw(st.integers(2, 8))
    topo = Mesh2D(m, n)
    src = draw(st.integers(0, topo.num_nodes - 1))
    dst = draw(st.integers(0, topo.num_nodes - 1))
    seed = draw(st.integers(0, 2 ** 16))
    return topo, src, dst, seed


@st.composite
def mesh3d_case(draw):
    dims = tuple(draw(st.integers(2, 4)) for _ in range(3))
    topo = Mesh(dims)
    src = draw(st.integers(0, topo.num_nodes - 1))
    dst = draw(st.integers(0, topo.num_nodes - 1))
    seed = draw(st.integers(0, 2 ** 16))
    return topo, src, dst, seed


@st.composite
def cube_case(draw):
    n = draw(st.integers(2, 8))
    topo = Hypercube(n)
    src = draw(st.integers(0, topo.num_nodes - 1))
    dst = draw(st.integers(0, topo.num_nodes - 1))
    seed = draw(st.integers(0, 2 ** 16))
    return topo, src, dst, seed


class TestDeliveryAndMinimality:
    @given(mesh_case())
    def test_2d_algorithms_deliver_minimally(self, case):
        topo, src, dst, seed = case
        if src == dst:
            return
        rng = random.Random(seed)
        for alg_cls in MESH_ALGOS:
            path = walk(alg_cls(topo), src, dst, rng=rng)
            assert path[-1] == dst
            assert len(path) - 1 == topo.distance(src, dst)

    @given(mesh3d_case())
    def test_3d_algorithms_deliver_minimally(self, case):
        topo, src, dst, seed = case
        if src == dst:
            return
        rng = random.Random(seed)
        for alg_cls in (
            DimensionOrder,
            AllButOneNegativeFirst,
            AllButOnePositiveLast,
            NegativeFirst,
        ):
            path = walk(alg_cls(topo), src, dst, rng=rng)
            assert len(path) - 1 == topo.distance(src, dst)

    @given(cube_case())
    def test_pcube_delivers_minimally(self, case):
        topo, src, dst, seed = case
        if src == dst:
            return
        path = walk(PCube(topo), src, dst, rng=random.Random(seed))
        assert len(path) - 1 == topo.hamming(src, dst)


class TestTurnDiscipline:
    @given(mesh_case())
    def test_paths_respect_turn_models(self, case):
        topo, src, dst, seed = case
        if src == dst:
            return
        rng = random.Random(seed)
        for alg_cls in (WestFirst, NorthLast, NegativeFirst):
            alg = alg_cls(topo)
            path = walk(alg, src, dst, rng=rng)
            assert path_respects_turn_model(topo, path, alg.turn_model())

    @given(mesh_case())
    def test_candidates_always_productive_for_minimal_algorithms(self, case):
        topo, src, dst, seed = case
        if src == dst:
            return
        for alg_cls in MESH_ALGOS:
            alg = alg_cls(topo)
            productive = set(topo.productive_directions(src, dst))
            assert set(alg.candidates(src, dst)) <= productive

    @given(cube_case())
    def test_pcube_never_reverses(self, case):
        topo, src, dst, seed = case
        if src == dst:
            return
        path = walk(PCube(topo), src, dst, rng=random.Random(seed))
        dims_taken = [d.dim for d in directions_of_path(topo, path)]
        assert len(set(dims_taken)) == len(dims_taken)


def _turn_legal(model, heading, direction):
    """Straight on, or a 90-degree turn the model does not prohibit."""
    return heading is None or direction == heading or (
        direction.dim != heading.dim
        and Turn(heading, direction) not in model.prohibited
    )


def _completable(model, heading, steps):
    """Whether the unit steps ``steps`` (direction -> count) can be taken
    in some order, arriving with ``heading``, without a prohibited turn:
    a plain depth-first search over the orderings."""
    remaining = [d for d, count in steps.items() if count]
    if not remaining:
        return True
    for direction in remaining:
        if _turn_legal(model, heading, direction):
            steps[direction] -= 1
            found = _completable(model, direction, steps)
            steps[direction] += 1
            if found:
                return True
    return False


def _brute_force_candidates(topo, model, current, dst, heading):
    """The maximally adaptive candidate set, by enumeration: every
    productive direction that is turn-legal after ``heading`` and begins
    some turn-legal ordering of the remaining unit steps."""
    steps = {}
    for dim, (here, there) in enumerate(zip(topo.coords(current), topo.coords(dst))):
        if here != there:
            steps[Direction(dim, 1 if there > here else -1)] = abs(there - here)
    expected = set()
    for direction in steps:
        if _turn_legal(model, heading, direction):
            steps[direction] -= 1
            if _completable(model, direction, steps):
                expected.add(direction)
            steps[direction] += 1
    return expected


class TestMaximalAdaptiveness:
    """The paper's central claim: the turn-model algorithms are
    *maximally adaptive* — they permit every minimal path the prohibition
    set allows.  Their candidate sets are compared, along random legal
    walks, with the relation enumerated by brute force (which shares no
    code with the clamped-offset search behind ``TurnRestrictedMinimal``)."""

    @given(mesh_case())
    @settings(max_examples=40)
    def test_west_first_equals_turn_restricted(self, case):
        topo, src, dst, seed = case
        self._check(topo, WestFirst(topo), TurnModel.west_first(), src, dst, seed)

    @given(mesh_case())
    @settings(max_examples=40)
    def test_north_last_equals_turn_restricted(self, case):
        topo, src, dst, seed = case
        self._check(topo, NorthLast(topo), TurnModel.north_last(), src, dst, seed)

    @given(mesh_case())
    @settings(max_examples=40)
    def test_negative_first_equals_turn_restricted(self, case):
        topo, src, dst, seed = case
        self._check(
            topo, NegativeFirst(topo), TurnModel.negative_first(), src, dst, seed
        )

    @given(mesh_case())
    @settings(max_examples=40)
    def test_every_two_turn_model_equals_brute_force(self, case):
        # All 16 one-turn-per-cycle prohibition sets, the 4 that can
        # deadlock included: maximality is a property of the search,
        # not of the three named models.
        topo, src, dst, seed = case
        for i, prohibited in enumerate(two_turn_prohibitions_2d()):
            model = TurnModel.from_prohibited(f"two-turn-{i}", 2, prohibited)
            algorithm = TurnRestrictedMinimal(topo, model)
            self._check(topo, algorithm, model, src, dst, seed)

    def _check(self, topo, algorithm, model, src, dst, seed):
        if src == dst:
            return
        rng = random.Random(seed)
        # Compare candidate sets along a random legal walk.
        current, heading = src, None
        while current != dst:
            ours = algorithm.candidates(current, dst, heading)
            expected = _brute_force_candidates(topo, model, current, dst, heading)
            assert len(ours) == len(set(ours)) and set(ours) == expected, (
                f"{model.name} at {topo.coords(current)} heading {heading}: "
                f"{ours} != {sorted(expected)}"
            )
            if not ours:
                # No legal ordering at all (only possible at the source,
                # where both turns between its two directions are banned).
                assert heading is None
                return
            direction = rng.choice(ours)
            current = topo.neighbor(current, direction)
            heading = direction
