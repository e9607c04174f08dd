"""Tests for TurnRestrictedMinimal: maximal minimal-adaptive routing
under an arbitrary prohibition set."""

import itertools
import random

import pytest
from turn_reference import (
    assert_matches_exact_reference, seeded_minimal_3d_sets,
)

from repro.analysis.runner import parse_topology_spec
from repro.core import Turn, TurnModel, two_turn_prohibitions_2d
from repro.core.turns import ninety_degree_turns
from repro.routing import TurnRestrictedMinimal, walk
from repro.routing.registry import offset_classed
from repro.routing.table import NetworkTables
from repro.topology import EAST, Mesh2D, NORTH, SOUTH, WEST
from repro.topology.base import POSITIVE, Direction
from repro.verification import verify_algorithm

# The paper's agreement with the hand-written phase algorithms is pinned
# by recorded rows in test_constructed_rows.py.


class TestArbitraryModels:
    def test_empty_prohibition_is_fully_adaptive(self):
        mesh = Mesh2D(5, 5)
        maximal = TurnRestrictedMinimal(
            mesh, TurnModel.from_prohibited("none", 2, set())
        )
        src, dst = mesh.node_xy(1, 1), mesh.node_xy(3, 4)
        assert set(maximal.candidates(src, dst)) == {EAST, NORTH}

    def test_prunes_moves_that_lead_to_dead_ends(self):
        """Under west-first prohibitions, a packet must not start north
        when westward work remains — north can never re-enter west."""
        mesh = Mesh2D(5, 5)
        maximal = TurnRestrictedMinimal(mesh, TurnModel.west_first())
        src, dst = mesh.node_xy(3, 1), mesh.node_xy(1, 3)
        assert maximal.candidates(src, dst) == [WEST]

    def test_bad_model_loses_connectivity(self):
        """The Figure 4 pair leaves some pairs without any minimal path."""
        mesh = Mesh2D(4, 4)
        bad = TurnModel.from_prohibited(
            "figure-4", 2, {Turn(EAST, NORTH), Turn(NORTH, EAST)}
        )
        alg = TurnRestrictedMinimal(mesh, bad)
        assert alg.candidates(mesh.node_xy(0, 0), mesh.node_xy(1, 1)) == []

    def test_respects_heading_filter(self):
        mesh = Mesh2D(5, 5)
        maximal = TurnRestrictedMinimal(mesh, TurnModel.north_last())
        # Travelling north, continuing north is legal...
        src, straight_up = mesh.node_xy(2, 2), mesh.node_xy(2, 4)
        assert maximal.candidates(src, straight_up, NORTH) == [NORTH]
        # ...but a destination needing east as well is unreachable from a
        # northbound heading (north-last prohibits both turns out of
        # north), and the maximal relation correctly reports a dead end.
        assert maximal.candidates(src, mesh.node_xy(3, 3), NORTH) == []

    def test_memoisation_is_stable(self):
        mesh = Mesh2D(6, 6)
        maximal = TurnRestrictedMinimal(mesh, TurnModel.negative_first())
        src, dst = mesh.node_xy(4, 1), mesh.node_xy(1, 4)
        first = maximal.candidates(src, dst)
        second = maximal.candidates(src, dst)
        assert first == second

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TurnRestrictedMinimal(Mesh2D(4, 4), TurnModel.negative_first(3))

    def test_name_mentions_model(self):
        alg = TurnRestrictedMinimal(Mesh2D(3, 3), TurnModel.xy())
        assert "xy" in alg.name


class TestSafetyOfSafeModels:
    def test_all_safe_two_turn_models_route_and_verify(self):
        """Every safe two-turn prohibition yields a deadlock-free,
        connected-where-possible routing function."""
        from repro.verification import turn_set_is_deadlock_free

        mesh = Mesh2D(4, 4)
        rng = random.Random(1)
        for pair in two_turn_prohibitions_2d():
            model = TurnModel.from_prohibited("pair", 2, pair)
            if not turn_set_is_deadlock_free(mesh, model):
                continue
            alg = TurnRestrictedMinimal(mesh, model)
            assert verify_algorithm(alg).deadlock_free
            for _ in range(40):
                src, dst = rng.randrange(16), rng.randrange(16)
                if src == dst:
                    continue
                if alg.candidates(src, dst):
                    path = walk(alg, src, dst, rng=rng)
                    assert len(path) - 1 == mesh.distance(src, dst)


#: The four one-turn-per-cycle sets that are not deadlock free: each
#: prohibits a turn and its mirror, leaving the complementary cycle
#: pair intact (Section 3).  Escapes change none of these verdicts: they
#: are the ones minimal routing alone gives.
UNSAFE_TWO_TURN_SETS = [
    {Turn(EAST, NORTH), Turn(NORTH, EAST)},
    {Turn(WEST, NORTH), Turn(NORTH, WEST)},
    {Turn(WEST, SOUTH), Turn(SOUTH, WEST)},
    {Turn(EAST, SOUTH), Turn(SOUTH, EAST)},
]


class TestGenericEscapes:
    """``escape_candidates`` on every one-turn-per-cycle 2D set."""

    @pytest.mark.parametrize("k", [4, 5])
    def test_escape_contract_on_every_two_turn_set(self, k):
        mesh = Mesh2D(k, k)
        headings = [None, *mesh.directions()]
        for pair in two_turn_prohibitions_2d():
            model = TurnModel.from_prohibited("pair", 2, pair)
            alg = TurnRestrictedMinimal(mesh, model)
            for node in mesh.nodes():
                for dest in mesh.nodes():
                    productive = mesh.productive_directions(node, dest)
                    for heading in headings:
                        for d in alg.escape_candidates(node, dest, heading):
                            assert d not in productive
                            assert heading is None or model.is_allowed(
                                heading, d
                            )
                            nbr = mesh.neighbor(node, d)
                            assert nbr is not None
                            assert alg.candidates(nbr, dest, d)
            assert verify_algorithm(alg).deadlock_free == (
                pair not in UNSAFE_TWO_TURN_SETS
            ), sorted(pair)

    def test_escapes_exist_and_respect_the_set(self):
        """West-first may detour north or south around a blocked east
        hop, but never off its westward leg: only a prohibited turn
        could bring the packet back to heading west."""
        mesh = Mesh2D(5, 5)
        alg = TurnRestrictedMinimal(mesh, TurnModel.west_first())
        src = mesh.node_xy(2, 2)
        assert alg.escape_candidates(src, mesh.node_xy(4, 2)) == [
            SOUTH, NORTH,
        ]
        assert alg.escape_candidates(src, mesh.node_xy(0, 2)) == []


PAPER_MODELS = {
    2: [TurnModel.xy(), TurnModel.west_first(), TurnModel.north_last(),
        TurnModel.negative_first()],
    **{
        n: [TurnModel.xy(n), TurnModel.negative_first(n),
            TurnModel.west_first(n), TurnModel.north_last(n)]
        for n in (3, 4)
    },
}


def star_model():
    """5D: ``+d0`` is a hub, and the only legal turns are between it and
    the four other positive directions.  Reaching all five from
    injection then takes three separate runs of ``+d0``."""
    hub = Direction(0, POSITIVE)
    return TurnModel.from_prohibited("star", 5, [
        t for t in ninety_degree_turns(5)
        if hub not in (t.frm, t.to) or t.frm.sign < 0 or t.to.sign < 0
    ])


class TestDerivedClamp:
    """``clamp``: the offset radius each answer reads, derived per
    algorithm over the box of radius ``min(n + 1, k - 1)``."""

    @pytest.mark.parametrize("spec", ["mesh:9x9", "mesh:5x5x5", "mesh:6x6x6x6"])
    def test_the_paper_models_read_only_the_sign(self, spec):
        topology = parse_topology_spec(spec)
        for model in PAPER_MODELS[topology.n_dims]:
            algorithm = TurnRestrictedMinimal(topology, model)
            assert algorithm.clamp == 1, model
            assert offset_classed(algorithm), model

    def test_no_box_when_every_span_is_at_most_two(self):
        """Offsets of at most 2 are their own classes: nothing to derive."""
        for spec, clamp in (("cube:8", 1), ("mesh:3x3x3", 2), ("mesh:3x2", 2)):
            topology = parse_topology_spec(spec)
            algorithm = TurnRestrictedMinimal(
                topology, TurnModel.negative_first(topology.n_dims)
            )
            assert algorithm.clamp == clamp
            assert len(algorithm._onward_memo) == 1  # the destination

    def test_the_memo_is_the_box_whatever_the_mesh(self):
        for side in (8, 16):
            mesh = Mesh2D(side, side)
            algorithm = TurnRestrictedMinimal(mesh, TurnModel.west_first())
            for node, dest in itertools.product(mesh.nodes(), repeat=2):
                algorithm.candidates(node, dest)
                algorithm.escape_candidates(node, dest)
            assert len(algorithm._onward_memo) == 7 * 7

    def test_seeded_minimal_3d_sets_match_the_exact_reference(self):
        """64 of the 4,096 one-turn-per-cycle 3D sets, both clamps among
        them: every answer on mesh:5x5x5 equals the unclamped search."""
        topology = parse_topology_spec("mesh:5x5x5")
        clamps = []
        for model in seeded_minimal_3d_sets(64, seed=15):
            algorithm = TurnRestrictedMinimal(topology, model)
            assert_matches_exact_reference(algorithm)
            assert offset_classed(algorithm)
            clamps.append(algorithm.clamp)
        assert sorted(set(clamps)) == [1, 2]

    def test_a_model_needing_three_runs_is_not_certified(self):
        topology = parse_topology_spec("mesh:4x4x4x4x4")
        algorithm = TurnRestrictedMinimal(topology, star_model())
        assert algorithm.clamp == 3
        assert not offset_classed(algorithm)
        assert not NetworkTables(algorithm)._classed
        origin = topology.node_at([0] * 5)
        hub_runs = [
            algorithm.candidates(origin, topology.node_at([hub, 1, 1, 1, 1]))
            for hub in (2, 3)
        ]
        assert hub_runs == [[], [Direction(d, POSITIVE) for d in range(1, 5)]]
