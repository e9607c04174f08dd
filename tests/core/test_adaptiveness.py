"""Tests for Sections 3.4 and 5: degree-of-adaptiveness formulas.

The closed forms are cross-checked against exhaustive path enumeration of
the actual routing algorithms.
"""

import math
from fractions import Fraction

import pytest
from turn_reference import ExactTurnRouting, seeded_minimal_3d_sets

from repro.analysis.runner import parse_topology_spec
from repro.core import (
    average_adaptiveness_ratio,
    count_shortest_paths,
    multinomial,
    pcube_choice_table,
    pcube_ratio,
    s_ecube,
    s_fully_adaptive,
    s_negative_first,
    s_negative_first_ndim,
    s_north_last,
    s_pcube,
    s_west_first,
)
from repro.routing import (
    NegativeFirst,
    NorthLast,
    PCube,
    TurnRestrictedMinimal,
    WestFirst,
    enumerate_minimal_paths,
    path_respects_turn_model,
)
from repro.topology import Hypercube, Mesh2D


class TestMultinomial:
    def test_binomial_case(self):
        assert multinomial([3, 2]) == math.comb(5, 2)

    def test_single_dimension(self):
        assert multinomial([7]) == 1
        assert multinomial([]) == 1

    def test_three_way(self):
        assert multinomial([2, 2, 2]) == 90

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            multinomial([-1, 2])


class TestClosedForms2D:
    def setup_method(self):
        self.mesh = Mesh2D(8, 8)

    def pair(self, sx, sy, dx, dy):
        return self.mesh.node_xy(sx, sy), self.mesh.node_xy(dx, dy)

    def test_fully_adaptive_formula(self):
        src, dst = self.pair(1, 1, 4, 3)
        assert s_fully_adaptive(self.mesh, src, dst) == multinomial([3, 2])

    def test_west_first_east_destinations_fully_adaptive(self):
        src, dst = self.pair(2, 5, 5, 1)
        assert s_west_first(self.mesh, src, dst) == s_fully_adaptive(
            self.mesh, src, dst
        )

    def test_west_first_west_destinations_single_path(self):
        src, dst = self.pair(5, 2, 1, 6)
        assert s_west_first(self.mesh, src, dst) == 1

    def test_north_last_cases(self):
        south = self.pair(3, 6, 6, 2)
        north = self.pair(3, 2, 6, 6)
        assert s_north_last(self.mesh, *south) == s_fully_adaptive(
            self.mesh, *south
        )
        assert s_north_last(self.mesh, *north) == 1

    def test_negative_first_cases(self):
        both_neg = self.pair(5, 5, 2, 1)
        both_pos = self.pair(2, 1, 5, 5)
        mixed = self.pair(2, 5, 5, 1)
        assert s_negative_first(self.mesh, *both_neg) == s_fully_adaptive(
            self.mesh, *both_neg
        )
        assert s_negative_first(self.mesh, *both_pos) == s_fully_adaptive(
            self.mesh, *both_pos
        )
        assert s_negative_first(self.mesh, *mixed) == 1

    def test_ecube_formula(self):
        src, dst = self.pair(0, 0, 3, 3)
        assert s_ecube(self.mesh, src, dst) == 1
        assert s_ecube(self.mesh, src, src) == 0


class TestFormulasMatchEnumeration:
    """The closed forms must equal exhaustive counts over the real
    algorithms' candidate functions."""

    @pytest.mark.parametrize(
        "algorithm_cls,formula",
        [
            (WestFirst, s_west_first),
            (NorthLast, s_north_last),
            (NegativeFirst, s_negative_first),
        ],
    )
    def test_2d_all_pairs_on_5x5(self, algorithm_cls, formula):
        mesh = Mesh2D(5, 5)
        algorithm = algorithm_cls(mesh)
        for src in mesh.nodes():
            for dst in mesh.nodes():
                if src == dst:
                    continue
                counted = count_shortest_paths(
                    algorithm.candidates, mesh, src, dst
                )
                assert counted == formula(mesh, src, dst), (
                    f"{algorithm.name} mismatch for "
                    f"{mesh.coords(src)}->{mesh.coords(dst)}"
                )

    def test_pcube_matches_enumeration_on_5_cube(self):
        cube = Hypercube(5)
        algorithm = PCube(cube)
        for src in range(0, 32, 3):
            for dst in cube.nodes():
                if src == dst:
                    continue
                counted = count_shortest_paths(
                    algorithm.candidates, cube, src, dst
                )
                assert counted == s_pcube(cube, src, dst)

    def test_negative_first_ndim_consistent_with_2d(self):
        mesh = Mesh2D(6, 6)
        for src in (0, 7, 21):
            for dst in mesh.nodes():
                if src == dst:
                    continue
                assert s_negative_first_ndim(
                    mesh, src, dst
                ) == s_negative_first(mesh, src, dst) or s_negative_first(
                    mesh, src, dst
                ) == 1

    def test_pcube_ndim_formula(self):
        """S_pcube = h1! * h0! (Section 5)."""
        cube = Hypercube(10)
        src = cube.node_from_address_str("1011010100")
        dst = cube.node_from_address_str("0010111001")
        assert s_pcube(cube, src, dst) == math.factorial(3) * math.factorial(3)
        assert s_fully_adaptive(cube, src, dst) == math.factorial(6)
        assert pcube_ratio(cube, src, dst) == Fraction(1, math.comb(6, 3))


class TestHeadingAwareWalks:
    """Enumeration and counting walk (node, heading) states: a path takes
    only the turns its algorithm allows.  Under most minimal 3D turn sets
    a heading-blind walk finds turn-illegal paths and miscounts (the
    paper's named models happen to hide it)."""

    def test_minimal_3d_sets_on_a_3x3x3_mesh(self):
        mesh = parse_topology_spec("mesh:3x3x3")
        for model in seeded_minimal_3d_sets(40, 1):
            algorithm = TurnRestrictedMinimal(mesh, model)
            reference = ExactTurnRouting(model)
            for src in mesh.nodes():
                for dst in mesh.nodes():
                    if src == dst:
                        continue
                    paths = list(enumerate_minimal_paths(algorithm, src, dst))
                    for path in paths:
                        assert path_respects_turn_model(mesh, path, model), (
                            model, path
                        )
                    offset = tuple(
                        mesh.offset(src, dst, dim) for dim in range(3)
                    )
                    want = reference.count(offset)
                    assert len(paths) == want, (model, src, dst)
                    assert count_shortest_paths(
                        algorithm.candidates, mesh, src, dst
                    ) == want, (model, src, dst)


class TestAverageRatio:
    def test_section_3_4_claim_ratio_above_half(self):
        """Averaged over all pairs, S_p/S_f > 1/2 for each 2D algorithm."""
        mesh = Mesh2D(5, 5)
        for formula in (s_west_first, s_north_last, s_negative_first):
            ratio = average_adaptiveness_ratio(mesh, formula)
            assert ratio > Fraction(1, 2), formula.__name__

    def test_ratio_at_most_one(self):
        mesh = Mesh2D(4, 4)
        assert average_adaptiveness_ratio(mesh, s_west_first) <= 1

    def test_section_4_1_claim_on_hypercube(self):
        """S_p/S_f > 1/2**(n-1) for the n-dimensional generalisation."""
        cube = Hypercube(4)
        ratio = average_adaptiveness_ratio(
            cube, lambda topo, s, d: s_pcube(topo, s, d)
        )
        assert ratio > Fraction(1, 2 ** (cube.order - 1))


class TestSection5Table:
    def test_paper_walkthrough_exactly(self):
        """The Section 5 table: choices at each hop of the example path."""
        cube = Hypercube(10)
        src = cube.node_from_address_str("1011010100")
        dst = cube.node_from_address_str("0010111001")
        rows = pcube_choice_table(cube, src, dst, [2, 9, 6, 5, 0, 3])
        got = [
            (r.address, r.minimal_choices, r.nonminimal_extra, r.dimension_taken)
            for r in rows
        ]
        assert got == [
            ("1011010100", 3, 2, 2),
            ("1011010000", 2, 2, 9),
            ("0011010000", 1, 2, 6),
            ("0010010000", 3, 0, 5),
            ("0010110000", 2, 0, 0),
            ("0010110001", 1, 0, 3),
            ("0010111001", 0, 0, None),
        ]
        assert [r.phase for r in rows] == [
            "source", "phase 1", "phase 1",
            "phase 2", "phase 2", "phase 2", "destination",
        ]

    def test_illegal_move_rejected(self):
        cube = Hypercube(4)
        with pytest.raises(ValueError):
            pcube_choice_table(cube, 0b0000, 0b0001, [3, 0])

    def test_path_must_reach_destination(self):
        cube = Hypercube(4)
        with pytest.raises(ValueError):
            pcube_choice_table(cube, 0b1000, 0b0001, [3])
