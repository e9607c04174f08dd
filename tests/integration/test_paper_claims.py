"""Integration tests for the paper's quantitative claims that are cheap
enough for the unit-test suite (the full-figure shape claims are floors
over the committed data, tests/analysis/test_claims.py).

Each test names the paper artifact it checks.
"""

import math
from fractions import Fraction

from repro.core import (
    TurnModel,
    average_adaptiveness_ratio,
    count_shortest_paths,
    s_negative_first,
    s_north_last,
    s_pcube,
    s_west_first,
    two_turn_prohibitions_2d,
)
from repro.routing import TurnRestrictedMinimal, mesh_algorithms
from repro.simulation import SimulationConfig, WormholeSimulator, detect_deadlock
from repro.topology import Hypercube, Mesh2D
from repro.traffic import UniformPattern
from repro.verification import turn_set_is_deadlock_free, verify_algorithm


class TestSection2:
    def test_theorem_1_quarter_of_turns(self):
        """Theorem 1 via Theorem 6: prohibiting the n(n-1) turns of the
        west-first, north-last or negative-first set is sufficient (CDG
        acyclic), and n(n-1) is a quarter of 4n(n-1)."""
        from repro.topology import Mesh

        for n, dims in ((2, (4, 4)), (3, (3, 3, 3)), (4, (2, 2, 2, 2))):
            for factory in (
                TurnModel.west_first,
                TurnModel.north_last,
                TurnModel.negative_first,
            ):
                model = factory(n)
                assert len(model.prohibited) == n * (n - 1)
                assert turn_set_is_deadlock_free(Mesh(dims), model), model.name

    def test_theorem_1_necessity_fewer_turns_deadlock(self):
        """Prohibiting fewer than one turn per abstract cycle cannot be
        deadlock free: every single-turn prohibition leaves a cycle."""
        from repro.core.turns import ninety_degree_turns

        mesh = Mesh2D(3, 3)
        for turn in ninety_degree_turns(2):
            model = TurnModel.from_prohibited("single", 2, {turn})
            assert not turn_set_is_deadlock_free(mesh, model)


class TestSection3:
    def test_twelve_of_sixteen(self):
        """Section 3: 12 of the 16 two-turn prohibitions prevent deadlock."""
        mesh = Mesh2D(4, 4)
        free = sum(
            1
            for pair in two_turn_prohibitions_2d()
            if turn_set_is_deadlock_free(
                mesh, TurnModel.from_prohibited("pair", 2, pair)
            )
        )
        assert free == 12

    def test_section_3_4_at_least_half_of_pairs_single_path(self):
        """'S_p = 1 for at least half of the source-destination pairs.'"""
        mesh = Mesh2D(6, 6)
        for formula in (s_west_first, s_north_last, s_negative_first):
            single = sum(
                1
                for s in mesh.nodes()
                for d in mesh.nodes()
                if s != d and formula(mesh, s, d) == 1
            )
            total = mesh.num_nodes * (mesh.num_nodes - 1)
            assert single >= total / 2 - mesh.num_nodes  # diagonal slack

    def test_section_3_4_average_ratio_above_half(self):
        mesh = Mesh2D(6, 6)
        for formula in (s_west_first, s_north_last, s_negative_first):
            assert average_adaptiveness_ratio(mesh, formula) > Fraction(1, 2)


class TestSection5:
    def test_pcube_36_shortest_paths_for_the_example(self):
        """'One of the 36 possible shortest paths is shown.'"""
        cube = Hypercube(10)
        src = cube.node_from_address_str("1011010100")
        dst = cube.node_from_address_str("0010111001")
        assert s_pcube(cube, src, dst) == 36

    def test_pcube_ratio_formula(self):
        """S_pcube / S_f = 1 / C(h, h1)."""
        cube = Hypercube(6)
        for src in (0b101010, 0b111000):
            for dst in (0b010101, 0b000111):
                if src == dst:
                    continue
                h = cube.hamming(src, dst)
                h1 = bin(src & ~dst).count("1")
                assert s_pcube(cube, src, dst) * math.comb(
                    h, h1
                ) == math.factorial(h)


class TestFigure1And4Dynamics:
    """The motivating deadlocks, reproduced live in the simulator."""

    def test_figure_1_scenario_deadlocks_without_turn_restrictions(self):
        mesh = Mesh2D(6, 6)
        anything_goes = TurnRestrictedMinimal(
            mesh, TurnModel.from_prohibited("none", 2, set())
        )
        config = SimulationConfig(
            offered_load=8.0,
            warmup_cycles=0,
            measure_cycles=40_000,
            deadlock_threshold=1_500,
            seed=2,
        )
        sim = WormholeSimulator(anything_goes, UniformPattern(mesh), config)
        result = sim.run()
        assert result.deadlock
        assert detect_deadlock(sim).deadlocked

    def test_safe_two_turn_prohibitions_never_deadlock_in_simulation(self):
        """Spot-check: simulate a safe non-paper prohibition (east-last:
        both turns out of east banned) at overload — no deadlock."""
        from repro.core import Turn
        from repro.topology import EAST, NORTH, SOUTH

        mesh = Mesh2D(6, 6)
        model = TurnModel.from_prohibited(
            "east-last", 2, {Turn(EAST, NORTH), Turn(EAST, SOUTH)}
        )
        assert turn_set_is_deadlock_free(mesh, model)
        algorithm = TurnRestrictedMinimal(mesh, model)
        assert verify_algorithm(algorithm).deadlock_free
        config = SimulationConfig(
            offered_load=6.0,
            warmup_cycles=0,
            measure_cycles=10_000,
            deadlock_threshold=1_500,
            seed=2,
        )
        result = WormholeSimulator(
            algorithm, UniformPattern(mesh), config
        ).run()
        assert not result.deadlock


class TestMaximalAdaptivenessExhaustive:
    def test_phase_algorithms_equal_maximal_relation_exhaustively(self):
        """The paper's three mesh algorithms *are* the maximal
        turn-restricted relation of their Figure 5a/9a/10a sets, and on a
        4x4 mesh that relation connects every (node, dest) pair.  Their
        rows equal those recorded from the hand-written phase algorithms
        (tests/routing/test_constructed_rows.py)."""
        mesh = Mesh2D(4, 4)
        factories = (
            TurnModel.west_first, TurnModel.north_last, TurnModel.negative_first
        )
        for algorithm, factory in zip(mesh_algorithms(mesh)[1:], factories):
            assert isinstance(algorithm, TurnRestrictedMinimal)
            assert algorithm.turn_model() == factory(2)
            for src in mesh.nodes():
                for dst in mesh.nodes():
                    if src == dst:
                        continue
                    counted = count_shortest_paths(
                        lambda a, b: algorithm.candidates(a, b), mesh, src, dst
                    )
                    assert counted >= 1, (
                        algorithm.name, mesh.coords(src), mesh.coords(dst)
                    )
