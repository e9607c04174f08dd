"""Tests for the channel-dependency-graph deadlock verifier.

These encode the paper's central structural results: the paper's
algorithms are deadlock free on their topologies; exactly 12 of the 16
two-turn prohibitions prevent deadlock (Section 3); and the Figure 4
six-turn configuration allows deadlock even though each abstract cycle is
broken.
"""

import pytest

from repro.core import Turn, TurnModel, two_turn_prohibitions_2d
from repro.routing import (
    hypercube_algorithms,
    mesh_algorithms,
    torus_algorithms,
)
from repro.topology import (
    EAST,
    Hypercube,
    KAryNCube,
    Mesh,
    Mesh2D,
    NORTH,
    SOUTH,
    WEST,
)
from repro.verification import (
    turn_set_is_deadlock_free,
    verify_algorithm,
    verify_turn_set,
)


class TestPaperAlgorithmsAreDeadlockFree:
    @pytest.mark.parametrize("shape", [(4, 4), (5, 3)])
    def test_mesh_suite(self, shape):
        mesh = Mesh2D(*shape)
        for alg in mesh_algorithms(mesh):
            verdict = verify_algorithm(alg)
            assert verdict.deadlock_free, f"{alg.name}: {verdict.cycle}"

    def test_cube_suite(self):
        cube = Hypercube(4)
        for alg in hypercube_algorithms(cube):
            assert verify_algorithm(alg).deadlock_free, alg.name

    def test_torus_suite(self):
        torus = KAryNCube(5, 2)
        for alg in torus_algorithms(torus):
            assert verify_algorithm(alg).deadlock_free, alg.name

    def test_3d_mesh_suite(self):
        from repro.routing import (
            AllButOneNegativeFirst,
            AllButOnePositiveLast,
            DimensionOrder,
            NegativeFirst,
        )

        mesh = Mesh((3, 3, 3))
        for alg in (
            DimensionOrder(mesh),
            AllButOneNegativeFirst(mesh),
            AllButOnePositiveLast(mesh),
            NegativeFirst(mesh),
        ):
            assert verify_algorithm(alg).deadlock_free, alg.name

    def test_verdict_reports_sizes(self):
        mesh = Mesh2D(3, 3)
        verdict = verify_algorithm(mesh_algorithms(mesh)[0])
        assert verdict.num_channels == mesh.num_channels()
        assert verdict.num_dependencies > 0
        assert bool(verdict) is True


class TestTurnSetVerification:
    def test_exactly_12_of_16_two_turn_prohibitions_are_deadlock_free(self):
        """Section 3: 'Of the 16 different ways to prohibit these two
        turns, 12 prevent deadlock.'"""
        mesh = Mesh2D(4, 4)
        free = [
            pair
            for pair in two_turn_prohibitions_2d()
            if turn_set_is_deadlock_free(
                mesh, TurnModel.from_prohibited("pair", 2, pair)
            )
        ]
        assert len(free) == 12

    def test_the_paper_prohibitions_are_among_the_safe_ones(self):
        mesh = Mesh2D(4, 4)
        for model in (
            TurnModel.west_first(),
            TurnModel.north_last(),
            TurnModel.negative_first(),
        ):
            assert turn_set_is_deadlock_free(mesh, model), model.name

    def test_figure_4_configuration_allows_deadlock(self):
        """Figure 4: prohibiting a turn and its inverse (one from each
        abstract cycle) leaves both cycles realisable — the three
        remaining left turns emulate the prohibited right turn."""
        mesh = Mesh2D(4, 4)
        model = TurnModel.from_prohibited(
            "figure-4", 2, {Turn(EAST, NORTH), Turn(NORTH, EAST)}
        )
        assert model.breaks_all_cycles()  # one turn from each abstract cycle
        verdict = verify_turn_set(mesh, model)
        assert not verdict.deadlock_free
        assert verdict.cycle  # a concrete witness is produced

    def test_the_four_bad_pairs_are_the_mutually_inverse_ones(self):
        """The 16 - 12 = 4 deadlocking prohibitions are exactly those
        that ban a turn together with its inverse."""
        mesh = Mesh2D(4, 4)
        bad = {
            frozenset(pair)
            for pair in two_turn_prohibitions_2d()
            if not turn_set_is_deadlock_free(
                mesh, TurnModel.from_prohibited("pair", 2, pair)
            )
        }
        expected = {
            frozenset({Turn(a, b), Turn(b, a)})
            for a, b in [
                (EAST, NORTH), (NORTH, WEST), (WEST, SOUTH), (SOUTH, EAST),
            ]
        }
        assert bad == expected

    def test_no_prohibitions_allows_deadlock(self):
        """Figure 1: with every turn allowed, circular waits exist."""
        mesh = Mesh2D(3, 3)
        model = TurnModel.from_prohibited("anything-goes", 2, set())
        assert not turn_set_is_deadlock_free(mesh, model)

    def test_xy_turn_set_is_deadlock_free_even_nonminimally(self):
        mesh = Mesh2D(4, 4)
        assert turn_set_is_deadlock_free(mesh, TurnModel.xy())

    def test_witness_cycle_is_a_real_dependency_cycle(self):
        mesh = Mesh2D(4, 4)
        model = TurnModel.from_prohibited("none", 2, set())
        verdict = verify_turn_set(mesh, model)
        cycle = verdict.cycle
        for c1, c2 in zip(cycle, cycle[1:] + cycle[:1]):
            assert c1.dst == c2.src
            assert model.is_allowed(c1.direction, c2.direction)

    def test_symmetry_classes_of_safe_pairs(self):
        """Section 3: the 12 safe prohibitions reduce to 3 up to symmetry.

        The dihedral symmetries of the square (rotations and reflections)
        act on prohibition pairs; the 12 safe pairs form exactly 3 orbits
        of 4 — the west-first, north-last, and negative-first shapes.
        """
        from repro.topology import Direction

        def rotate_90(d):
            # (x, y) -> (-y, x): +x -> +y, +y -> -x, -x -> -y, -y -> +x.
            if d.dim == 0:
                return Direction(1, d.sign)
            return Direction(0, -d.sign)

        def reflect_x(d):
            return Direction(d.dim, -d.sign) if d.dim == 0 else d

        def map_pair(pair, f):
            return frozenset(Turn(f(t.frm), f(t.to)) for t in pair)

        mesh = Mesh2D(4, 4)
        safe = {
            frozenset(pair)
            for pair in two_turn_prohibitions_2d()
            if turn_set_is_deadlock_free(
                mesh, TurnModel.from_prohibited("pair", 2, pair)
            )
        }
        orbits = []
        remaining = set(safe)
        while remaining:
            orbit = {next(iter(remaining))}
            changed = True
            while changed:
                changed = False
                for member in list(orbit):
                    for f in (rotate_90, reflect_x):
                        image = map_pair(member, f)
                        if image not in orbit:
                            orbit.add(image)
                            changed = True
            assert orbit <= safe  # symmetry preserves deadlock freedom
            orbits.append(orbit)
            remaining -= orbit
        assert sorted(len(o) for o in orbits) == [4, 4, 4]
        # Each paper algorithm's prohibition set seeds a distinct orbit.
        paper = [
            frozenset(TurnModel.west_first().prohibited),
            frozenset(TurnModel.north_last().prohibited),
            frozenset(TurnModel.negative_first().prohibited),
        ]
        for pair in paper:
            assert sum(1 for o in orbits if pair in o) == 1
        assert len({id(o) for p in paper for o in orbits if p in o}) == 3
