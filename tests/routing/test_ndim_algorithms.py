"""Tests for the n-dimensional algorithms: ABONF, ABOPL, negative-first
(Section 4.1)."""

import random

import pytest

from repro.routing import (
    AllButOneNegativeFirst,
    AllButOnePositiveLast,
    NegativeFirst,
    walk,
    path_respects_turn_model,
)
from repro.topology import Direction, Hypercube, Mesh


MESH_3D = Mesh((4, 4, 4))


def assert_phase_rule(alg, phase1):
    """Every candidate set is the productive ``phase1`` directions while
    any exist, then every productive direction."""
    for src in MESH_3D.nodes():
        for dst in MESH_3D.nodes():
            productive = set(MESH_3D.productive_directions(src, dst))
            first = productive & phase1
            assert set(alg.candidates(src, dst)) == (first or productive)


class TestABONF:
    def setup_method(self):
        self.alg = AllButOneNegativeFirst(MESH_3D)

    def test_phase1_is_negatives_of_all_but_last_dim(self):
        assert_phase_rule(self.alg, {Direction(0, -1), Direction(1, -1)})

    def test_negative_last_dim_deferred_to_phase2(self):
        src = MESH_3D.node_at((2, 2, 2))
        dst = MESH_3D.node_at((1, 1, 1))  # negative in all three dims
        cands = self.alg.candidates(src, dst)
        assert set(cands) == {Direction(0, -1), Direction(1, -1)}

    def test_phase2_adaptive_among_rest(self):
        src = MESH_3D.node_at((1, 1, 2))
        dst = MESH_3D.node_at((2, 2, 1))  # +0, +1, -2: all phase 2
        cands = self.alg.candidates(src, dst)
        assert set(cands) == {
            Direction(0, +1), Direction(1, +1), Direction(2, -1),
        }

    def test_paths_minimal_and_turn_legal(self):
        model = self.alg.turn_model()
        rng = random.Random(3)
        for _ in range(200):
            src = rng.randrange(MESH_3D.num_nodes)
            dst = rng.randrange(MESH_3D.num_nodes)
            if src == dst:
                continue
            path = walk(self.alg, src, dst, rng=rng)
            assert len(path) - 1 == MESH_3D.distance(src, dst)
            assert path_respects_turn_model(MESH_3D, path, model)

    def test_needs_two_dimensions(self):
        with pytest.raises(ValueError):
            AllButOneNegativeFirst(Mesh((4,)))


class TestABOPL:
    def setup_method(self):
        self.alg = AllButOnePositiveLast(MESH_3D)

    def test_phase1_includes_positive_dim0(self):
        assert_phase_rule(
            self.alg,
            {Direction(0, -1), Direction(1, -1), Direction(2, -1),
             Direction(0, +1)},
        )

    def test_positive_high_dims_deferred(self):
        src = MESH_3D.node_at((1, 1, 1))
        dst = MESH_3D.node_at((2, 2, 2))  # all positive
        cands = self.alg.candidates(src, dst)
        assert set(cands) == {Direction(0, +1)}

    def test_last_phase_adaptive_among_high_positives(self):
        src = MESH_3D.node_at((2, 1, 1))
        dst = MESH_3D.node_at((2, 2, 2))
        cands = self.alg.candidates(src, dst)
        assert set(cands) == {Direction(1, +1), Direction(2, +1)}

    def test_paths_minimal_and_turn_legal(self):
        model = self.alg.turn_model()
        rng = random.Random(5)
        for _ in range(200):
            src = rng.randrange(MESH_3D.num_nodes)
            dst = rng.randrange(MESH_3D.num_nodes)
            if src == dst:
                continue
            path = walk(self.alg, src, dst, rng=rng)
            assert len(path) - 1 == MESH_3D.distance(src, dst)
            assert path_respects_turn_model(MESH_3D, path, model)


class TestNegativeFirstND:
    def setup_method(self):
        self.alg = NegativeFirst(MESH_3D)

    def test_all_negatives_first(self):
        src = MESH_3D.node_at((2, 1, 2))
        dst = MESH_3D.node_at((1, 2, 1))  # -0, +1, -2
        cands = self.alg.candidates(src, dst)
        assert set(cands) == {Direction(0, -1), Direction(2, -1)}

    def test_positive_phase_when_no_negative_work(self):
        src = MESH_3D.node_at((1, 1, 1))
        dst = MESH_3D.node_at((3, 2, 2))
        cands = self.alg.candidates(src, dst)
        assert all(d.is_positive for d in cands)
        assert len(cands) == 3

    def test_works_on_hypercube(self):
        cube = Hypercube(5)
        alg = NegativeFirst(cube)
        rng = random.Random(11)
        for _ in range(200):
            src = rng.randrange(cube.num_nodes)
            dst = rng.randrange(cube.num_nodes)
            if src == dst:
                continue
            path = walk(alg, src, dst, rng=rng)
            assert len(path) - 1 == cube.distance(src, dst)

    def test_high_dimension_mesh(self):
        mesh = Mesh((2, 3, 2, 3))
        alg = NegativeFirst(mesh)
        for src in mesh.nodes():
            for dst in mesh.nodes():
                if src != dst:
                    path = walk(alg, src, dst)
                    assert len(path) - 1 == mesh.distance(src, dst)
