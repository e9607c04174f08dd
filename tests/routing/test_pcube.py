"""Tests for p-cube routing (Section 5, Figures 11 and 12)."""

import random

import pytest

from repro.routing import NegativeFirst, NonminimalPCube, PCube, walk
from repro.topology import Hypercube, Mesh2D


class TestPCubeMinimal:
    def setup_method(self):
        self.cube = Hypercube(6)
        self.alg = PCube(self.cube)

    def test_phase1_clears_ones(self):
        src, dst = 0b110100, 0b001100
        cands = self.alg.candidates(src, dst)
        # c & ~d = 110000: dims 4 and 5, both negative moves.
        assert {(d.dim, d.sign) for d in cands} == {(4, -1), (5, -1)}

    def test_phase2_sets_zeros_once_ones_cleared(self):
        src, dst = 0b001100, 0b001111
        cands = self.alg.candidates(src, dst)
        assert {(d.dim, d.sign) for d in cands} == {(0, +1), (1, +1)}

    def test_at_destination_no_candidates(self):
        assert self.alg.candidates(42, 42) == []

    def test_figure_11_step_order(self):
        """R = C AND NOT D first; only if zero, R = NOT C AND D."""
        src, dst = 0b101010, 0b010101
        cands = self.alg.candidates(src, dst)
        assert all(d.is_negative for d in cands)

    def test_equals_negative_first_on_hypercube(self):
        """p-cube is the hypercube special case of negative-first.  The
        two differ only where a packet heading ``-d_i`` needs ``+d_i``:
        Figure 11 sets the bit again at once, a reversal negative-first
        prohibits.  Such states follow only a nonminimal escape.  (The
        rows of both are pinned in test_constructed_rows.py.)"""
        nf = NegativeFirst(self.cube)
        for src in self.cube.nodes():
            for dst in self.cube.nodes():
                assert self.alg.candidates(src, dst) == nf.candidates(src, dst)
                for heading in self.cube.directions():
                    ours = self.alg.candidates(src, dst, heading)
                    theirs = nf.candidates(src, dst, heading)
                    if ours != theirs:
                        assert heading.is_negative
                        assert set(ours) - set(theirs) == {heading.opposite}
                        assert set(theirs) < set(ours)

    def test_delivers_minimally(self):
        rng = random.Random(2)
        for _ in range(300):
            src = rng.randrange(64)
            dst = rng.randrange(64)
            if src == dst:
                continue
            path = walk(self.alg, src, dst, rng=rng)
            assert len(path) - 1 == self.cube.hamming(src, dst)

    def test_rejects_non_hypercube(self):
        with pytest.raises(ValueError):
            PCube(Mesh2D(4, 4))

    def test_honest_dead_end_on_unreachable_state(self):
        """Phase-1 work pending after a positive hop cannot happen; the
        function reports a dead end instead of a prohibited turn."""
        from repro.topology import Direction

        src, dst = 0b100000, 0b000001
        assert self.alg.candidates(src, dst, Direction(3, +1)) == []


class TestPCubeNonminimal:
    def setup_method(self):
        self.cube = Hypercube(6)
        self.alg = NonminimalPCube(self.cube)

    def test_escapes_are_shared_one_dimensions(self):
        src, dst = 0b110100, 0b001100
        escapes = self.alg.escape_candidates(src, dst)
        # c & d = 000100: dimension 2.
        assert {(d.dim, d.sign) for d in escapes} == {(2, -1)}

    def test_no_escapes_in_phase2(self):
        src, dst = 0b001100, 0b001111
        assert self.alg.escape_candidates(src, dst) == []

    def test_no_escapes_after_positive_heading(self):
        from repro.topology import Direction

        src, dst = 0b110100, 0b001100
        assert self.alg.escape_candidates(src, dst, Direction(1, +1)) == []

    def test_escape_counts_match_section5_table(self):
        """The '+2' column: nonminimal choices at the first three hops."""
        cube = Hypercube(10)
        alg = NonminimalPCube(cube)
        src = cube.node_from_address_str("1011010100")
        dst = cube.node_from_address_str("0010111001")
        assert len(alg.escape_candidates(src, dst)) == 2

    def test_escape_then_minimal_completes(self):
        rng = random.Random(4)
        minimal = PCube(self.cube)
        for _ in range(200):
            src = rng.randrange(64)
            dst = rng.randrange(64)
            if src == dst:
                continue
            for esc in self.alg.escape_candidates(src, dst):
                nbr = self.cube.neighbor(src, esc)
                assert nbr is not None
                walk(minimal, nbr, dst, initial_direction=esc)

    def test_is_not_minimal(self):
        assert not self.alg.is_minimal
        assert PCube(self.cube).is_minimal
