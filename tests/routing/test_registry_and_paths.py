"""Tests for the algorithm registry and path utilities."""

import pytest

from repro.routing import (
    NegativeFirst,
    RoutingDeadEnd,
    WestFirst,
    XY,
    algorithm_names,
    directions_of_path,
    enumerate_minimal_paths,
    hypercube_algorithms,
    make_algorithm,
    mesh_algorithms,
    path_channels,
    torus_algorithms,
    walk,
)
from repro.core import s_west_first
from repro.topology import EAST, Hypercube, KAryNCube, Mesh2D, NORTH


class TestRegistry:
    def test_known_names_construct(self):
        mesh = Mesh2D(4, 4)
        for name in ("xy", "west-first", "north-last", "negative-first"):
            alg = make_algorithm(name, mesh)
            assert alg.topology is mesh

    def test_aliases(self):
        cube = Hypercube(4)
        assert make_algorithm("ecube", cube).name == "e-cube"
        assert make_algorithm("pcube", cube).name == "p-cube"
        assert make_algorithm("NF", Mesh2D(3, 3)).name == "negative-first"

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="known:"):
            make_algorithm("zigzag-routing", Mesh2D(3, 3))

    def test_wrong_topology_raises(self):
        with pytest.raises(ValueError):
            make_algorithm("xy", Hypercube(4))

    def test_turn_model_algorithms_reject_tori(self):
        """Routes across wraparound channels close cycles no turn
        prohibition breaks, so the mesh algorithms refuse a torus and
        name the Section 4.2 and virtual-channel alternatives."""
        alternatives = "negative-first\\+wrap1.*negative-first-torus.*dateline"
        cases = [
            (KAryNCube(k, 2), ("west-first", "north-last", "negative-first"))
            for k in (3, 4, 5, 6)
        ] + [(KAryNCube(3, 3), ("abonf", "abopl", "negative-first"))]
        for torus, names in cases:
            for name in names:
                with pytest.raises(ValueError, match=alternatives):
                    make_algorithm(name, torus)

    def test_wraparound_free_topologies_still_accepted(self):
        assert make_algorithm("negative-first", KAryNCube(2, 3)).name == (
            "negative-first"
        )
        assert make_algorithm("p-cube", KAryNCube(2, 3)).name == "p-cube"
        assert make_algorithm("abonf", Hypercube(3)).name == "abonf"
        wrap1 = make_algorithm("negative-first+wrap1", KAryNCube(6, 2))
        assert wrap1.name == "negative-first+wrap1"

    def test_mesh_suite_is_the_paper_lineup(self):
        names = [a.name for a in mesh_algorithms(Mesh2D(4, 4))]
        assert names == ["xy", "west-first", "north-last", "negative-first"]

    def test_cube_suite_is_the_paper_lineup(self):
        names = [a.name for a in hypercube_algorithms(Hypercube(4))]
        assert names == ["e-cube", "abonf", "abopl", "p-cube"]

    def test_torus_suite(self):
        names = [a.name for a in torus_algorithms(KAryNCube(4, 2))]
        assert "negative-first-torus" in names

    def test_algorithm_names_deduplicates_aliases(self):
        names = algorithm_names()
        assert "xy" in names and "p-cube" in names
        assert len(names) == len(set(names))


class TestWalk:
    def test_walk_returns_node_path(self):
        mesh = Mesh2D(4, 4)
        path = walk(XY(mesh), mesh.node_xy(0, 0), mesh.node_xy(3, 3))
        assert path[0] == mesh.node_xy(0, 0)
        assert path[-1] == mesh.node_xy(3, 3)
        assert len(path) == 7

    def test_walk_detects_dead_end(self):
        mesh = Mesh2D(4, 4)
        alg = WestFirst(mesh)
        # Travelling east with a westward destination is an illegal state;
        # the algorithm reports no candidates and walk raises.
        with pytest.raises(RoutingDeadEnd):
            walk(
                alg,
                mesh.node_xy(2, 0),
                mesh.node_xy(0, 0),
                initial_direction=EAST,
            )

    def test_walk_custom_chooser(self):
        mesh = Mesh2D(5, 5)
        alg = NegativeFirst(mesh)
        path = walk(
            alg,
            mesh.node_xy(0, 0),
            mesh.node_xy(3, 3),
            choose=lambda options: options[-1],
        )
        # Always choosing the last candidate routes all of y first.
        assert directions_of_path(mesh, path)[:3] == [NORTH, NORTH, NORTH]


class TestPathHelpers:
    def test_path_channels_roundtrip(self):
        mesh = Mesh2D(4, 4)
        path = walk(XY(mesh), 0, 15)
        channels = path_channels(mesh, path)
        assert [c.src for c in channels] == path[:-1]
        assert [c.dst for c in channels] == path[1:]

    def test_path_channels_rejects_non_neighbors(self):
        mesh = Mesh2D(4, 4)
        with pytest.raises(ValueError):
            path_channels(mesh, [0, 5])

    def test_enumerate_minimal_paths_counts_match_formula(self):
        mesh = Mesh2D(6, 6)
        alg = WestFirst(mesh)
        src, dst = mesh.node_xy(1, 1), mesh.node_xy(4, 3)
        paths = list(enumerate_minimal_paths(alg, src, dst))
        assert len(paths) == s_west_first(mesh, src, dst)
        assert len({p for p in paths}) == len(paths)
        assert all(len(p) - 1 == mesh.distance(src, dst) for p in paths)

    def test_enumerate_minimal_paths_limit(self):
        mesh = Mesh2D(8, 8)
        alg = WestFirst(mesh)
        paths = list(
            enumerate_minimal_paths(alg, mesh.node_xy(0, 0), mesh.node_xy(7, 7), limit=5)
        )
        assert len(paths) == 5
