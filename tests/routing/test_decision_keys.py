"""Class-keyed routing tables: a cold :class:`NetworkTables` asks a
certified algorithm once per (query kind, arrival direction, arrival
VC, offset class vector[, edge flags]) and must still answer every
(port, dest) exactly as the algorithm does when asked directly.

The tier-1 sizes are here; ``wide_decision_keys.py`` (run by path in its
CI leg) repeats the check on every 2D mesh up to 16x16, every 3D mesh up
to 4x4x4, every cube up to 8 and tori up to 16x2 and 6x3 at 2 and 3 VCs.
"""

import importlib.util
import itertools
from pathlib import Path

import pytest
from decision_keys import (
    CountingTables, assert_tables_answer_directly, registered_on,
)

import repro.routing.registry as registry
import repro.routing.table as table
from repro.analysis.runner import make_pattern, parse_topology_spec
from repro.core import TurnModel, two_turn_prohibitions_2d
from repro.routing import (
    XY, ClassifiedNegativeFirst, DatelineDimensionOrder,
    FirstHopWraparound, TurnRestrictedMinimal, make_algorithm,
)
from repro.routing.registry import offset_classed
from repro.routing.table import NetworkTables
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import WormholeSimulator
from repro.topology.base import EAST
from repro.topology.mesh import Mesh2D

REPO = Path(__file__).resolve().parents[2]

TIER1_SPECS = [f"mesh:{k}x{k}" for k in range(2, 9)] + [
    "mesh:2x7", "mesh:5x7", "mesh:8x3", "mesh:3x3x3", "cube:6",
]
VC_SPECS = [f"torus:{k}x2" for k in range(2, 7)] + [
    "torus:4x3", "mesh:5x5", "cube:4",
]


@pytest.mark.parametrize("spec", TIER1_SPECS)
def test_registered_algorithms_answer_as_asked_directly(spec):
    algorithms = registered_on(spec)
    assert algorithms
    for algorithm in algorithms:
        assert offset_classed(algorithm), algorithm
        assert_tables_answer_directly(algorithm)


@pytest.mark.parametrize("num_vc", [1, 2, 3])
@pytest.mark.parametrize("spec", VC_SPECS)
def test_torus_and_vc_tables_answer_as_asked_directly(spec, num_vc):
    """Every registered algorithm is certified, on a torus too, except
    negative-first-torus and first-hop wraparound, which read plain
    deltas; those keep the exact ``(port, dest)`` path, which must
    answer directly too."""
    algorithms = registered_on(spec)
    assert algorithms
    for algorithm in algorithms:
        classed = type(algorithm) not in (
            ClassifiedNegativeFirst, FirstHopWraparound,
        )
        assert offset_classed(algorithm, num_vc) is classed, algorithm
        assert_tables_answer_directly(algorithm, classed, num_vc)


@pytest.mark.parametrize("spec", ["mesh:4x4", "mesh:5x7"])
@pytest.mark.parametrize("index", range(16))
def test_two_turn_prohibition_sets_answer_as_asked_directly(spec, index):
    prohibited = two_turn_prohibitions_2d()[index]
    model = TurnModel.from_prohibited(f"two-turn-{index}", 2, prohibited)
    algorithm = TurnRestrictedMinimal(parse_topology_spec(spec), model)
    assert_tables_answer_directly(algorithm)


class EdgeMindedXY(XY):
    """xy, except that a header in the top row goes east before
    anything else: a direction-level rule that reads the node's
    position, which no offset class can see."""

    def candidates(self, current, dest, in_direction=None):
        x, y = self.topology.coords(current)
        if y == self.topology.dims[1] - 1 and self.topology.offset(
            current, dest, 0
        ) > 0:
            return [EAST]
        return super().candidates(current, dest, in_direction)


def test_position_dependent_subclass_gets_exact_answers():
    algorithm = EdgeMindedXY(Mesh2D(5, 5))
    assert not offset_classed(algorithm)
    # Asked once per (port, dest), nothing memoised across nodes.
    assert assert_tables_answer_directly(algorithm, classed=False) == 0


class LateDateline(DatelineDimensionOrder):
    """An unmodified dateline under another name: a subclass may change
    any answer, so it is never certified."""


def test_instance_overrides_and_other_topologies_are_not_certified():
    algorithm = make_algorithm("west-first", Mesh2D(4, 4))
    algorithm.candidates = algorithm.candidates
    assert not offset_classed(algorithm)
    torus = parse_topology_spec("torus:4x2")
    dateline = make_algorithm("dateline-dimension-order", torus)
    assert offset_classed(dateline, 2)
    assert NetworkTables(dateline, num_vc=2)._classed
    assert not offset_classed(make_algorithm("negative-first-torus", torus), 2)
    assert not offset_classed(LateDateline(torus), 2)
    for name in ("xy", "dimension-order"):
        assert offset_classed(make_algorithm(name, torus), 2)
    mesh_algorithm = make_algorithm("escape-vc-adaptive", Mesh2D(4, 4))
    assert offset_classed(mesh_algorithm)
    assert NetworkTables(mesh_algorithm, num_vc=2)._classed
    mesh_algorithm.vc_candidates = mesh_algorithm.vc_candidates
    assert not offset_classed(mesh_algorithm, 2)
    assert not NetworkTables(mesh_algorithm, num_vc=2)._classed


def test_a_cold_mesh_asks_once_per_direction_and_class_vector():
    topology = Mesh2D(9, 9)
    tables = NetworkTables(make_algorithm("west-first", topology))
    for port, dest in itertools.product(
        range(topology.num_nodes * tables.node_ports), topology.nodes()
    ):
        tables.minimal(port, dest)
    # 5 arrival directions (one of them "none") x 5^2 class vectors.
    assert len(tables.memo) == 5 * 25
    assert tables.num_entries == topology.num_nodes ** 2 * 5


def test_a_full_dateline_torus_fill_asks_once_per_key():
    """2 query kinds x 9 arrival states (injected, or 4 directions x 2
    VCs) x 15^2 (5 offset classes x 3 edge flags per dimension)."""
    topology = parse_topology_spec("torus:16x2")
    tables = CountingTables(
        make_algorithm("dateline-dimension-order", topology), num_vc=2
    )
    ports = sorted(set(tables.arrive_port) | {
        node * tables.node_ports for node in topology.nodes()
    })
    for port, dest in itertools.product(ports, topology.nodes()):
        tables.minimal(port, dest)
        tables.escape(port, dest)
    assert len(tables.asked) == len(tables.memo) == 2 * 9 * 15 ** 2 == 4050
    assert tables.num_entries == 2 * len(ports) * topology.num_nodes


def test_escape_answers_need_the_edge_flags():
    """Offset classes alone do not fix an escape answer: whether the
    non-productive neighbour exists depends on where the node is."""
    topology = Mesh2D(8, 8)
    algorithm = make_algorithm("west-first", topology)
    headings = (None,) + topology.directions()
    seen, conflicts = {}, 0
    for node, dest, heading in itertools.product(
        topology.nodes(), topology.nodes(), headings
    ):
        key = (heading, tuple(
            max(-2, min(2, topology.offset(node, dest, dim))) for dim in (0, 1)
        ))
        answer = algorithm.escape_candidates(node, dest, heading)
        conflicts += seen.setdefault(key, answer) != answer
    assert conflicts > 0


def test_the_committed_decision_tables_are_current():
    path = REPO / "scripts" / "decision_keys.py"
    spec = importlib.util.spec_from_file_location("decision_keys_script", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    committed = (REPO / "docs" / "DECISION_TABLES.md").read_text("utf-8")
    assert script.tables_markdown() == committed, (
        "regenerate: python scripts/decision_keys.py tables"
        " > docs/DECISION_TABLES.md"
    )


def _batch(spec, name, seeds, backend):
    """One algorithm object shared by a batch of points, as a sweep
    shares it; returns (results, the algorithm's tables)."""
    topology = parse_topology_spec(spec)
    algorithm = make_algorithm(name, topology)
    pattern = make_pattern("uniform", topology)
    configs = [
        SimulationConfig(
            offered_load=4.0, buffer_depth=4, virtual_channels=2,
            warmup_cycles=100, measure_cycles=800, seed=seed, backend=backend,
        )
        for seed in seeds
    ]
    if backend == "array":
        from repro.simulation.array_engine import BatchSimulator

        results = BatchSimulator(
            [(algorithm, pattern, config) for config in configs]
        ).run()
    else:
        results = [
            WormholeSimulator(algorithm, pattern, config).run()
            for config in configs
        ]
    return [r.to_dict() for r in results], table.shared_tables(algorithm, 2)


@pytest.mark.parametrize("backend", ["event", "array"])
@pytest.mark.parametrize("spec, name, seeds", [
    pytest.param(
        "torus:8x2", "dateline-dimension-order", (3, 5, 7, 11), id="dateline"
    ),
    pytest.param("mesh:6x6", "escape-vc-adaptive", (13, 17), id="escape-vc"),
])
def test_classed_tables_simulate_as_exact_ones(
    spec, name, seeds, backend, monkeypatch
):
    """Fresh classed tables and fresh exact ones (``offset_classed``
    forced off) give the same results on both backends, and the array
    backend builds the same LUT rows from them."""
    if backend == "array":
        np = pytest.importorskip("numpy")
    runs = []
    for classed in (True, False):
        with monkeypatch.context() as patch:
            patch.setattr(table, "_SHARED", {})
            if not classed:
                patch.setattr(registry, "offset_classed", lambda *_: False)
            results, tables = _batch(spec, name, seeds, backend)
            assert tables._classed is classed
            runs.append((results, tables.array_lut))
    (classed_results, classed_lut), (exact_results, exact_lut) = runs
    assert classed_results == exact_results
    if backend == "array":
        for column in (
            "cbuilt", "cand", "cmis", "cdirk", "ebuilt", "esc", "emis", "edirk",
        ):
            got, want = getattr(classed_lut, column), getattr(exact_lut, column)
            assert (got is None) == (want is None), column
            assert got is None or np.array_equal(got, want), column
        assert classed_lut.cbuilt.any()
