"""Class-keyed routing tables: a cold :class:`NetworkTables` asks a
certified algorithm once per (query kind, arrival direction, offset
class vector[, edge flags]) and must still answer every (port, dest)
exactly as the algorithm does when asked directly.

The tier-1 sizes are here; ``wide_decision_keys.py`` (run by path in its
CI leg) repeats the check on every 2D mesh up to 16x16, every 3D mesh up
to 4x4x4 and every cube up to 8.
"""

import importlib.util
import itertools
from pathlib import Path

import pytest
from decision_keys import assert_tables_answer_directly, registered_on

from repro.analysis.runner import parse_topology_spec
from repro.core import TurnModel, two_turn_prohibitions_2d
from repro.routing import XY, TurnRestrictedMinimal, make_algorithm
from repro.routing.registry import offset_classed
from repro.routing.table import NetworkTables
from repro.topology.base import EAST
from repro.topology.mesh import Mesh2D

REPO = Path(__file__).resolve().parents[2]

TIER1_SPECS = [f"mesh:{k}x{k}" for k in range(2, 9)] + [
    "mesh:2x7", "mesh:5x7", "mesh:8x3", "mesh:3x3x3", "cube:6",
]


@pytest.mark.parametrize("spec", TIER1_SPECS)
def test_registered_algorithms_answer_as_asked_directly(spec):
    algorithms = registered_on(spec)
    assert algorithms
    for algorithm in algorithms:
        assert offset_classed(algorithm), algorithm
        assert_tables_answer_directly(algorithm)


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


def test_instance_overrides_and_other_topologies_are_not_certified():
    algorithm = make_algorithm("west-first", Mesh2D(4, 4))
    algorithm.candidates = algorithm.candidates
    assert not offset_classed(algorithm)
    for spec, name in (
        ("torus:4x2", "dateline-dimension-order"),
        ("torus:4x2", "negative-first-torus"),
    ):
        torus_algorithm = make_algorithm(name, parse_topology_spec(spec))
        assert not offset_classed(torus_algorithm)
    mesh_algorithm = make_algorithm("escape-vc-adaptive", Mesh2D(4, 4))
    assert offset_classed(mesh_algorithm)
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
