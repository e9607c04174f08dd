"""Malformed topology specs through the Python API (ROADMAP item 9).

Garbage spec strings reach :class:`PointSpec` and, once parsed,
:func:`make_algorithm` with every registered name.  Whatever the
routing tables derive from the parsed dims — offset classes, edge
flags, channel ids — the outcome is a result or a ``ValueError``,
never an ``IndexError``, ``KeyError`` or ``ZeroDivisionError`` from
inside routing.
"""

from hypothesis import example, given
from hypothesis import strategies as st

from repro.analysis.runner import PATTERN_NAMES, PointSpec, parse_topology_spec
from repro.routing import algorithm_names, make_algorithm
from repro.routing.table import NetworkTables
from repro.simulation.config import SimulationConfig

CONFIG = SimulationConfig(
    offered_load=0.5, warmup_cycles=5, measure_cycles=30, seed=1
)

part = st.one_of(
    st.integers(-3, 5).map(str),
    st.sampled_from(["", " 3", "2 ", "+2", "0x3", "3.0", "1e1", "x", "٣", "-0"]),
)
shaped = st.builds(
    lambda kind, sep, parts, joint: kind + sep + joint.join(parts),
    st.sampled_from(["mesh", "cube", "torus", "MESH", "mesh ", "", "ring"]),
    st.sampled_from([":", "", "::", " : "]),
    st.lists(part, min_size=0, max_size=4),
    st.sampled_from(["x", "X", "*", "xx", ","]),
)
specs = st.one_of(shaped, st.text(max_size=12))


def small(topology):
    return topology.num_nodes <= 256


@given(specs, st.sampled_from(algorithm_names()), st.sampled_from(PATTERN_NAMES))
# Both hypercube-only patterns once raised AttributeError elsewhere.
@example("mesh:4x4", "xy", "reverse-flip")
@example("torus:4x2", "dateline", "bit-complement")
@example("mesh:1x4", "xy", "uniform")
@example("mesh:4", "dimension-order", "uniform")
@example("cube:1", "p-cube-nonminimal", "uniform")
@example("torus:2x1", "dateline", "uniform")
def test_point_spec_execute_is_a_result_or_a_value_error(spec, name, pattern):
    try:
        topology = parse_topology_spec(spec)
    except ValueError:
        topology = None
    if topology is not None and not small(topology):
        return
    try:
        result = PointSpec(spec, name, pattern, CONFIG).execute()
    except ValueError:
        return
    assert result.generated_packets >= 0


@given(specs)
@example("mesh:2")
@example("mesh:2x2x2x2")
@example("cube:1")
@example("torus:3x1")
def test_every_algorithm_on_a_parsed_spec_routes_or_refuses(spec):
    try:
        topology = parse_topology_spec(spec)
    except ValueError:
        return
    if not small(topology):
        return
    for name in algorithm_names():
        try:
            algorithm = make_algorithm(name, topology)
        except ValueError:
            continue
        tables = NetworkTables(algorithm)
        for port in range(0, topology.num_nodes * tables.node_ports, 7):
            for dest in range(0, topology.num_nodes, 3):
                try:
                    tables.minimal(port, dest)
                    tables.escape(port, dest)
                except ValueError:
                    break
