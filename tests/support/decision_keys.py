"""The check behind the class-keyed routing tables: every answer a
:class:`~repro.routing.table.NetworkTables` gives equals what the
algorithm itself answers, asked directly.

Imported by ``tests/routing/test_decision_keys.py`` (the tier-1 sizes)
and ``tests/routing/wide_decision_keys.py`` (every 2D mesh up to 16x16,
3D meshes up to 4x4x4 and cubes up to 8; run by path in its CI leg).
"""

from repro.analysis.runner import parse_topology_spec
from repro.routing import algorithm_names, make_algorithm
from repro.routing.table import NetworkTables


def registered_on(spec):
    """Every registered algorithm that builds on ``spec``."""
    topology = parse_topology_spec(spec)
    out = []
    for name in algorithm_names():
        try:
            out.append(make_algorithm(name, topology))
        except ValueError:
            continue
    return out


def assert_tables_answer_directly(algorithm, classed=True):
    """Fill ``algorithm``'s tables at every input port and destination,
    comparing each decision with the direct ``candidates`` /
    ``escape_candidates`` answer.  Returns the number of algorithm
    answers the tables held (their memo size)."""
    tables = NetworkTables(algorithm)
    assert tables._classed is classed
    index = tables.index
    channel_index = index.channel_index
    headings = (None,) + index.directions
    nodes = range(algorithm.topology.num_nodes)
    distance = [
        [sum(abs(x - y) for x, y in zip(a, b)) for b in index.coords]
        for a in index.coords
    ]
    for node in nodes:
        for diridx, heading in enumerate(headings):
            port = node * tables.node_ports + diridx
            for dest in nodes:
                here = distance[node][dest]
                for got, query in (
                    (tables.minimal(port, dest), algorithm.candidates),
                    (tables.escape(port, dest), algorithm.escape_candidates),
                ):
                    want = []
                    for direction in query(node, dest, heading):
                        cid = channel_index[(node, direction)]
                        far = distance[index.channels[cid].dst][dest]
                        want.append((direction, cid, int(far >= here)))
                    assert list(got) == want, (
                        algorithm, node, heading, dest, got, want
                    )
    return len(tables.memo)
