"""The check behind the class-keyed routing tables: every answer a
:class:`~repro.routing.table.NetworkTables` gives equals what the
algorithm itself answers, asked directly.

Imported by ``tests/routing/test_decision_keys.py`` (the tier-1 sizes)
and ``tests/routing/wide_decision_keys.py`` (every 2D mesh up to 16x16,
3D meshes up to 4x4x4, cubes up to 8 and tori up to 16x2 and 6x3, at
several VC counts; run by path in its CI leg).
"""

from itertools import product

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


class CountingTables(NetworkTables):
    """:class:`NetworkTables` that records every question it asks the
    algorithm, as ``(port, dest, escape)``."""

    __slots__ = ("asked",)

    def __init__(self, algorithm, num_vc=1):
        self.asked = []
        super().__init__(algorithm, num_vc)

    def _ask(self, port, dest, escape):
        self.asked.append((port, dest, escape))
        return super()._ask(port, dest, escape)


def direct_moves(algorithm, num_vc, node, dest, heading, in_vc, escape):
    """The algorithm's own ``(direction, vc)`` answer: the direction-level
    query at one VC (the engines' contract), the ``vc_*`` query above."""
    if num_vc == 1:
        query = algorithm.escape_candidates if escape else algorithm.candidates
        return [(direction, 0) for direction in query(node, dest, heading)]
    query = (
        algorithm.vc_escape_candidates if escape else algorithm.vc_candidates
    )
    return query(node, dest, heading, in_vc, num_vc)


def assert_tables_answer_directly(algorithm, classed=True, num_vc=1):
    """Fill ``algorithm``'s tables at every input port a header can wait
    at and every destination, comparing each decision with the direct
    answer: pairs naming a missing channel or an out-of-range VC
    dropped, the misroute bit read from the topology's own distance
    (the torus one on a torus).  Classed tables must have asked once per
    :meth:`~NetworkTables.key`, exact ones once per decision.  Returns
    the number of algorithm answers the tables held (their memo size)."""
    tables = CountingTables(algorithm, num_vc)
    assert tables._classed is classed
    topology = algorithm.topology
    index = tables.index
    channel_ids = tables.channel_ids
    nodes = range(topology.num_nodes)
    distance = [[topology.distance(a, b) for b in nodes] for a in nodes]
    decisions = 0
    for node in nodes:
        for diridx, heading in enumerate((None,) + index.directions):
            for in_vc in range(num_vc) if heading else (0,):
                port = node * tables.node_ports + diridx * num_vc + in_vc
                for dest, escape in product(nodes, (False, True)):
                    got = (tables.escape if escape else tables.minimal)(
                        port, dest
                    )
                    want = []
                    for direction, vc in direct_moves(
                        algorithm, num_vc, node, dest, heading,
                        in_vc if heading else None, escape,
                    ):
                        base = channel_ids.get((node, direction))
                        if base is None or not 0 <= vc < num_vc:
                            continue
                        far = distance[tables.channels[base].dst][dest]
                        here = distance[node][dest]
                        want.append((direction, base + vc, int(far >= here)))
                    assert list(got) == want, (
                        algorithm, num_vc, node, heading, in_vc, dest,
                        escape, got, want,
                    )
                    decisions += 1
    if classed:
        keys = [tables.key(*question) for question in tables.asked]
        assert len(set(keys)) == len(keys), (algorithm, num_vc)
        assert set(keys) == set(tables.memo), (algorithm, num_vc)
    else:
        assert len(tables.asked) == decisions, (algorithm, num_vc)
    return len(tables.memo)
