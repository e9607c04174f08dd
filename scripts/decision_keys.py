#!/usr/bin/env python3
"""The routing decision keys, printed and checked.

``tables`` prints docs/DECISION_TABLES.md: the decision table of xy,
west-first, north-last and negative-first (arrival direction x
non-zero offset class vector), read from the memo of a class-keyed
:class:`~repro.routing.table.NetworkTables` after one cold fill.

``torus-conflicts`` counts, for every registered algorithm on
``torus:16x2`` with two VCs, how often a memo under the tables' own
decision key (:meth:`~repro.routing.table.NetworkTables.key`) would
answer a query wrongly: 0 for every certified algorithm (dateline,
escape-VC, xy and dimension-order), and many for negative-first-torus
and first-hop wraparound, the reason those two stay exactly keyed
(docs/PERFORMANCE.md, "Cold set-up").

Run:  python scripts/decision_keys.py tables > docs/DECISION_TABLES.md
      python scripts/decision_keys.py torus-conflicts
"""

import argparse
import itertools
import sys

from repro.analysis.runner import parse_topology_spec
from repro.routing import algorithm_names, make_algorithm
from repro.routing.registry import offset_classed
from repro.routing.table import NetworkTables
from repro.topology.base import COMPASS_NAMES

ALGORITHMS = ("xy", "west-first", "north-last", "negative-first")
CLASS_NAMES = {-2: "≤−2", -1: "−1", 0: "0", 1: "+1", 2: "≥+2"}


def _compass(direction):
    return COMPASS_NAMES[direction][0].upper()


def decision_table(name: str) -> str:
    """One algorithm's markdown table, read from its tables' memo."""
    topology = parse_topology_spec("mesh:5x5")
    tables = NetworkTables(make_algorithm(name, topology))
    centre = topology.node_xy(2, 2)
    arrivals = len(tables.index.directions) + 1
    ports = [centre * tables.node_ports + diridx for diridx in range(arrivals)]
    for port, dest in itertools.product(ports, topology.nodes()):
        tables.minimal(port, dest)
    headings = ["injected"] + [
        f"heading {_compass(d)}" for d in tables.index.directions
    ]
    lines = [
        f"### {name}",
        "",
        "| Δx, Δy | " + " | ".join(headings) + " |",
        "|---|" + "---|" * arrivals,
    ]
    for dy, dx in itertools.product((2, 1, 0, -1, -2), (-2, -1, 0, 1, 2)):
        if dx == dy == 0:
            continue
        dest = topology.node_xy(2 + dx, 2 + dy)
        cells = [
            " ".join(
                _compass(direction)
                for direction, _, _ in tables.memo[tables.key(port, dest, False)]
            ) or "—"
            for port in ports
        ]
        lines.append(
            f"| {CLASS_NAMES[dx]}, {CLASS_NAMES[dy]} | "
            + " | ".join(cells) + " |"
        )
    return "\n".join(lines)


INTRO = """\
# Decision tables of the 2D turn-model algorithms

Generated by `python scripts/decision_keys.py tables > docs/DECISION_TABLES.md`;
`tests/routing/test_decision_keys.py` regenerates it and fails on drift.

On a 2D mesh each algorithm's minimal candidates depend only on the
direction the header arrived travelling (`injected` at its source) and on
each dimension's offset to the destination, clamped to ≤−2, −1, 0, +1, ≥+2
(ROADMAP item 12).  Each table is that function, read from the memo of
`NetworkTables` after one cold fill on `mesh:5x5`: one row per non-zero
offset class vector (Δx east-positive, Δy north-positive), one column per
arrival direction, and in each cell the permitted output directions in xy
output-selection order (W, E, S, N).  `—` marks a state from which no
permitted turn continues minimally; only an escape (nonminimal) move
leads into one.

The paper's phase rules read off the `injected` column: west-first offers
only W while Δx < 0 and adapts among E, S and N otherwise; north-last
offers N only once Δx = 0; negative-first offers only W and S while
either offset is negative.
"""


def tables_markdown() -> str:
    """The whole of docs/DECISION_TABLES.md."""
    tables = [decision_table(name) for name in ALGORITHMS]
    return "\n\n".join([INTRO.rstrip()] + tables) + "\n"


def torus_conflicts() -> str:
    """Wrong answers a memo under the tables' own key would give on
    ``torus:16x2`` with two VCs, one line per registered algorithm."""
    topology = parse_topology_spec("torus:16x2")
    lines = []
    for name in algorithm_names():
        try:
            algorithm = make_algorithm(name, topology)
        except ValueError:
            continue
        tables = NetworkTables(algorithm, num_vc=2)
        seen, conflicts, queries = {}, 0, 0
        for port, dest, escape in itertools.product(
            tables.waiting_ports(), topology.nodes(), (False, True)
        ):
            answer = tables._ask(port, dest, escape)
            key = tables.key(port, dest, escape)
            conflicts += seen.setdefault(key, answer) != answer
            queries += 1
        status = "certified" if offset_classed(algorithm, 2) else "exact"
        lines.append(
            f"{name} ({status}): {conflicts} conflicts in {queries} queries"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("what", choices=("tables", "torus-conflicts"))
    args = parser.parse_args(argv)
    if args.what == "tables":
        sys.stdout.write(tables_markdown())
    else:
        print(torus_conflicts())
    return 0


if __name__ == "__main__":
    sys.exit(main())
