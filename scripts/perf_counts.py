#!/usr/bin/env python3
"""The counted work docs/PERFORMANCE.md quotes, rendered into its
generated blocks (``<!-- generated: NAME -->``, spliced by
:func:`repro.analysis.claims.splice`; the prose around them is
hand-written).

``ledger``
    Worm steps, bulk flit-hops and quiet cycles of every canonical event
    point, read from ``BENCH_engine.json`` (no simulation).
``cold-pass``
    Algorithm questions (``NetworkTables._ask`` calls) a process with
    empty routing tables asks to run each benchmark workload's points
    once, seed 7, through ``ParallelSweepRunner(jobs=1, cache=None)``.
    The workloads are ``bench/workloads.py``'s, imported read-only.
    Needs numpy (three workloads run on the array backend).
``decision-keys``
    Questions against decisions served when every input port a header
    can wait at is filled for every destination and both query kinds,
    on the networks of the paper's figures and of ``vcsweep-array``.

Every count is deterministic, so a second run leaves the file
byte-identical.

Run:  python scripts/perf_counts.py    # rewrite every block
"""

import itertools
import json
import sys
import tempfile
from pathlib import Path

from repro.analysis.claims import splice
from repro.analysis import runner
from repro.analysis.runner import ParallelSweepRunner, parse_topology_spec
from repro.routing import make_algorithm, table

REPO = Path(__file__).resolve().parent.parent
DOC = REPO / "docs" / "PERFORMANCE.md"
LEDGER = REPO / "BENCH_engine.json"

COLD_SEED = 7
COLD_WORKLOADS = (
    "fig-event", "seedsweep-array", "vcsweep-array", "solo-array",
    "campaign-supervised",
)
"""``rerun-warm`` is served from the cache and asks nothing."""

FULL_FILLS = (
    ("mesh:16x16", 1, "west-first"),
    ("cube:8", 1, "p-cube"),
    ("torus:16x2", 2, "dateline-dimension-order"),
)
"""(topology, VC count, algorithm): the networks of Figures 13-16 and of
``vcsweep-array``, each with a certified algorithm.  A full fill asks
every key of its network once, so every certified algorithm on one
network asks the same number of questions."""


def _n(value: int) -> str:
    return f"{value:,}"


def ledger_block(path: Path = LEDGER) -> str:
    points = json.loads(path.read_text(encoding="utf-8"))["points"]
    lines = [
        "| point | network, algorithm, load | worm steps | bulk flit-hops "
        "| quiet / simulated cycles |",
        "|---|---|---:|---:|---:|",
    ]
    for pid, entry in points.items():
        if "worm_steps" not in entry:
            continue
        spec = entry["spec"]
        cycles = (
            spec["warmup_cycles"] + spec["measure_cycles"]
            + spec.get("drain_cycles", 0)
        )
        extras = []
        if spec.get("virtual_channels", 1) > 1:
            extras.append(f"{spec['virtual_channels']} VCs")
        if spec.get("fault_links"):
            extras.append(f"{spec['fault_links']} dead links, watchdog")
        if spec.get("observability"):
            extras.append("collectors on")
        shape = ", ".join(
            [spec["topology"], spec["algorithm"], f"load {spec['offered_load']}"]
            + extras
        )
        lines.append(
            f"| `{pid}` | {shape} | {_n(entry['worm_steps'])} "
            f"| {_n(entry['bulk_flit_hops'])} "
            f"| {_n(entry['quiet_cycles'])} / {_n(cycles)} |"
        )
    return "\n".join(lines)


class _Counter:
    """Counts ``NetworkTables._ask`` calls, by every table, while
    installed: a cold pass builds its tables deep in the runner."""

    def __init__(self) -> None:
        self.asked = 0

    def __enter__(self) -> "_Counter":
        self._original = original = table.NetworkTables._ask
        counter = self

        def counting(tables, port, dest, escape):
            counter.asked += 1
            return original(tables, port, dest, escape)

        table.NetworkTables._ask = counting
        return self

    def __exit__(self, *exc) -> None:
        table.NetworkTables._ask = self._original


def cold_pass_counts(seed: int = COLD_SEED) -> dict:
    """Workload name -> algorithm questions of one cold pass."""
    sys.path.insert(0, str(REPO / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(REPO / "bench"))
    counts = {}
    for name in COLD_WORKLOADS:
        with tempfile.TemporaryDirectory() as scratch:
            state = workloads.WORKLOADS[name].prepare(
                seed, workloads.SIZES["full"][name], Path(scratch)
            )
        # A cold process: no algorithm object or table built yet.
        runner._ALGORITHMS.clear()
        table._SHARED.clear()
        with _Counter() as counter:
            ParallelSweepRunner(jobs=1, cache=None).run_points(state.specs)
        counts[name] = counter.asked
    return counts


def cold_pass_block(seed: int = COLD_SEED) -> str:
    lines = [
        f"| workload (seed {seed}, one cold pass) | algorithm questions |",
        "|---|---:|",
    ]
    for name, asked in cold_pass_counts(seed).items():
        lines.append(f"| `{name}` | {_n(asked)} |")
    return "\n".join(lines)


class _CountingTables(table.NetworkTables):
    """:class:`~repro.routing.table.NetworkTables` that counts the
    questions it asks the algorithm."""

    __slots__ = ("asked",)

    def __init__(self, algorithm, num_vc: int = 1) -> None:
        self.asked = 0
        super().__init__(algorithm, num_vc)

    def _ask(self, port, dest, escape):
        self.asked += 1
        return super()._ask(port, dest, escape)


def full_fill(spec: str, num_vc: int, name: str) -> tuple:
    """(questions, decisions) of one full fill: every port a header can
    wait at, every destination, both query kinds."""
    algorithm = make_algorithm(name, parse_topology_spec(spec))
    tables = _CountingTables(algorithm, num_vc)
    nodes = algorithm.topology.nodes()
    for port, dest in itertools.product(tables.waiting_ports(), nodes):
        tables.minimal(port, dest)
        tables.escape(port, dest)
    return tables.asked, tables.num_entries


def decision_keys_block() -> str:
    lines = [
        "| network | algorithm | questions | decisions |",
        "|---|---|---:|---:|",
    ]
    for spec, num_vc, name in FULL_FILLS:
        network = spec if num_vc == 1 else f"{spec}, {num_vc} VCs"
        asked, decisions = full_fill(spec, num_vc, name)
        lines.append(f"| {network} | {name} | {_n(asked)} | {_n(decisions)} |")
    return "\n".join(lines)


BLOCKS = {
    "ledger": ledger_block,
    "cold-pass": cold_pass_block,
    "decision-keys": decision_keys_block,
}


def main() -> int:
    text = DOC.read_text(encoding="utf-8")
    DOC.write_text(
        splice(text, {name: render() for name, render in BLOCKS.items()}),
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
