#!/usr/bin/env python3
"""Collect the paper-vs-measured dataset behind EXPERIMENTS.md.

Runs every figure's sweep at a medium preset (denser than the FAST
preset), plus the cube-uniform reference sweep that Section 6's
cross-figure claims need, once per seed in ``SEEDS``.  Writes the rows
and the exact quantities to one schema-versioned data file
(``docs/data/experiments.json``, read by ``repro.analysis.claims``),
then rewrites EXPERIMENTS.md's generated blocks (the scoreboard and one
block per figure) from it.  The prose around them is hand-written.

The sweeps route through the parallel experiment runner and take the
batch commands' runner flags (``repro.cli.add_runner_flags``):
``--jobs N`` fans the points over N worker processes, the on-disk result
cache makes re-collection close to free (docs/PERFORMANCE.md), and the
supervision flags bound, retry and checkpoint points
(docs/RESILIENCE.md).  If any point fails for good, nothing is written.

Run:  python scripts/collect_experiments.py [outfile] [--jobs N]
          [--no-cache] [--cache-dir DIR] ...  (``--help`` lists all)
"""

import argparse
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro.analysis import FIGURE_HARNESSES, ExperimentPreset, compare_algorithms
from repro.analysis import claims
from repro.cli import add_runner_flags, finish_runner, make_runner
from repro.routing import hypercube_algorithms
from repro.topology import Hypercube
from repro.traffic import UniformPattern

REPO = Path(__file__).resolve().parent.parent
DOC = REPO / "EXPERIMENTS.md"

SEEDS = range(1, 9)

MEDIUM = ExperimentPreset(
    warmup_cycles=3_000,
    measure_cycles=9_000,
    mesh_loads=(0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5),
    cube_loads=(0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0),
)


def cube_uniform(preset, progress=None, runner=None):
    cube = Hypercube(8)
    return compare_algorithms(
        hypercube_algorithms(cube),
        lambda topo: UniformPattern(topo),
        preset.cube_loads,
        preset.config(),
        progress,
        runner=runner,
    )


# one harness and load grid per figure id of repro.analysis.claims.FIGURES
HARNESSES = {**FIGURE_HARNESSES, "cube-uniform": cube_uniform}
LOADS = {
    figure: MEDIUM.mesh_loads if lineup == claims.MESH else MEDIUM.cube_loads
    for figure, (_, lineup, _) in claims.FIGURES.items()
}


def simulate(runner):
    """Every (figure, seed) sweep; the rows of the completed points."""
    rows = []
    for seed in SEEDS:
        preset = replace(MEDIUM, seed=seed)
        start = time.time()
        for figure, harness in HARNESSES.items():
            for series in harness(preset, runner=runner):
                rows.extend(
                    claims.Row(
                        figure,
                        series.algorithm,
                        seed,
                        r.offered_load,
                        round(r.throughput_flits_per_us, 3),
                        r.avg_latency_us and round(r.avg_latency_us, 3),
                        r.sustainable,
                        round(r.avg_hops, 4),
                    )
                    for r in series.completed_results()
                )
        print(f"seed {seed}: {time.time() - start:.0f}s", flush=True)
    return rows


def check_outputs(parser, outfile: Path) -> None:
    """Fail before simulating anything: both outputs must be writable,
    and EXPERIMENTS.md must hold every generated block's markers."""
    for path in (outfile.parent, DOC):
        if not os.access(path, os.W_OK):
            parser.error(f"{path} does not exist or is not writable")
    try:
        claims.splice(DOC.read_text(encoding="utf-8"), dict.fromkeys(claims.BLOCKS, ""))
    except ValueError as exc:
        parser.error(f"{DOC}: {exc}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "outfile",
        nargs="?",
        type=Path,
        default=REPO / "docs" / "data" / "experiments.json",
        help="the data file (default docs/data/experiments.json)",
    )
    add_runner_flags(parser)
    args = parser.parse_args(argv)
    check_outputs(parser, args.outfile)
    try:
        runner = make_runner(args)
    except ValueError as exc:
        parser.error(str(exc))
    t0 = time.time()
    rows = simulate(runner)
    if runner.failures:
        print("points failed: nothing written", file=sys.stderr)
        return finish_runner(runner, args)
    args.outfile.write_text(
        claims.format_experiments(
            list(SEEDS),
            LOADS,
            rows,
            claims.exact_quantities(),
            {
                "warmup_cycles": MEDIUM.warmup_cycles,
                "measure_cycles": MEDIUM.measure_cycles,
            },
        ),
        encoding="utf-8",
    )
    data = claims.load_experiments(args.outfile)
    text = DOC.read_text(encoding="utf-8")
    DOC.write_text(claims.splice(text, claims.render_blocks(data)), encoding="utf-8")
    print(claims.render_scoreboard(data))
    print(f"\nwritten to {args.outfile} and {DOC} [{time.time() - t0:.0f}s]")
    return finish_runner(runner, args)


if __name__ == "__main__":
    sys.exit(main())
