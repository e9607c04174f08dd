#!/usr/bin/env python3
"""Collect the full paper-vs-measured dataset behind EXPERIMENTS.md.

Runs every figure's sweep at a medium preset (denser than the benchmark
FAST preset), plus the cube-uniform reference sweep that Section 6's
cross-figure claims need, and prints one consolidated report.

The sweeps route through the parallel experiment runner: ``--jobs N``
fans the operating points over N worker processes, and the on-disk
result cache makes re-collection after an interruption (or a doc-only
change) close to free.  See docs/PERFORMANCE.md.

Long collections survive worker trouble with the batch commands' shared
runner flags (``repro.cli.add_runner_flags``; docs/RESILIENCE.md):
``--point-timeout``/``--max-point-retries`` bound and retry misbehaving
points, ``--keep-going`` finishes the collection around permanent
failures (exit code 3, ``--failure-manifest`` lists them), and
``--journal``/``--resume`` checkpoint completed points so a killed
collection picks up where it left off.

Run:  python scripts/collect_experiments.py [outfile] [--jobs N]
          [--no-cache] [--cache-dir DIR] [--force] ...  (``--help`` lists all)
"""

import argparse
import sys
import time

from repro.analysis import (
    ExperimentPreset,
    adaptive_vs_nonadaptive,
    compare_algorithms,
    figure13_mesh_uniform,
    figure14_mesh_transpose,
    figure15_cube_transpose,
    figure16_cube_reverse_flip,
    format_figure,
    paper_hop_counts,
)
from repro.cli import add_runner_flags, finish_runner, make_runner
from repro.routing import hypercube_algorithms
from repro.topology import Hypercube
from repro.traffic import UniformPattern

MEDIUM = ExperimentPreset(
    warmup_cycles=3_000,
    measure_cycles=9_000,
    mesh_loads=(0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.5),
    cube_loads=(0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0),
    seed=7,
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "outfile",
        nargs="?",
        default="benchmarks/results/experiments_summary.txt",
    )
    add_runner_flags(parser)
    args = parser.parse_args(argv)
    out_path = args.outfile
    try:
        runner = make_runner(args)
    except ValueError as exc:
        parser.error(str(exc))
    sections = []
    t0 = time.time()

    hops = paper_hop_counts()
    sections.append(
        "== hop counts ==\n"
        + "\n".join(f"{k:20s} {float(v):.4f}" for k, v in hops.items())
    )

    harnesses = [
        ("fig13 mesh uniform", figure13_mesh_uniform),
        ("fig14 mesh transpose", figure14_mesh_transpose),
        ("fig15 cube transpose", figure15_cube_transpose),
        ("fig16 cube reverse-flip", figure16_cube_reverse_flip),
        ("ref: cube uniform", cube_uniform),
    ]
    for title, harness in harnesses:
        start = time.time()
        series = harness(MEDIUM, runner=runner)
        block = format_figure(title, series)
        try:
            ratio = adaptive_vs_nonadaptive(series)
            block += (
                f"\nbest adaptive ({ratio.best_adaptive}) / "
                f"{ratio.nonadaptive}: "
                f"{ratio.ratio and round(ratio.ratio, 2)}"
            )
        except ValueError:
            pass
        block += f"\n[{time.time() - start:.0f}s]"
        sections.append(block)
        print(block, flush=True)

    report = (
        "\n\n".join(sections)
        + f"\n\ntotal {time.time() - t0:.0f}s [{runner.stats.summary()}]\n"
    )
    with open(out_path, "w") as fh:
        fh.write(report)
    print(f"\nwritten to {out_path}")
    return finish_runner(runner, args)


if __name__ == "__main__":
    sys.exit(main())
