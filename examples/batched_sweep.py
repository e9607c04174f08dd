#!/usr/bin/env python3
"""Batched sweeps on the numpy array backend.

The array backend (``SimulationConfig(backend="array")``, optional
``repro[array]`` extra) packs worm state into struct-of-arrays and
advances every in-flight worm per cycle with boolean-mask kernels;
``BatchSimulator`` stacks many independent operating points into one
shared arena so a whole seed or load sweep is a handful of numpy
passes.  Every result is bit-identical to the event engine — this
example proves it on its own output.

Run:  python examples/batched_sweep.py
"""

from dataclasses import replace

from repro import (
    BatchSimulator,
    Mesh2D,
    SimulationConfig,
    UniformPattern,
    WestFirst,
    WormholeSimulator,
    numpy_available,
)

LOADS = (0.5, 1.0, 1.5, 2.0)
SEEDS = (3, 5, 7)


def main() -> None:
    if not numpy_available():
        print(
            "numpy is not installed — the array backend needs the "
            'repro[array] extra (pip install -e ".[array]").'
        )
        return

    mesh = Mesh2D(16, 16)
    base = SimulationConfig(
        warmup_cycles=500,
        measure_cycles=2_000,
        backend="array",
    )

    # A load x seed grid as ONE batched engine pass: 12 operating
    # points, one arena.  (repro sweep --backend array and the figure
    # harnesses batch exactly like this via ParallelSweepRunner.)
    # Points that name the same algorithm *object* share its routing
    # tables and LUTs, so build it once.
    algorithm = WestFirst(mesh)
    points = [
        (algorithm, UniformPattern(mesh),
         replace(base, offered_load=load, seed=seed))
        for load in LOADS
        for seed in SEEDS
    ]
    results = BatchSimulator(points).run()

    print(f"{len(points)} operating points in one batched pass:\n")
    print("load   seed   avg latency (us)   throughput (flits/us)")
    for (_, _, config), result in zip(points, results):
        print(
            f"{config.offered_load:4.1f}   {config.seed:4d}"
            f"   {result.avg_latency_us:16.2f}"
            f"   {result.throughput_flits_per_us:21.2f}"
        )

    # Bit-identical to the event engine: re-run one point solo and
    # compare the complete result dictionaries.
    algorithm, pattern, config = points[0]
    solo = WormholeSimulator(
        algorithm, pattern, replace(config, backend="event")
    ).run()
    match = solo.to_dict() == results[0].to_dict()
    print(f"\nevent-engine re-run of point 0 matches bit-for-bit: {match}")


if __name__ == "__main__":
    main()
