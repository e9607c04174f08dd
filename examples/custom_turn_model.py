#!/usr/bin/env python3
"""Design your own routing algorithm with the turn model.

Walks the six steps of Section 2 for a custom prohibition set —
"south-last" (the 90-degree rotation of north-last): prohibit both turns
out of south.  The turn model machinery checks each step, the CDG
verifier certifies deadlock freedom, and the maximal turn-restricted
routing function drops straight into the simulator.

Run:  python examples/custom_turn_model.py
"""

from repro import Mesh2D, SimulationConfig, UniformPattern, WormholeSimulator
from repro.core import Turn, TurnModel, abstract_cycles, count_shortest_paths
from repro.routing import TurnRestrictedMinimal
from repro.topology import EAST, SOUTH, WEST
from repro.verification import check_connectivity, verify_turn_set


def main() -> None:
    mesh = Mesh2D(16, 16)

    # Steps 1-3: directions, turns, and abstract cycles are intrinsic to
    # the 2D mesh.
    cycles = abstract_cycles(2)
    print(f"Step 1-3: 2 directions/dim, 8 turns, {len(cycles)} abstract cycles")

    # Step 4: prohibit one turn per cycle.  South-last: both turns out of
    # south (south->west from the CCW cycle, south->east from the CW one).
    model = TurnModel.from_prohibited(
        "south-last", 2, {Turn(SOUTH, WEST), Turn(SOUTH, EAST)}
    )
    print(f"Step 4: prohibit {sorted(map(repr, model.prohibited))}")
    print(f"        breaks every abstract cycle: {model.breaks_all_cycles()}")
    print(f"        minimal prohibition (max adaptive): "
          f"{model.is_minimal_prohibition()}")

    # Steps 5-6 do not apply (no wraparound channels; we keep reversals
    # prohibited).  Now certify the result on the concrete network.
    verdict = verify_turn_set(mesh, model)
    print(f"CDG check: deadlock free = {verdict.deadlock_free} "
          f"({verdict.num_dependencies} dependencies examined)")

    # The maximal minimal-adaptive routing function for the model.
    algorithm = TurnRestrictedMinimal(mesh, model)
    report = check_connectivity(algorithm)
    print(f"connectivity: {report.delivered_pairs}/{report.total_pairs} pairs, "
          f"minimal everywhere: {report.minimal_everywhere}")

    # Degree of adaptiveness for one pair.
    src, dst = mesh.node_xy(2, 6), mesh.node_xy(9, 1)
    paths = count_shortest_paths(algorithm.candidates, mesh, src, dst)
    print(f"shortest paths offered from (2,6) to (9,1): {paths}")

    # And it simulates like any built-in algorithm.
    config = SimulationConfig(
        offered_load=1.0, warmup_cycles=1_000, measure_cycles=4_000, seed=7
    )
    result = WormholeSimulator(algorithm, UniformPattern(mesh), config).run()
    print(f"simulated: {result.summary()}")


if __name__ == "__main__":
    main()
