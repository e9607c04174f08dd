"""Ablations and extensions beyond the paper's figures, each at its
original size and seed.

The paper fixes 1-flit buffers, the 10/200-flit mix, minimal routing,
xy/FCFS selection and one channel per link, and simulates only the 2D
mesh and the hypercube.  These cases vary one of those choices, or run
the Section 4 algorithms the paper derives but never simulates, and
check the direction of the effect.
"""

import random

import pytest

from repro.analysis import PointSpec, parse_topology_spec
from repro.routing import make_algorithm, torus_algorithms
from repro.simulation import SimulationConfig, WormholeSimulator
from repro.topology import Mesh2D
from repro.traffic import MeshComplementPattern
from repro.verification import mean_survival, random_fault_trials, verify_algorithm

pytestmark = pytest.mark.slow


def run(topology, algorithm, pattern, **config):
    config = SimulationConfig(**{"warmup_cycles": 1_500, "measure_cycles": 5_000, **config})
    return PointSpec(topology, algorithm, pattern, config).execute()


def test_deeper_buffers_lower_latency():
    shallow, deep = (
        run("mesh:16x16", "west-first", "uniform", offered_load=1.5, buffer_depth=d, seed=31)
        for d in (1, 8)
    )
    assert deep.avg_latency_us < shallow.avg_latency_us


def test_short_messages_have_lower_latency_than_long_ones():
    short, long = (
        run("mesh:16x16", "xy", "uniform", offered_load=1.2, message_lengths=m, seed=33)
        for m in ((10,), (200,))
    )
    assert short.avg_latency_us < long.avg_latency_us


def test_minimal_runs_take_no_misroutes_and_nothing_deadlocks():
    mesh = [
        run("mesh:16x16", "negative-first", "transpose", offered_load=1.5,
            misroute_limit=limit, seed=34)
        for limit in (0, 2, 6)
    ]
    cube = [
        run("cube:8", name, "transpose", offered_load=2.0, misroute_limit=limit, seed=34)
        for name, limit in (("p-cube", 0), ("p-cube-nonminimal", 4))
    ]
    assert mesh[0].total_misroutes == 0
    assert not any(r.deadlock for r in mesh + cube)


@pytest.mark.parametrize("output, input_", [
    ("xy", "fcfs"), ("random", "fcfs"), ("zigzag", "fcfs"), ("xy", "random")])
def test_every_selection_policy_delivers(output, input_):
    result = run("mesh:16x16", "west-first", "transpose", offered_load=1.5,
                 output_selection=output, input_selection=input_, seed=32)
    assert result.delivered_packets > 0


def test_fcfs_input_selection_bounds_the_longest_wait():
    fcfs, rand = (
        run("mesh:16x16", "west-first", "transpose", offered_load=1.6,
            measure_cycles=6_000, input_selection=policy, seed=51)
        for policy in ("fcfs", "random")
    )
    assert fcfs.max_grant_wait_cycles < 6_000
    assert fcfs.delivered_packets > 0 and rand.delivered_packets > 0


def test_adaptive_algorithms_survive_more_random_faults():
    mesh = Mesh2D(8, 8)
    survival = {
        name: [
            mean_survival(random_fault_trials(
                make_algorithm(name, mesh), num_faults=n, trials=4,
                sample_pairs=150, rng=random.Random(100 + n)))
            for n in (1, 2, 4, 8)
        ]
        for name in ("xy", "west-first", "negative-first")
    }
    for adaptive in ("west-first", "negative-first"):
        assert sum(survival[adaptive]) > sum(survival["xy"])
    for row in survival.values():  # more faults never raise survival
        assert all(a >= b - 0.05 for a, b in zip(row, row[1:]))


def test_three_dimensional_mesh_runs_without_deadlock():
    mesh = parse_topology_spec("mesh:4x4x4")
    config = SimulationConfig(offered_load=1.0, warmup_cycles=1_500,
                              measure_cycles=5_000, seed=42)
    for name in ("dimension-order", "abonf", "abopl", "negative-first"):
        result = WormholeSimulator(
            make_algorithm(name, mesh), MeshComplementPattern(mesh), config).run()
        assert not result.deadlock and result.delivered_packets > 0


def test_torus_algorithms_are_deadlock_free_and_use_the_wraparound():
    for algorithm in torus_algorithms(parse_topology_spec("torus:8x2")):
        assert verify_algorithm(algorithm).deadlock_free, algorithm.name
        result = run("torus:8x2", algorithm.name, "uniform", offered_load=1.5, seed=41)
        assert not result.deadlock and result.delivered_packets > 0
        assert result.avg_hops < 6.0, algorithm.name


def test_a_second_virtual_channel_never_costs_west_first_throughput():
    wf1, wf2, escape = (
        run("mesh:16x16", name, "transpose", offered_load=1.75,
            virtual_channels=vcs, seed=61)
        for name, vcs in (("west-first", 1), ("west-first", 2),
                          ("escape-vc-adaptive", 2))
    )
    assert not any(r.deadlock for r in (wf1, wf2, escape))
    assert wf2.throughput_flits_per_us >= 0.9 * wf1.throughput_flits_per_us


def test_dateline_virtual_channels_give_minimal_torus_routing():
    result = run("torus:8x2", "dateline-dimension-order", "uniform",
                 offered_load=1.0, virtual_channels=2, seed=62)
    assert not result.deadlock
    assert result.avg_hops < 4.4
