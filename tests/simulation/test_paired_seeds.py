"""Paired seeds: at one seed every algorithm is offered the same messages,
until a source queue fills (docs/SIMULATOR.md, "Paired seeds").  The
scoreboard's per-seed ratios (``repro.analysis.claims``) rely on it."""

import pytest

from repro.routing import make_algorithm
from repro.simulation import SimulationConfig, WormholeSimulator
from repro.topology import Mesh2D
from repro.traffic import MeshTransposePattern, UniformPattern

MESH_ALGORITHMS = ("xy", "west-first", "north-last", "negative-first")


def generated(name, pattern_cls, **config):
    """Every message generated in one run, in generation order."""
    mesh = Mesh2D(6, 6)
    sim = WormholeSimulator(
        make_algorithm(name, mesh),
        pattern_cls(mesh),
        SimulationConfig(warmup_cycles=200, measure_cycles=4_000, seed=5, **config),
    )
    stream, enqueue = [], sim._life.enqueue

    def record(packet):
        stream.append((packet.src, packet.dst, packet.length, packet.created))
        enqueue(packet)

    sim._life.enqueue = record
    sim.run()
    return stream


@pytest.mark.parametrize("pattern_cls", [UniformPattern, MeshTransposePattern])
def test_streams_are_equal_across_algorithms_below_the_queue_cap(pattern_cls):
    streams = [generated(name, pattern_cls, offered_load=2.0) for name in MESH_ALGORITHMS]
    assert len(streams[0]) > 100
    assert all(stream == streams[0] for stream in streams[1:])


def test_streams_part_once_a_source_queue_is_full():
    """At overload with a one-message cap, a full queue swallows its
    arrival's draws; how fast each algorithm drains decides which."""
    xy, west_first = (
        generated(name, UniformPattern, offered_load=6.0, max_queue_per_node=1)
        for name in ("xy", "west-first")
    )
    assert xy != west_first
