"""Unit tests for the wait-for-graph deadlock diagnostics."""

from repro.core import TurnModel
from repro.core.turns import Turn
from repro.faults.plan import FaultEvent, FaultPlan
from repro.routing import TurnRestrictedMinimal, XY
from repro.simulation import (
    SimulationConfig,
    WormholeSimulator,
    build_wait_for_graph,
    detect_deadlock,
)
from repro.simulation.packet import PacketState
from repro.topology import Mesh2D
from repro.topology.base import EAST, NORTH, SOUTH, WEST
from repro.traffic import UniformPattern


def quiet_sim(mesh, algorithm=None):
    algorithm = algorithm or XY(mesh)
    config = SimulationConfig(
        offered_load=0.0, warmup_cycles=0, measure_cycles=1_000, seed=1
    )
    return WormholeSimulator(algorithm, UniformPattern(mesh), config)


class TestWaitForGraph:
    def test_empty_simulator_has_no_waits(self):
        sim = quiet_sim(Mesh2D(4, 4))
        report = detect_deadlock(sim)
        assert not report.deadlocked
        assert report.waiting_packets == 0
        assert "no circular wait" in report.describe()

    def test_single_blocked_packet_waits_on_holder(self):
        mesh = Mesh2D(6, 6)
        sim = quiet_sim(mesh)
        blocker = sim.inject_packet(
            mesh.node_xy(0, 0), mesh.node_xy(5, 0), 300, created=0
        )
        for _ in range(4):
            sim.step()
        victim = sim.inject_packet(
            mesh.node_xy(2, 1), mesh.node_xy(5, 1), 10, created=sim.cycle
        )
        # xy keeps the victim on row 1, so it never conflicts; use a
        # same-row victim instead.
        victim2 = sim.inject_packet(
            mesh.node_xy(1, 0), mesh.node_xy(4, 0), 10, created=sim.cycle
        )
        for _ in range(6):
            sim.step()
        graph = build_wait_for_graph(sim)
        if victim2.state is PacketState.ROUTING:
            assert graph.has_edge(victim2, blocker)
        # No cycle: the blocker is not waiting on the victim.
        assert not detect_deadlock(sim).deadlocked

    def test_ejection_wait_edges(self):
        mesh = Mesh2D(6, 6)
        sim = quiet_sim(mesh)
        dst = mesh.node_xy(3, 3)
        first = sim.inject_packet(mesh.node_xy(0, 3), dst, 200, created=0)
        second = sim.inject_packet(mesh.node_xy(3, 0), dst, 10, created=0)
        for _ in range(12):
            sim.step()
        graph = build_wait_for_graph(sim)
        if second.state is PacketState.EJECT_WAIT:
            assert graph.has_edge(second, first)

    def test_real_deadlock_produces_cycles(self):
        mesh = Mesh2D(6, 6)
        anything = TurnRestrictedMinimal(
            mesh, TurnModel.from_prohibited("none", 2, set())
        )
        config = SimulationConfig(
            offered_load=8.0,
            warmup_cycles=0,
            measure_cycles=30_000,
            deadlock_threshold=1_200,
            seed=3,
        )
        sim = WormholeSimulator(anything, UniformPattern(mesh), config)
        result = sim.run()
        assert result.deadlock
        report = detect_deadlock(sim)
        assert report.deadlocked
        # Every reported cycle is a genuine closed chain of waits.
        graph = build_wait_for_graph(sim)
        for cycle in report.cycles:
            for packet in cycle:
                assert packet.in_network
        assert report.blocked_packets >= len(report.cycles[0])
        assert "circular wait" in report.describe()


def direct_wait_for_edges(sim):
    """The wait-for edges read from the algorithm itself — through the
    run's fault mask (``sim.algorithm`` wraps it when there is a fault
    plan) — rather than from the engine's tables."""
    edges = set()
    for packet in sim.waiting:
        if packet.state is PacketState.EJECT_WAIT:
            holder = sim.ejection_alloc[packet.head_node]
            if holder is not None and holder is not packet:
                edges.add((packet, holder))
            continue
        wanted = sim.algorithm.vc_candidates(
            packet.head_node, packet.dst, packet.head_direction,
            packet.head_vc, sim.num_vc,
        )
        holders = [
            sim.channel_alloc[sim.channel_ids[(packet.head_node, d)] + vc]
            for d, vc in wanted
        ]
        if all(holder is not None for holder in holders):
            edges |= {(packet, h) for h in holders if h is not packet}
    return edges


def graph_edges(graph):
    return {(src, dst) for src in graph.nodes() for dst in graph.successors(src)}


class TestDecisionsTheEngineMakes:
    """The wait-for graph reads the engine's own routing decisions: every
    virtual channel of a wanted link, and no channel the fault plan
    killed."""

    def test_two_vc_deadlock(self):
        # Only the four clockwise turns are allowed: Figure 1's ring.
        clockwise = TurnModel.from_prohibited("clockwise", 2, [
            Turn(EAST, NORTH), Turn(NORTH, WEST),
            Turn(WEST, SOUTH), Turn(SOUTH, EAST),
        ])
        mesh = Mesh2D(6, 6)
        config = SimulationConfig(
            offered_load=8.0, warmup_cycles=0, measure_cycles=5_000,
            deadlock_threshold=300, seed=1, virtual_channels=2,
        )
        sim = WormholeSimulator(
            TurnRestrictedMinimal(mesh, clockwise), UniformPattern(mesh), config
        )
        assert sim.run().deadlock
        report = detect_deadlock(sim)
        assert report.deadlocked
        assert {p.head_vc for cycle in report.cycles for p in cycle} == {0, 1}
        assert graph_edges(build_wait_for_graph(sim)) == (
            direct_wait_for_edges(sim)
        )

    def test_dead_channels_close_a_ring(self):
        """Fully adaptive routing on a 2x2 mesh cannot deadlock four
        diagonal packets, until the faults remove each one's
        counter-clockwise first hop: the masked answers then wait in a
        ring, where the unmasked ones would see a free dead channel."""
        mesh = Mesh2D(2, 2)
        cut = [((0, 0), EAST), ((0, 1), SOUTH), ((1, 1), WEST), ((1, 0), NORTH)]
        events = tuple(
            FaultEvent.channel(next(
                c for c in mesh.channels()
                if c.src == mesh.node_xy(*corner) and c.direction == direction
            ))
            for corner, direction in cut
        )
        anything = TurnRestrictedMinimal(
            mesh, TurnModel.from_prohibited("none", 2, set())
        )
        config = SimulationConfig(
            offered_load=0.0, warmup_cycles=0, measure_cycles=1_000, seed=1,
            fault_plan=FaultPlan(events=events),
        )
        sim = WormholeSimulator(anything, UniformPattern(mesh), config)
        for (x, y), _ in cut:
            sim.inject_packet(
                mesh.node_xy(x, y), mesh.node_xy(1 - x, 1 - y), 40, created=0
            )
        for _ in range(30):
            sim.step()
        report = detect_deadlock(sim)
        assert [len(cycle) for cycle in report.cycles] == [4]
        assert graph_edges(build_wait_for_graph(sim)) == (
            direct_wait_for_edges(sim)
        )
