"""Runtime deadlock diagnostics: the wait-for graph of a live simulation.

The engine's watchdog detects total silence; this module explains it.  A
packet whose header waits for channels all held by other packets *waits
for* those packets; a cycle in that relation is a circular wait — exactly
the Figure 1 scenario.  Used by the deadlock demonstrations and by the
integration tests that show the paper's prohibition counterexamples
(Figure 4) deadlocking in practice while the turn-model algorithms never
do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..verification.graph import DiGraph
from .engine import WormholeSimulator
from .packet import Packet, PacketState


@dataclass
class DeadlockReport:
    """A snapshot of the circular waits in a simulator."""

    waiting_packets: int
    blocked_packets: int
    cycles: List[List[Packet]]

    @property
    def deadlocked(self) -> bool:
        return bool(self.cycles)

    def describe(self, topology=None) -> str:
        if not self.cycles:
            return "no circular wait"
        lines = [f"{len(self.cycles)} circular wait(s):"]
        for cyc in self.cycles:
            hops = " -> ".join(
                f"#{p.pid}@{p.head_node}" for p in cyc
            )
            lines.append(f"  {hops} -> #{cyc[0].pid}")
        return "\n".join(lines)


def build_wait_for_graph(sim: WormholeSimulator) -> DiGraph:
    """Packet-level wait-for graph of the simulator's current state.

    ``P -> Q`` when P's header is waiting and *every* channel P could use
    next is held by some packet, Q being one of the holders.  (Headers
    with at least one free candidate are not waiting on anyone — they
    will be granted within a cycle.)
    """
    graph: DiGraph = DiGraph()
    for packet in sim.waiting:
        if packet.state is PacketState.EJECT_WAIT:
            holder = sim.ejection_alloc[packet.head_node]
            if holder is not None and holder is not packet:
                graph.add_edge(packet, holder)
            continue
        # The engine's own decision: the shared tables' answer, through
        # the run's fault mask when it has a fault plan.
        holders = [
            sim.channel_alloc[cid]
            for _, cid, _ in sim._minimal(sim._port(packet), packet.dst)
        ]
        if all(holder is not None for holder in holders):
            for holder in holders:
                if holder is not packet:
                    graph.add_edge(packet, holder)
    return graph


def detect_deadlock(sim: WormholeSimulator) -> DeadlockReport:
    """Report the circular waits (if any) in the simulator right now."""
    graph = build_wait_for_graph(sim)
    cycles = graph.cyclic_components()
    blocked = graph.num_nodes()
    return DeadlockReport(
        waiting_packets=len(sim.waiting),
        blocked_packets=blocked,
        cycles=[list(c) for c in cycles],
    )
