"""Channel dependency graphs — the Dally–Seitz deadlock-freedom check.

A wormhole routing algorithm is deadlock free if its *channel dependency
graph* (CDG) is acyclic: nodes are the network's channels, and an edge
``c1 -> c2`` records that some packet can hold ``c1`` while waiting for
``c2``.  (Acyclicity is sufficient for adaptive routing; for the
relations built here — which include every choice the algorithm could
make — a cycle also pinpoints a genuinely reachable circular wait.)

Two relations are supported:

* :func:`algorithm_cdg` — the dependencies of a concrete routing
  *function* (destination-dependent), used to verify every algorithm in
  the paper on real topologies; :func:`vc_algorithm_cdg` builds the same
  over (channel, VC) states, and both walk one closure of minimal and
  escape moves;
* :func:`turn_set_cdg` — the dependencies allowed by a bare prohibition
  set (any packet may take any allowed turn, regardless of destination),
  used for Section 3's claim that exactly 12 of the 16 two-turn
  prohibitions prevent deadlock, and for the Figure 4 counterexamples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from ..core.turn_model import TurnModel
from ..topology.base import Channel, Topology
from .graph import DiGraph

State = Tuple[Channel, int]
"""A virtual channel: a physical channel and its VC index."""


@dataclass
class DeadlockVerdict:
    """Result of a CDG check, with a witness cycle when one exists."""

    deadlock_free: bool
    cycle: Optional[List[Channel]]
    num_channels: int
    num_dependencies: int

    def __bool__(self) -> bool:
        return self.deadlock_free


def _requests(
    algorithm, moves
) -> Iterator[Tuple[Optional[State], List[State], List[State]]]:
    """Every request a packet can make, over every destination.

    ``moves(node, dest, in_direction, in_vc)`` lists the ``(direction,
    vc)`` pairs a header may ask for as two lists, its minimal moves and
    its escape (misroute) moves; ``in_direction`` and ``in_vc`` are None
    at its source.  Seeds every source's first hops, then closes the
    (channel, vc) states under both kinds of move, yielding ``(held,
    minimal, escape)`` once per reachable state: ``held`` is the state
    the packet waits in (None at its source), ``minimal`` and ``escape``
    the states it may request there.
    """
    topology: Topology = algorithm.topology

    for dest in topology.nodes():
        seen = set()
        frontier: List[State] = []

        def offer(node, in_direction, in_vc) -> List[List[State]]:
            offered = []
            for pairs in moves(node, dest, in_direction, in_vc):
                states = []
                for direction, vc in pairs:
                    channel = topology.channel(node, direction)
                    if channel is None:
                        continue
                    states.append((channel, vc))
                    if (channel, vc) not in seen:
                        seen.add((channel, vc))
                        frontier.append((channel, vc))
                offered.append(states)
            return offered

        for src in topology.nodes():
            if src != dest:
                yield (None, *offer(src, None, None))
        while frontier:
            held = frontier.pop()
            channel, vc = held
            if channel.dst != dest:
                yield (held, *offer(channel.dst, channel.direction, vc))


def _vc_moves(algorithm, num_vc: int):
    """Minimal and escape ``(direction, vc)`` moves at ``num_vc`` VCs,
    out-of-range VCs dropped."""

    def moves(node, dest, in_direction, in_vc):
        return [
            [
                (direction, vc)
                for direction, vc in query(node, dest, in_direction, in_vc, num_vc)
                if 0 <= vc < num_vc
            ]
            for query in (algorithm.vc_candidates, algorithm.vc_escape_candidates)
        ]

    return moves


def algorithm_cdg(algorithm) -> DiGraph:
    """CDG of a routing function over every destination.

    For each destination ``t`` and each channel ``c1 = (u -> v)`` the
    algorithm could output at ``u`` for ``t``, add ``c1 -> c2`` for every
    channel ``c2`` the algorithm may request next at ``v``.  Escape
    (nonminimal) candidates are included, so nonminimal variants are
    verified against their full behaviour.
    """

    def moves(node, dest, in_direction, in_vc):
        return [
            [(direction, 0) for direction in query(node, dest, in_direction)]
            for query in (algorithm.candidates, algorithm.escape_candidates)
        ]

    graph: DiGraph = DiGraph()
    for channel in algorithm.topology.channels():
        graph.add_node(channel)
    for held, minimal, escape in _requests(algorithm, moves):
        if held is not None:
            for channel, _ in minimal + escape:
                graph.add_edge(held[0], channel)
    return graph


def vc_algorithm_cdg(algorithm, num_vc: int) -> DiGraph:
    """CDG over *virtual* channels — nodes are ``(channel, vc)`` pairs.

    Verifies VC-disciplined algorithms (dateline torus routing,
    escape-VC adaptive routing) the same way :func:`algorithm_cdg`
    verifies plain ones, over the ``vc_candidates`` and
    ``vc_escape_candidates`` relation; at one VC its edges are
    :func:`algorithm_cdg`'s.
    """
    graph: DiGraph = DiGraph()
    for held, minimal, escape in _requests(algorithm, _vc_moves(algorithm, num_vc)):
        if held is not None:
            for state in minimal + escape:
                graph.add_edge(held, state)
    return graph


def verify_vc_algorithm(algorithm, num_vc: int) -> DeadlockVerdict:
    """Deadlock-freedom verdict for a VC-disciplined routing algorithm."""
    return _verdict(vc_algorithm_cdg(algorithm, num_vc))


def verify_escape_discipline(
    algorithm, num_vc: int, escape_vc: int = 0
) -> DeadlockVerdict:
    """Duato-style deadlock-freedom check for escape-channel routing.

    CDG acyclicity is *sufficient* for deadlock freedom, not necessary:
    a fully adaptive algorithm whose adaptive virtual channels form
    cycles is still deadlock free when (1) its *escape* subnetwork's
    dependencies are acyclic and packets on it stay on it, and (2) every
    reachable waiting state offers at least one escape-VC candidate
    among its minimal moves.  This function checks both conditions over
    all destinations.
    """
    escape_graph: DiGraph = DiGraph()
    always_escapable = True
    for held, minimal, escape in _requests(algorithm, _vc_moves(algorithm, num_vc)):
        # Escape (misroute) moves are offered only while a packet's
        # misroute budget lasts, so only a minimal offer satisfies (2).
        if not any(vc == escape_vc for _, vc in minimal):
            always_escapable = False
        if held is not None and held[1] == escape_vc:
            for state in minimal + escape:
                if state[1] == escape_vc:
                    escape_graph.add_edge(held, state)
    verdict = _verdict(escape_graph)
    verdict.deadlock_free = always_escapable and verdict.deadlock_free
    return verdict


def turn_set_cdg(topology: Topology, model: TurnModel) -> DiGraph:
    """CDG of everything a prohibition set permits (destination-blind).

    ``c1 -> c2`` whenever the turn from ``c1``'s direction to ``c2``'s is
    allowed (straight moves always; reversals only if listed in
    ``allow_180``).  Acyclicity of this graph certifies that *every*
    routing algorithm confined to the allowed turns — minimal or not — is
    deadlock free.
    """
    graph: DiGraph = DiGraph()
    for channel in topology.channels():
        graph.add_node(channel)
    for c1 in topology.channels():
        for direction in topology.directions():
            if not model.is_allowed(c1.direction, direction):
                continue
            c2 = topology.channel(c1.dst, direction)
            if c2 is not None:
                graph.add_edge(c1, c2)
    return graph


def _verdict(graph: DiGraph) -> DeadlockVerdict:
    cycle = graph.find_cycle()
    return DeadlockVerdict(
        deadlock_free=cycle is None,
        cycle=cycle,
        num_channels=graph.num_nodes(),
        num_dependencies=graph.num_edges(),
    )


def verify_algorithm(algorithm) -> DeadlockVerdict:
    """Deadlock-freedom verdict for a concrete routing algorithm."""
    return _verdict(algorithm_cdg(algorithm))


def verify_turn_set(topology: Topology, model: TurnModel) -> DeadlockVerdict:
    """Deadlock-freedom verdict for a bare prohibition set on a topology."""
    return _verdict(turn_set_cdg(topology, model))


def turn_set_is_deadlock_free(topology: Topology, model: TurnModel) -> bool:
    return verify_turn_set(topology, model).deadlock_free
