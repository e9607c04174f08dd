"""Path utilities: walk, enumerate, and validate routes produced by a
routing algorithm.

Used by the adaptiveness cross-checks, the numbering property tests, and
the examples; the simulator does its own walking flit by flit.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from ..topology.base import Channel, Direction, Topology
from .base import RoutingAlgorithm


class RoutingDeadEnd(RuntimeError):
    """Raised when an algorithm offers no candidate before the destination."""


class RoutingLivelock(RuntimeError):
    """Raised when a walk exceeds its hop budget."""


def walk(
    algorithm: RoutingAlgorithm,
    src: int,
    dst: int,
    choose: Optional[Callable[[Sequence[Direction]], Direction]] = None,
    rng: Optional[random.Random] = None,
    max_hops: Optional[int] = None,
    initial_direction: Optional[Direction] = None,
) -> List[int]:
    """Follow the algorithm from ``src`` to ``dst``, returning the node path.

    ``choose`` picks among candidates (default: uniformly at random with
    ``rng``, or the first candidate when neither is given).
    ``initial_direction`` is the heading the packet arrives at ``src``
    with (None = injection).  Raises :class:`RoutingDeadEnd` if the
    algorithm strands the packet, and :class:`RoutingLivelock` if
    ``max_hops`` is exceeded.
    """
    topology = algorithm.topology
    if max_hops is None:
        max_hops = 4 * sum(topology.dims) + 16
    if choose is None:
        if rng is not None:
            choose = rng.choice
        else:
            choose = lambda options: options[0]  # noqa: E731
    path = [src]
    current = src
    in_direction: Optional[Direction] = initial_direction
    hops = 0
    while current != dst:
        options = algorithm.candidates(current, dst, in_direction)
        if not options:
            raise RoutingDeadEnd(
                f"{algorithm.name} stranded a packet at node {current} "
                f"(dest {dst}, path so far {path})"
            )
        direction = choose(options)
        nxt = topology.neighbor(current, direction)
        if nxt is None:
            raise RoutingDeadEnd(
                f"{algorithm.name} pointed off the network: node {current} "
                f"has no neighbour in {direction!r}"
            )
        path.append(nxt)
        in_direction = direction
        current = nxt
        hops += 1
        if hops > max_hops:
            raise RoutingLivelock(
                f"{algorithm.name} exceeded {max_hops} hops from {src} to "
                f"{dst}; path so far {path}"
            )
    return path


def path_channels(topology: Topology, node_path: Sequence[int]) -> List[Channel]:
    """Convert a node path into the channel sequence it traverses."""
    channels: List[Channel] = []
    for here, there in zip(node_path, node_path[1:]):
        found = None
        for direction in topology.directions():
            if topology.neighbor(here, direction) == there:
                found = topology.channel(here, direction)
                break
        if found is None:
            raise ValueError(f"{here} and {there} are not neighbours")
        channels.append(found)
    return channels


def enumerate_minimal_paths(
    algorithm: RoutingAlgorithm,
    src: int,
    dst: int,
    limit: Optional[int] = None,
) -> Iterator[Tuple[int, ...]]:
    """Yield every shortest node path the algorithm permits (DFS order).

    Each hop asks the algorithm with the heading the packet arrives
    with, as :func:`walk` does, so a path takes only the turns the
    algorithm allows.  Only distance-reducing candidate moves are
    followed.  ``limit`` caps the number of paths yielded.
    """
    topology = algorithm.topology
    yielded = 0
    stack: List[Tuple[int, Optional[Direction], Tuple[int, ...]]] = [
        (src, None, (src,))
    ]
    while stack:
        node, heading, path = stack.pop()
        if node == dst:
            yield path
            yielded += 1
            if limit is not None and yielded >= limit:
                return
            continue
        here = topology.distance(node, dst)
        for direction in reversed(algorithm.candidates(node, dst, heading)):
            nbr = topology.neighbor(node, direction)
            if nbr is None:
                continue
            if topology.distance(nbr, dst) == here - 1:
                stack.append((nbr, direction, path + (nbr,)))


def directions_of_path(topology: Topology, node_path: Sequence[int]) -> List[Direction]:
    """The travel direction of each hop of a node path."""
    return [c.direction for c in path_channels(topology, node_path)]


def path_respects_turn_model(
    topology: Topology, node_path: Sequence[int], model
) -> bool:
    """Whether every consecutive direction change on the path is allowed."""
    dirs = directions_of_path(topology, node_path)
    return all(
        model.is_allowed(frm, to) for frm, to in zip(dirs, dirs[1:])
    )
