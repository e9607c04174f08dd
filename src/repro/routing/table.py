"""Routing tables: what a network looks like and what an algorithm
answers on it, each computed once.

A routing decision in this codebase is a pure function of ``(current
node, destination, arrival direction[, arrival virtual channel])`` — the
turn-model algorithms are stateless by construction — and the paper's
evidence is *campaigns*: many loads, seeds and fault trials on one
network.  Three structures capture what is immutable across a campaign,
so nothing is rebuilt per operating point:

* :class:`NetworkIndex` — the facts of one :class:`Topology` object
  (channel tuple, direction tuple, ``(src, direction) -> physical id``,
  in-neighbour map), built once per topology object by
  :func:`network_index`;
* :class:`NetworkTables` — the *unmasked* answers of one algorithm object
  at one virtual-channel count, one interned tuple of ``(direction,
  runtime channel id, misroute bit)`` per decision, derived lazily and
  shared by every simulator and batch that runs the algorithm
  (:func:`shared_tables`, a bounded least-recently-used registry keyed by
  object identity — a hand-built or spy algorithm gets its own).  The
  algorithm is asked once per *decision key*: on meshes and hypercubes
  the turn-model families answer by arrival direction and offset class
  alone (Sections 3-5), and on a torus the dateline and escape-VC
  disciplines add only the arrival VC and where the node sits relative
  to the wraparound, so one answer serves every node it fits;
* :class:`RoutingTable` — a standalone direction-level memo of the four
  candidate queries with per-node invalidation, for callers outside the
  simulators.

Shared answers are never fault-masked and never invalidated: a simulator
running a fault plan (always the event engine) layers its private,
invalidatable mask over them through
:class:`~repro.faults.routing.MaskedTables`, so a fault event cannot
leak into another run.  :meth:`NetworkIndex.affected_nodes` names
the nodes whose masked answers a fault event changes.

Every memo returns the algorithm's candidates in the algorithm's order,
so a table-backed simulation is bit-identical to a table-free one.
"""

from __future__ import annotations

from operator import sub
from typing import (
    Callable, Dict, FrozenSet, List, Optional, Set, Tuple, TypeVar,
)

from ..topology.base import Channel, Direction, Topology
from ..topology.torus import KAryNCube
from .base import RoutingAlgorithm

_MISS = object()  # sentinel: empty tuples are valid cached values
T = TypeVar("T")

#: One routing decision: ``(direction, runtime channel id, misroute bit)``
#: per candidate, in the algorithm's order.
Decision = Tuple[Tuple[Direction, int, int], ...]
#: A decision before it is placed at a node: ``(direction, virtual
#: channel, misroute bit)`` per candidate.
Moves = Tuple[Tuple[Direction, int, int], ...]


class NetworkIndex:
    """The immutable facts of one :class:`Topology` object.

    Built once per topology object (:func:`network_index`) and read by
    every table, simulator and batch arena on it.
    """

    __slots__ = (
        "channels", "directions", "dir_index", "channel_index",
        "in_neighbors", "coords", "edges",
    )

    def __init__(self, topology: Topology) -> None:
        self.channels: Tuple[Channel, ...] = topology.channels()
        # Only directions some channel travels in, in (dim, sign) order
        # — the paper's xy output-selection order.
        self.directions: Tuple[Direction, ...] = tuple(
            sorted({c.direction for c in self.channels})
        )
        # 1-based: 0 encodes "no arrival direction" (a header still at
        # its source).
        self.dir_index: Dict[Direction, int] = {
            d: i + 1 for i, d in enumerate(self.directions)
        }
        self.channel_index: Dict[Tuple[int, Direction], int] = {
            (c.src, c.direction): i for i, c in enumerate(self.channels)
        }
        neighbors: Dict[int, Set[int]] = {}
        for channel in self.channels:
            neighbors.setdefault(channel.dst, set()).add(channel.src)
        self.in_neighbors: Dict[int, FrozenSet[int]] = {
            node: frozenset(srcs) for node, srcs in neighbors.items()
        }
        self.coords: Tuple[Tuple[int, ...], ...] = tuple(
            map(topology.coords, topology.nodes())
        )
        #: per node, one flag per dimension: 1 at coordinate 0, 2 at
        #: ``k - 1``, 0 between (equal tuples are one object)
        flags: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        self.edges: Tuple[Tuple[int, ...], ...] = tuple(
            flags.setdefault(edge, edge) for edge in (
                tuple(
                    (c == 0) + 2 * (c == k - 1)
                    for c, k in zip(coord, topology.dims)
                )
                for coord in self.coords
            )
        )

    def affected_nodes(self, node: int, channel_only: bool) -> Set[int]:
        """Nodes whose fault-masked answers a fault event at ``node``
        touches.

        A channel event at ``(node, direction)`` only changes answers
        computed *at* ``node`` (the fault mask tests the outgoing
        channel).  A router event additionally kills every channel
        *into* the router, changing the answers of its in-neighbours.
        """
        if channel_only:
            return {node}
        return {node} | self.in_neighbors.get(node, frozenset())


def network_index(topology: Topology) -> NetworkIndex:
    """The :class:`NetworkIndex` of ``topology``, built on first use and
    kept on the topology object (so it lives exactly as long)."""
    index = topology._network_index
    if index is None:
        index = topology._network_index = NetworkIndex(topology)
    return index


class NetworkTables:
    """The unmasked answers of one algorithm object at one VC count.

    Decisions are keyed by the router *input port* the header waits at:
    ``port = (node * (num_dirs + 1) + dir_index) * num_vc + in_vc``, with
    ``dir_index = in_vc = 0`` for a header still at its source (the
    algorithms are queried with ``in_direction=None, in_vc=None`` there).
    A node's ports are contiguous, so a private fault mask can drop one
    node's rows with a slice.  Each port holds one ``dest -> Decision``
    dict, filled on first use; equal decisions are interned, so a full
    table costs one dict slot per decision rather than a tuple each.

    A miss asks the algorithm for node-free ``(direction, vc, misroute
    bit)`` moves and places them at the node with its channel ids.  When
    :func:`~repro.routing.registry.offset_classed` certifies the
    algorithm at ``num_vc``, the moves are memoised in :attr:`memo` under
    the decision :meth:`key`, so a cold table asks once per key, not
    once per decision.  Otherwise — ``negative-first-torus``, first-hop
    wraparound, hand-built, subclassed or overridden algorithms — the
    key would be the exact ``(port, dest)``, which the port's row
    already remembers, so the algorithm is asked once per decision.

    With ``num_vc == 1`` the algorithm's direction-level queries are
    asked (as the engines always did); otherwise its ``vc_*`` queries,
    and pairs naming a missing physical channel or an out-of-range VC
    are skipped.

    ``array_lut`` is a slot for the array backend's numpy flattening of
    these answers, so it shares this object's lifetime and bound.
    """

    __slots__ = (
        "algorithm", "topology", "index", "num_vc", "channels",
        "channel_ids", "node_ports", "arrive_port", "array_lut", "memo",
        "_classed", "_clamp", "_edged", "_placed", "_minimal", "_escape",
        "_interned",
    )

    def __init__(self, algorithm: RoutingAlgorithm, num_vc: int = 1) -> None:
        from .registry import offset_classed  # the registry imports us

        self.algorithm = algorithm
        self.topology: Topology = algorithm.topology
        self.index = index = network_index(self.topology)
        self.num_vc = num_vc
        # Runtime channels: physical channel ``i`` expands into lanes
        # ``i * num_vc + vc`` sharing the link's bandwidth.
        if num_vc == 1:
            self.channels: Tuple[Channel, ...] = index.channels
            self.channel_ids: Dict[Tuple[int, Direction], int] = (
                index.channel_index
            )
        else:
            self.channels = tuple(
                c for c in index.channels for _ in range(num_vc)
            )
            self.channel_ids = {
                key: i * num_vc for key, i in index.channel_index.items()
            }
        span = len(index.directions) + 1
        self.node_ports = span * num_vc
        dir_index = index.dir_index
        #: runtime channel id -> the port a header arriving on it waits at
        self.arrive_port: List[int] = [
            (c.dst * span + dir_index[c.direction]) * num_vc + i % num_vc
            for i, c in enumerate(self.channels)
        ]
        self.array_lut = None
        #: class key -> the algorithm's moves (see the class docstring)
        self.memo: Dict[tuple, Moves] = {}
        self._classed = offset_classed(algorithm, num_vc)
        topology = self.topology
        top = max(topology.dims)
        dim = topology.dims.index(top)
        step = topology.node_at([int(d == dim) for d in range(topology.n_dims)])
        offset = topology.offset
        # ``_clamp[delta]`` is the class of the offset a plain coordinate
        # delta stands for, -top < delta < top (negative deltas index
        # from the end): the delta itself on a mesh, the shorter way
        # round on a torus (the topology's own ``offset`` decides, its
        # tie rule and radix 2 included).
        self._clamp = tuple(
            max(-2, min(2, offset(max(-d, 0) * step, max(d, 0) * step, dim)))
            for d in (*range(top), *range(1 - top, 0))
        )
        # Whose keys carry the edge flags, indexed by ``escape``: escapes
        # test whether a neighbour exists, and on a torus any query may
        # take a wraparound, which leaves from an edge.
        self._edged = (isinstance(topology, KAryNCube), True)
        ports = self.topology.num_nodes * self.node_ports
        self._minimal: List[Optional[Dict[int, Decision]]] = [None] * ports
        self._escape: List[Optional[Dict[int, Decision]]] = [None] * ports
        self._interned: Dict[tuple, tuple] = {}
        #: ``id(moves) * num_nodes + node -> Decision`` (class-keyed only)
        self._placed: Dict[int, Decision] = {}

    def minimal(self, port: int, dest: int) -> Decision:
        """The algorithm's candidates for a header at ``port`` bound for
        ``dest``."""
        row = self._minimal[port]
        if row is None:
            row = self._minimal[port] = {}
        decision = row.get(dest)
        if decision is None:
            decision = row[dest] = self._derive(port, dest, escape=False)
        return decision

    def escape(self, port: int, dest: int) -> Decision:
        """The algorithm's escape (nonminimal) candidates, consulted only
        when every minimal candidate is busy."""
        row = self._escape[port]
        if row is None:
            row = self._escape[port] = {}
        decision = row.get(dest)
        if decision is None:
            decision = row[dest] = self._derive(port, dest, escape=True)
        return decision

    def key(self, port: int, dest: int, escape: bool) -> tuple:
        """The decision key a certified algorithm is asked once per:
        ``(escape, state, classes)``, where ``state = dir_index * num_vc
        + in_vc`` is the port's place at its node (arrival direction and
        VC) and ``classes`` each dimension's offset to ``dest`` clamped
        to ``-2..2`` (on a torus, the offset the shorter way round);
        then the node's :attr:`NetworkIndex.edges` for escape queries
        and for every query on a torus."""
        node, state = divmod(port, self.node_ports)
        coords = self.index.coords
        classes = tuple(
            map(self._clamp.__getitem__, map(sub, coords[dest], coords[node]))
        )
        if self._edged[escape]:
            return escape, state, classes, self.index.edges[node]
        return escape, state, classes

    def _derive(self, port: int, dest: int, escape: bool) -> Decision:
        node = port // self.node_ports
        if not self._classed:
            # An exact key is asked once: the port's row keeps the answer.
            return self._place(node, self._ask(port, dest, escape))
        key = self.key(port, dest, escape)
        moves = self.memo.get(key)
        if moves is None:
            moves = self.memo[key] = self._ask(port, dest, escape)
        # Moves are interned and never dropped, so their ids are stable.
        placed = id(moves) * self.topology.num_nodes + node
        decision = self._placed.get(placed)
        if decision is None:
            decision = self._placed[placed] = self._place(node, moves)
        return decision

    def _place(self, node: int, moves: Moves) -> Decision:
        """``moves`` at ``node``: each with its runtime channel id."""
        channel_ids = self.channel_ids
        intern = self._interned.setdefault
        out = []
        for direction, vc, misroute in moves:
            cid = channel_ids[(node, direction)]
            if vc:
                cid += vc
            candidate = (direction, cid, misroute)
            out.append(intern(candidate, candidate))
        decision = tuple(out)
        return intern(decision, decision)

    def _ask(self, port: int, dest: int, escape: bool) -> Moves:
        """The algorithm's answer at ``port`` as node-free moves."""
        node, state = divmod(port, self.node_ports)
        diridx, in_vc = divmod(state, self.num_vc)
        in_direction = self.index.directions[diridx - 1] if diridx else None
        algorithm = self.algorithm
        num_vc = self.num_vc
        if num_vc == 1:
            query = (
                algorithm.escape_candidates if escape
                else algorithm.candidates
            )
            pairs = [(d, 0) for d in query(node, dest, in_direction)]
        else:
            query = (
                algorithm.vc_escape_candidates if escape
                else algorithm.vc_candidates
            )
            pairs = query(
                node, dest, in_direction, in_vc if diridx else None, num_vc
            )
        channel_ids = self.channel_ids
        channels = self.channels
        distance = self.topology.distance
        here = None
        out = []
        for direction, vc in pairs:
            if num_vc == 1:
                cid = channel_ids[(node, direction)]
            else:
                base = channel_ids.get((node, direction))
                if base is None or not 0 <= vc < num_vc:
                    continue
                cid = base + vc
            if here is None:
                here = distance(node, dest)
            out.append(
                (direction, vc, int(distance(channels[cid].dst, dest) >= here))
            )
        moves = tuple(out)
        return self._interned.setdefault(moves, moves)

    def waiting_ports(self) -> List[int]:
        """Every input port a header can wait at, ascending: each node's
        injection port and the arrival port of every runtime channel."""
        injected = range(0, self.topology.num_nodes * self.node_ports, self.node_ports)
        return sorted(set(self.arrive_port).union(injected))

    @property
    def num_entries(self) -> int:
        """Decisions currently held (for tests/diagnostics)."""
        return sum(
            len(row)
            for rows in (self._minimal, self._escape)
            for row in rows
            if row is not None
        )

    def __repr__(self) -> str:
        return (
            f"NetworkTables({self.algorithm!r}, num_vc={self.num_vc}, "
            f"{self.num_entries} entries)"
        )


#: The shared-tables registry: ``(id(algorithm), num_vc) -> tables``, in
#: least-recently-used order.  Each entry keeps its algorithm alive, so
#: an id cannot be reused while it is a key.  Bounded: the oldest group
#: is dropped (simulators in flight keep their own reference).
_SHARED: Dict[Tuple[int, int], NetworkTables] = {}
_SHARED_MAX = 8


def lru_fetch(memo: dict, key, build: Callable[[], T], bound: int) -> T:
    """``memo[key]``, built on a miss; marks the entry most recently
    used and drops the least recently used beyond ``bound``."""
    value = memo.pop(key, _MISS)
    if value is _MISS:
        value = build()
    memo[key] = value
    while len(memo) > bound:
        del memo[next(iter(memo))]
    return value


def shared_tables(algorithm: RoutingAlgorithm, num_vc: int = 1) -> NetworkTables:
    """The process-wide :class:`NetworkTables` of this algorithm *object*
    at ``num_vc`` virtual channels, built on first use."""
    return lru_fetch(
        _SHARED, (id(algorithm), num_vc),
        lambda: NetworkTables(algorithm, num_vc), _SHARED_MAX,
    )


class RoutingTable:
    """Lazy direction-level memo of an algorithm's candidate queries.

    A standalone utility: the simulators share :class:`NetworkTables`
    instead.  One table serves one algorithm (fault-masked or not); all
    four query methods mirror the
    :class:`~repro.routing.base.RoutingAlgorithm` signatures but return
    tuples (safe to alias, never mutated).  Over a
    :class:`~repro.faults.routing.FaultAwareRouting` wrapper the table
    caches the masked answers, and the owner must call
    :meth:`invalidate_node` for every node in :meth:`affected_nodes`
    when a fault appears or heals.
    """

    __slots__ = ("algorithm", "_nodes")

    def __init__(self, algorithm: RoutingAlgorithm) -> None:
        self.algorithm = algorithm
        # node -> key -> tuple; keys carry a kind tag so the four query
        # families share one per-node dict (one hash hop to invalidate).
        self._nodes: Dict[int, Dict[tuple, tuple]] = {}

    # -- queries (memoised) --------------------------------------------------

    def candidates(
        self,
        current: int,
        dest: int,
        in_direction: Optional[Direction] = None,
    ) -> Tuple[Direction, ...]:
        per_node = self._nodes.get(current)
        if per_node is None:
            per_node = self._nodes[current] = {}
        key = ("c", dest, in_direction)
        out = per_node.get(key, _MISS)
        if out is _MISS:
            out = per_node[key] = tuple(
                self.algorithm.candidates(current, dest, in_direction)
            )
        return out  # type: ignore[return-value]

    def escape_candidates(
        self,
        current: int,
        dest: int,
        in_direction: Optional[Direction] = None,
    ) -> Tuple[Direction, ...]:
        per_node = self._nodes.get(current)
        if per_node is None:
            per_node = self._nodes[current] = {}
        key = ("e", dest, in_direction)
        out = per_node.get(key, _MISS)
        if out is _MISS:
            out = per_node[key] = tuple(
                self.algorithm.escape_candidates(current, dest, in_direction)
            )
        return out  # type: ignore[return-value]

    def vc_candidates(
        self,
        current: int,
        dest: int,
        in_direction: Optional[Direction],
        in_vc: Optional[int],
        num_vc: int,
    ) -> Tuple[Tuple[Direction, int], ...]:
        per_node = self._nodes.get(current)
        if per_node is None:
            per_node = self._nodes[current] = {}
        key = ("v", dest, in_direction, in_vc, num_vc)
        out = per_node.get(key, _MISS)
        if out is _MISS:
            out = per_node[key] = tuple(
                self.algorithm.vc_candidates(
                    current, dest, in_direction, in_vc, num_vc
                )
            )
        return out  # type: ignore[return-value]

    def vc_escape_candidates(
        self,
        current: int,
        dest: int,
        in_direction: Optional[Direction],
        in_vc: Optional[int],
        num_vc: int,
    ) -> Tuple[Tuple[Direction, int], ...]:
        per_node = self._nodes.get(current)
        if per_node is None:
            per_node = self._nodes[current] = {}
        key = ("w", dest, in_direction, in_vc, num_vc)
        out = per_node.get(key, _MISS)
        if out is _MISS:
            out = per_node[key] = tuple(
                self.algorithm.vc_escape_candidates(
                    current, dest, in_direction, in_vc, num_vc
                )
            )
        return out  # type: ignore[return-value]

    # -- invalidation (fault events) -----------------------------------------

    def invalidate_node(self, node: int) -> None:
        """Drop every cached entry keyed by ``node`` (its answers may
        have changed — a fault appeared or healed on touching hardware)."""
        self._nodes.pop(node, None)

    def clear(self) -> None:
        self._nodes.clear()

    def affected_nodes(
        self, topology: Topology, node: int, channel_only: bool
    ) -> Set[int]:
        """Nodes whose cached answers a fault event at ``node`` touches
        (see :meth:`NetworkIndex.affected_nodes`)."""
        return network_index(topology).affected_nodes(node, channel_only)

    # -- introspection -------------------------------------------------------

    @property
    def num_entries(self) -> int:
        """Cached candidate tuples currently held (for tests/diagnostics)."""
        return sum(len(per_node) for per_node in self._nodes.values())

    def __repr__(self) -> str:
        return (
            f"RoutingTable({self.algorithm!r}, {self.num_entries} entries "
            f"over {len(self._nodes)} nodes)"
        )
