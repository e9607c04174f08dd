"""Core abstractions shared by every network topology.

The turn model reasons about *directions* (a signed dimension, e.g. ``-x``)
and *channels* (unidirectional links between neighbouring routers).  This
module defines both, plus the :class:`Topology` base class that meshes,
tori (k-ary n-cubes), and hypercubes implement.

Nodes are identified by dense integer ids.  A topology provides the
bijection between ids and coordinate tuples, neighbour lookup per
direction, and enumeration of all channels.  Everything downstream — the
turn model, the routing algorithms, the channel-dependency-graph verifier,
and the wormhole simulator — is written against this interface.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

NEGATIVE = -1
POSITIVE = +1


@dataclass(frozen=True, order=True)
class Direction:
    """A signed dimension: the direction a channel routes packets.

    ``Direction(0, -1)`` is ``-x`` (*west* in the paper's 2D terminology),
    ``Direction(1, +1)`` is ``+y`` (*north*), and so on.  Directions are
    ordered by ``(dim, sign)`` so that sorting a set of candidate output
    directions yields the paper's *xy* output-selection order (lowest
    dimension first).
    """

    dim: int
    sign: int

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise ValueError(f"dimension must be non-negative, got {self.dim}")
        if self.sign not in (NEGATIVE, POSITIVE):
            raise ValueError(f"sign must be -1 or +1, got {self.sign}")

    @property
    def opposite(self) -> "Direction":
        """The 180-degree reverse of this direction."""
        return Direction(self.dim, -self.sign)

    @property
    def is_negative(self) -> bool:
        return self.sign == NEGATIVE

    @property
    def is_positive(self) -> bool:
        return self.sign == POSITIVE

    def __repr__(self) -> str:
        return f"{'+' if self.sign > 0 else '-'}d{self.dim}"


# The paper's 2D compass names (dimension 0 is x, dimension 1 is y).
WEST = Direction(0, NEGATIVE)
EAST = Direction(0, POSITIVE)
SOUTH = Direction(1, NEGATIVE)
NORTH = Direction(1, POSITIVE)

COMPASS_NAMES: Dict[Direction, str] = {
    WEST: "west",
    EAST: "east",
    SOUTH: "south",
    NORTH: "north",
}


def all_directions(n_dims: int) -> List[Direction]:
    """All 2n directions of an n-dimensional mesh/torus, in (dim, sign) order."""
    return [
        Direction(dim, sign)
        for dim in range(n_dims)
        for sign in (NEGATIVE, POSITIVE)
    ]


@dataclass(frozen=True, order=True)
class Channel:
    """A unidirectional physical channel between two neighbouring routers.

    ``wraparound`` marks torus channels that cross the edge of the radix
    (the turn model's Step 1 puts those in a separate set, incorporated in
    Step 5).
    """

    src: int
    dst: int
    direction: Direction
    wraparound: bool = False

    def __repr__(self) -> str:
        wrap = "~" if self.wraparound else ""
        return f"Ch({self.src}{wrap}->{self.dst} {self.direction!r})"


class Topology:
    """Base class for direct-network topologies.

    Subclasses provide the shape (``dims``), neighbour arithmetic, and
    whether moves wrap around.  Node ids are the mixed-radix encoding of
    coordinates with dimension 0 varying fastest, so a 2D mesh node
    ``(x, y)`` has id ``x + y * k0``.
    """

    def __init__(self, dims: Sequence[int]) -> None:
        dims = tuple(int(k) for k in dims)
        if not dims:
            raise ValueError("topology needs at least one dimension")
        if any(k < 2 for k in dims):
            raise ValueError(f"every dimension must have at least 2 nodes, got {dims}")
        self._dims = dims
        self._strides = tuple(
            int(_product(dims[:i])) for i in range(len(dims))
        )
        self._num_nodes = int(_product(dims))
        self._directions = tuple(all_directions(len(dims)))
        self._channels: Optional[Tuple[Channel, ...]] = None
        self._channel_by_src_dir: Optional[Dict[Tuple[int, Direction], Channel]] = None
        # Filled by repro.routing.table.network_index (derived lookup
        # structures over channels(), shared by every table and engine).
        self._network_index = None

    # -- shape ---------------------------------------------------------

    @property
    def dims(self) -> Tuple[int, ...]:
        """The radix of each dimension, ``(k0, k1, ..., k_{n-1})``."""
        return self._dims

    @property
    def n_dims(self) -> int:
        return len(self._dims)

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    def directions(self) -> Tuple[Direction, ...]:
        """All directions a packet can travel in this topology."""
        return self._directions

    # -- coordinates -----------------------------------------------------

    def coords(self, node: int) -> Tuple[int, ...]:
        """Coordinate tuple of a node id."""
        if not 0 <= node < self._num_nodes:
            raise ValueError(f"node {node} out of range [0, {self._num_nodes})")
        out = []
        for k in self._dims:
            out.append(node % k)
            node //= k
        return tuple(out)

    def node_at(self, coords: Sequence[int]) -> int:
        """Node id of a coordinate tuple."""
        if len(coords) != self.n_dims:
            raise ValueError(
                f"expected {self.n_dims} coordinates, got {len(coords)}"
            )
        node = 0
        for c, k, stride in zip(coords, self._dims, self._strides):
            if not 0 <= c < k:
                raise ValueError(f"coordinate {c} out of range [0, {k})")
            node += c * stride
        return node

    def nodes(self) -> range:
        return range(self._num_nodes)

    # -- neighbours and channels ------------------------------------------

    def neighbor(self, node: int, direction: Direction) -> Optional[int]:
        """Neighbour of ``node`` in ``direction``, or None at a mesh edge."""
        raise NotImplementedError

    def is_wraparound(self, node: int, direction: Direction) -> bool:
        """Whether moving from ``node`` in ``direction`` crosses the edge."""
        coord = self.coords(node)[direction.dim]
        k = self._dims[direction.dim]
        return (coord == 0 and direction.is_negative) or (
            coord == k - 1 and direction.is_positive
        )

    def channels(self) -> Tuple[Channel, ...]:
        """Every unidirectional channel, cached after the first call."""
        if self._channels is None:
            chans = []
            for node in self.nodes():
                for direction in self.directions():
                    nbr = self.neighbor(node, direction)
                    if nbr is not None:
                        chans.append(
                            Channel(
                                src=node,
                                dst=nbr,
                                direction=direction,
                                wraparound=self.is_wraparound(node, direction),
                            )
                        )
            self._channels = tuple(chans)
        return self._channels

    def channel(self, src: int, direction: Direction) -> Optional[Channel]:
        """The channel leaving ``src`` in ``direction``, or None."""
        if self._channel_by_src_dir is None:
            self._channel_by_src_dir = {
                (c.src, c.direction): c for c in self.channels()
            }
        return self._channel_by_src_dir.get((src, direction))

    def num_channels(self) -> int:
        return len(self.channels())

    # -- distances ---------------------------------------------------------

    def offset(self, src: int, dst: int, dim: int) -> int:
        """Signed coordinate difference ``dst - src`` along ``dim``.

        Subclasses with wraparound override this to return the shorter
        (possibly wrapping) signed offset.
        """
        return self.coords(dst)[dim] - self.coords(src)[dim]

    def distance(self, src: int, dst: int) -> int:
        """Minimal hop count between two nodes."""
        return sum(
            abs(self.offset(src, dst, dim)) for dim in range(self.n_dims)
        )

    def productive_directions(self, src: int, dst: int) -> List[Direction]:
        """Directions that reduce the distance from ``src`` to ``dst``."""
        out = []
        for dim in range(self.n_dims):
            delta = self.offset(src, dst, dim)
            if delta < 0:
                out.append(Direction(dim, NEGATIVE))
            elif delta > 0:
                out.append(Direction(dim, POSITIVE))
        return out

    def __repr__(self) -> str:
        shape = "x".join(str(k) for k in self._dims)
        return f"{type(self).__name__}({shape})"


def _product(values: Sequence[int]) -> int:
    result = 1
    for v in values:
        result *= v
    return result


def enumerate_node_pairs(topology: Topology) -> Iterator[Tuple[int, int]]:
    """All ordered (src, dst) pairs with src != dst."""
    for src, dst in itertools.permutations(topology.nodes(), 2):
        yield src, dst
