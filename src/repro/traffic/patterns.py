"""Traffic patterns (Section 6 workloads, plus extras for ablations).

The paper evaluates three workloads on 256-node networks:

* **uniform** — each message goes to any other processor with equal
  probability;
* **matrix transpose** — in the mesh, node ``(i, j)`` sends to ``(j, i)``;
  in the hypercube the 16x16 mesh is embedded so mesh neighbours are cube
  neighbours, giving ``(x0..x7) -> (~x4, x5, x6, x7, ~x0, x1, x2, x3)``;
* **reverse flip** — hypercube node ``(x0..x7)`` sends to
  ``(~x7, ~x6, ..., ~x0)``.

Nodes whose destination equals themselves (the transpose diagonal, the
patterns' fixed points) generate no traffic; the paper's reported average
path lengths (11.34 mesh hops for transpose, 4.27 cube hops for reverse
flip) confirm that convention — see ``average_hops`` below, which
reproduces them exactly.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from fractions import Fraction
from typing import List, Optional

from ..topology.base import Topology
from ..topology.hypercube import Hypercube
from ..topology.mesh import Mesh2D


class TrafficPattern(ABC):
    """A destination rule for message generation."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology

    @property
    @abstractmethod
    def name(self) -> str:
        """Short identifier, e.g. ``"uniform"``."""

    @abstractmethod
    def dest(self, src: int, rng: random.Random) -> Optional[int]:
        """Destination for a message from ``src`` (None = no traffic)."""

    def active_sources(self, topology: Topology) -> List[int]:
        """Nodes that generate traffic (fixed points excluded)."""
        probe = random.Random(0)
        out = []
        for node in topology.nodes():
            dst = self.dest(node, probe)
            if dst is not None and dst != node:
                out.append(node)
        return out

    def is_deterministic(self) -> bool:
        """Whether every source has a single fixed destination."""
        return True

    def average_hops(self) -> Fraction:
        """Exact mean minimal path length over the generated traffic."""
        if not self.is_deterministic():
            raise NotImplementedError(
                "average_hops has a closed form only for deterministic "
                "patterns; use uniform_average_hops for the uniform pattern"
            )
        probe = random.Random(0)
        total = Fraction(0)
        count = 0
        for src in self.active_sources(self.topology):
            dst = self.dest(src, probe)
            total += self.topology.distance(src, dst)
            count += 1
        return total / count


class UniformPattern(TrafficPattern):
    """Every other node is an equally likely destination."""

    @property
    def name(self) -> str:
        return "uniform"

    def dest(self, src: int, rng: random.Random) -> int:
        n = self.topology.num_nodes
        dst = rng.randrange(n - 1)
        return dst if dst < src else dst + 1

    def is_deterministic(self) -> bool:
        return False


def uniform_average_hops(topology: Topology) -> Fraction:
    """Exact mean minimal distance over ordered pairs with src != dst."""
    total = Fraction(0)
    n = topology.num_nodes
    for src in topology.nodes():
        for dst in topology.nodes():
            if src != dst:
                total += topology.distance(src, dst)
    return total / (n * (n - 1))


class MeshTransposePattern(TrafficPattern):
    """Node ``(i, j)`` sends to ``(j, i)`` in a square 2D mesh."""

    def __init__(self, topology: Mesh2D) -> None:
        if topology.n_dims != 2 or topology.dims[0] != topology.dims[1]:
            raise ValueError("matrix transpose requires a square 2D mesh")
        super().__init__(topology)

    @property
    def name(self) -> str:
        return "transpose"

    def dest(self, src: int, rng: random.Random) -> Optional[int]:
        x, y = self.topology.coords(src)
        if x == y:
            return None  # diagonal nodes are fixed points
        return self.topology.node_at((y, x))


class HypercubeTransposePattern(TrafficPattern):
    """The mesh transpose mapped onto the hypercube (Section 6).

    For an n-cube with even n, the low n/2 address bits encode the mesh
    row and the high n/2 bits the column; transposing swaps and
    complements per the paper's formula, which for n = 8 is
    ``(x0..x7) -> (~x4, x5, x6, x7, ~x0, x1, x2, x3)``.
    """

    def __init__(self, topology: Hypercube) -> None:
        if topology.order % 2 != 0:
            raise ValueError("hypercube transpose requires an even order")
        super().__init__(topology)

    @property
    def name(self) -> str:
        return "transpose"

    def dest(self, src: int, rng: random.Random) -> Optional[int]:
        n = self.topology.order
        half = n // 2
        bits = self.topology.bits(src)
        out = list(bits)
        # d0 = ~x_half, d_half = ~x_0; the remaining bits of each half
        # shift across unchanged.
        out[0] = 1 - bits[half]
        out[half] = 1 - bits[0]
        for i in range(1, half):
            out[i] = bits[half + i]
            out[half + i] = bits[i]
        dst = self.topology.node_from_bits(out)
        return None if dst == src else dst


def _require_hypercube(topology: Topology, pattern: str) -> None:
    if not isinstance(topology, Hypercube):
        raise ValueError(f"{pattern} traffic requires a binary hypercube")


class ReverseFlipPattern(TrafficPattern):
    """Hypercube node ``(x0..x_{n-1})`` sends to the complemented
    bit-reversal ``(~x_{n-1}, ..., ~x0)``."""

    def __init__(self, topology: Hypercube) -> None:
        _require_hypercube(topology, "reverse-flip")
        super().__init__(topology)

    @property
    def name(self) -> str:
        return "reverse-flip"

    def dest(self, src: int, rng: random.Random) -> Optional[int]:
        n = self.topology.order
        bits = self.topology.bits(src)
        out = [1 - bits[n - 1 - i] for i in range(n)]
        dst = self.topology.node_from_bits(out)
        return None if dst == src else dst


class BitComplementPattern(TrafficPattern):
    """Every node sends to its bitwise complement (extra workload)."""

    def __init__(self, topology: Hypercube) -> None:
        _require_hypercube(topology, "bit-complement")
        super().__init__(topology)

    @property
    def name(self) -> str:
        return "bit-complement"

    def dest(self, src: int, rng: random.Random) -> int:
        return src ^ ((1 << self.topology.order) - 1)


class MeshComplementPattern(TrafficPattern):
    """Every node sends to its coordinate complement:
    ``(x0, ..., x_{n-1}) -> (k0-1-x0, ..., k_{n-1}-1-x_{n-1})``.

    The mesh analogue of bit-complement: all traffic crosses the centre
    of every dimension, the worst case for bisection load.  Works on any
    n-dimensional mesh; used by the 3D-mesh extension study.
    """

    @property
    def name(self) -> str:
        return "complement"

    def dest(self, src: int, rng: random.Random) -> Optional[int]:
        coords = self.topology.coords(src)
        flipped = tuple(
            k - 1 - c for c, k in zip(coords, self.topology.dims)
        )
        dst = self.topology.node_at(flipped)
        return None if dst == src else dst


class HotspotPattern(TrafficPattern):
    """Uniform traffic with a fraction of messages aimed at one node
    (extra workload, for the adaptivity-under-hotspot example)."""

    def __init__(
        self, topology: Topology, hotspot: int, fraction: float = 0.2
    ) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        super().__init__(topology)
        self.hotspot = hotspot
        self.fraction = fraction

    @property
    def name(self) -> str:
        return f"hotspot{self.fraction:.0%}"

    def dest(self, src: int, rng: random.Random) -> Optional[int]:
        if src != self.hotspot and rng.random() < self.fraction:
            return self.hotspot
        n = self.topology.num_nodes
        dst = rng.randrange(n - 1)
        dst = dst if dst < src else dst + 1
        return dst

    def is_deterministic(self) -> bool:
        return False


class PermutationPattern(TrafficPattern):
    """An arbitrary fixed permutation supplied as a mapping."""

    def __init__(self, topology: Topology, mapping) -> None:
        super().__init__(topology)
        self.mapping = dict(mapping)
        for src, dst in self.mapping.items():
            if not (0 <= src < topology.num_nodes) or not (
                0 <= dst < topology.num_nodes
            ):
                raise ValueError(f"mapping entry {src}->{dst} out of range")

    @property
    def name(self) -> str:
        return "permutation"

    def dest(self, src: int, rng: random.Random) -> Optional[int]:
        dst = self.mapping.get(src)
        return None if dst is None or dst == src else dst
