"""Fault masking for any routing algorithm.

:class:`FaultAwareRouting` wraps a :class:`~repro.routing.base.
RoutingAlgorithm` and filters every candidate list against a live
:class:`~repro.faults.state.FaultState`: dead channels simply stop being
offered.  An adaptive algorithm then routes around the fault with its
remaining candidates; a deterministic algorithm (xy) whose only candidate
died is left with an empty list and stalls — which is exactly the
behavioural difference the paper's fault-tolerance motivation predicts,
and what the per-packet watchdog turns into a clean drop instead of a
hang.

The wrapper is transparent: same ``name``, same turn model, same
adaptivity flags.  With a fault-free state it returns the inner
algorithm's candidates unchanged.

:class:`MaskedTables` is the same mask over precomputed routing tables:
the event engine reads its decisions from the process-wide
:class:`~repro.routing.table.NetworkTables` of the algorithm, which are
shared between runs and therefore never masked; a run with a fault plan
puts one private :class:`MaskedTables` in front of them.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.turn_model import TurnModel
from ..routing.base import RoutingAlgorithm
from ..routing.table import Decision, NetworkTables
from ..topology.base import Direction
from .state import FaultState


class FaultAwareRouting(RoutingAlgorithm):
    """Masks dead candidates out of an inner algorithm's answers."""

    def __init__(self, inner: RoutingAlgorithm, state: FaultState) -> None:
        self.inner = inner
        self.state = state
        super().__init__(inner.topology)

    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def is_minimal(self) -> bool:
        return self.inner.is_minimal

    @property
    def is_adaptive(self) -> bool:
        return self.inner.is_adaptive

    def candidates(
        self,
        current: int,
        dest: int,
        in_direction: Optional[Direction] = None,
    ) -> List[Direction]:
        return [
            direction
            for direction in self.inner.candidates(current, dest, in_direction)
            if not self.state.channel_dead(current, direction)
        ]

    def escape_candidates(
        self,
        current: int,
        dest: int,
        in_direction: Optional[Direction] = None,
    ) -> List[Direction]:
        return [
            direction
            for direction in self.inner.escape_candidates(
                current, dest, in_direction
            )
            if not self.state.channel_dead(current, direction)
        ]

    def vc_candidates(
        self,
        current: int,
        dest: int,
        in_direction: Optional[Direction],
        in_vc: Optional[int],
        num_vc: int,
    ) -> List[Tuple[Direction, int]]:
        return [
            (direction, vc)
            for direction, vc in self.inner.vc_candidates(
                current, dest, in_direction, in_vc, num_vc
            )
            if not self.state.channel_dead(current, direction)
        ]

    def vc_escape_candidates(
        self,
        current: int,
        dest: int,
        in_direction: Optional[Direction],
        in_vc: Optional[int],
        num_vc: int,
    ) -> List[Tuple[Direction, int]]:
        return [
            (direction, vc)
            for direction, vc in self.inner.vc_escape_candidates(
                current, dest, in_direction, in_vc, num_vc
            )
            if not self.state.channel_dead(current, direction)
        ]

    def turn_model(self) -> Optional[TurnModel]:
        return self.inner.turn_model()

    def __repr__(self) -> str:
        return f"FaultAwareRouting({self.inner!r}, {self.state!r})"


class MaskedTables:
    """One run's private fault mask over shared :class:`NetworkTables`.

    Same ``minimal``/``escape`` interface; each answer is the shared
    decision with dead channels filtered out (order preserved, exactly
    :class:`FaultAwareRouting`'s filter), memoised per input port until
    :meth:`invalidate` drops the rows of a node a fault event touched.
    Nothing is ever written to the shared tables.
    """

    __slots__ = ("tables", "state", "_rows")

    def __init__(self, tables: NetworkTables, state: FaultState) -> None:
        self.tables = tables
        self.state = state
        ports = tables.topology.num_nodes * tables.node_ports
        self._rows: Tuple[list, list] = ([None] * ports, [None] * ports)

    def minimal(self, port: int, dest: int) -> Decision:
        return self._lookup(0, port, dest)

    def escape(self, port: int, dest: int) -> Decision:
        return self._lookup(1, port, dest)

    def _lookup(self, escape: int, port: int, dest: int) -> Decision:
        rows = self._rows[escape]
        row = rows[port]
        if row is None:
            row = rows[port] = {}
        decision = row.get(dest)
        if decision is None:
            tables = self.tables
            shared = (tables.escape if escape else tables.minimal)(port, dest)
            node = port // tables.node_ports
            dead = self.state.channel_dead
            decision = row[dest] = tuple(
                c for c in shared if not dead(node, c[0])
            )
        return decision

    def invalidate(self, node: int) -> None:
        """Forget the masked answers computed at ``node`` (a node's
        ports are contiguous)."""
        width = self.tables.node_ports
        for rows in self._rows:
            rows[node * width : (node + 1) * width] = [None] * width
