"""Live fault state: which channels and routers are dead *right now*.

The simulator owns one :class:`FaultState` per run and mutates it as the
:class:`~repro.faults.plan.FaultPlan` schedule fires; the
:class:`~repro.faults.routing.FaultAwareRouting` wrapper reads it on
every routing decision.  A channel is dead when it failed directly, when
its source router failed, or when it leads into a failed router — a dead
router takes all incident channels down with it, and healing the router
brings them back automatically (unless independently failed).
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from ..topology.base import Direction, Topology

ChannelKey = Tuple[int, Direction]


class FaultState:
    """Mutable view of the currently-failed hardware."""

    __slots__ = ("_dst", "dead_channels", "dead_routers")

    def __init__(self, topology: Topology) -> None:
        self._dst: Dict[ChannelKey, int] = {
            (c.src, c.direction): c.dst for c in topology.channels()
        }
        self.dead_channels: Set[ChannelKey] = set()
        self.dead_routers: Set[int] = set()

    # -- mutation (driven by the engine's fault schedule) --------------------

    def fail_channel(self, src: int, direction: Direction) -> None:
        self.dead_channels.add((src, direction))

    def heal_channel(self, src: int, direction: Direction) -> None:
        self.dead_channels.discard((src, direction))

    def fail_router(self, node: int) -> None:
        self.dead_routers.add(node)

    def heal_router(self, node: int) -> None:
        self.dead_routers.discard(node)

    # -- queries -------------------------------------------------------------

    @property
    def any_faults(self) -> bool:
        return bool(self.dead_channels or self.dead_routers)

    def channel_dead(self, src: int, direction: Direction) -> bool:
        """Whether the channel out of ``src`` in ``direction`` is unusable
        (failed itself, or touching a failed router)."""
        if (src, direction) in self.dead_channels:
            return True
        if src in self.dead_routers:
            return True
        dst = self._dst.get((src, direction))
        return dst is None or dst in self.dead_routers

    def __repr__(self) -> str:
        return (
            f"FaultState({len(self.dead_channels)} dead channels, "
            f"{len(self.dead_routers)} dead routers)"
        )
