"""Deterministic fault plans: *what* fails, *when*, and for how long.

The paper motivates adaptiveness by fault tolerance — adaptive algorithms
give packets "alternative paths ... around congested or faulty hardware".
:mod:`repro.verification.faults` checks that claim statically (BFS
reachability under a fixed fault set); this module is the dynamic
counterpart's input: a :class:`FaultPlan` is a schedule of channel and
router failures that the wormhole simulator applies *while packets are in
flight*.

Plans are plain frozen data:

* every event is a :class:`FaultEvent` — a channel or router, the cycle
  the fault appears, and the cycle it heals (``end == PERMANENT`` never
  heals), so transient faults are first-class;
* plans serialize to canonical JSON-friendly dicts and ride inside
  :class:`~repro.simulation.config.SimulationConfig`, which means the
  experiment runner's cache keys cover the full fault schedule;
* the random constructors (:meth:`FaultPlan.random_links`,
  :meth:`FaultPlan.random_routers`) derive everything from an explicit
  seed, so a fault campaign is reproducible point by point.

The empty plan is the common case and is guaranteed to leave the
simulator's behaviour bit-identical to a fault-free build (the engine
skips every fault hook when the plan is empty).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..topology.base import Channel, Direction, Topology

CHANNEL_FAULT = "channel"
ROUTER_FAULT = "router"

PERMANENT = -1
"""Sentinel ``end`` value: the fault never heals."""

FAIL = "fail"
HEAL = "heal"


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One scheduled failure of a channel or a router.

    Channel events name the channel by ``(node, dim, sign)`` — the source
    router plus the direction — because that pair is the simulator's (and
    the topology's) channel identity.  Router events use ``node`` alone.
    """

    kind: str
    """``"channel"`` or ``"router"``."""

    start: int
    """Cycle the fault appears (inclusive)."""

    end: int = PERMANENT
    """Cycle the fault heals (exclusive), or ``PERMANENT``."""

    node: int = 0
    """The failed router, or the failed channel's source router."""

    dim: int = 0
    """Channel direction dimension (channel events only)."""

    sign: int = 1
    """Channel direction sign (channel events only)."""

    def __post_init__(self) -> None:
        if self.kind not in (CHANNEL_FAULT, ROUTER_FAULT):
            raise ValueError(
                f"kind must be {CHANNEL_FAULT!r} or {ROUTER_FAULT!r}, "
                f"got {self.kind!r}"
            )
        if self.start < 0:
            raise ValueError(f"start cycle must be non-negative, got {self.start}")
        if self.end != PERMANENT and self.end <= self.start:
            raise ValueError(
                f"a transient fault must heal after it appears "
                f"(start={self.start}, end={self.end})"
            )
        if self.node < 0:
            raise ValueError(f"node must be non-negative, got {self.node}")
        if self.kind == CHANNEL_FAULT:
            # Direction() re-validates dim/sign.
            Direction(self.dim, self.sign)

    @property
    def permanent(self) -> bool:
        return self.end == PERMANENT

    @property
    def direction(self) -> Direction:
        if self.kind != CHANNEL_FAULT:
            raise ValueError("router events have no direction")
        return Direction(self.dim, self.sign)

    def active_at(self, cycle: int) -> bool:
        """Whether the fault is present during ``cycle``."""
        return self.start <= cycle and (self.permanent or cycle < self.end)

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "node": self.node,
            "dim": self.dim,
            "sign": self.sign,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultEvent":
        return cls(**{k: data[k] for k in ("kind", "start", "end", "node", "dim", "sign")})  # type: ignore[arg-type]

    @classmethod
    def channel(
        cls, channel: Channel, start: int = 0, end: int = PERMANENT
    ) -> "FaultEvent":
        """Event failing ``channel`` (a topology :class:`Channel`)."""
        return cls(
            kind=CHANNEL_FAULT,
            start=start,
            end=end,
            node=channel.src,
            dim=channel.direction.dim,
            sign=channel.direction.sign,
        )

    @classmethod
    def router(cls, node: int, start: int = 0, end: int = PERMANENT) -> "FaultEvent":
        """Event failing the router ``node`` (and every incident channel)."""
        return cls(kind=ROUTER_FAULT, start=start, end=end, node=node)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, canonically-ordered schedule of fault events."""

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        events = tuple(sorted(self.events))
        for event in events:
            if not isinstance(event, FaultEvent):
                raise TypeError(f"not a FaultEvent: {event!r}")
        object.__setattr__(self, "events", events)

    # -- inspection ----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.events

    def __len__(self) -> int:
        return len(self.events)

    def faulty_channels(
        self, topology: Topology, at: Optional[int] = None
    ) -> Set[Channel]:
        """The set of topology channels this plan ever fails (or fails at
        cycle ``at``), with router events expanded to every channel
        incident on the router.  This is the bridge to the *static*
        analysis in :mod:`repro.verification.faults`."""
        out: Set[Channel] = set()
        dead_routers = set()
        for event in self.events:
            if at is not None and not event.active_at(at):
                continue
            if event.kind == ROUTER_FAULT:
                dead_routers.add(event.node)
            else:
                channel = topology.channel(event.node, event.direction)
                if channel is not None:
                    out.add(channel)
        if dead_routers:
            for channel in topology.channels():
                if channel.src in dead_routers or channel.dst in dead_routers:
                    out.add(channel)
        return out

    def schedule(self) -> Dict[int, List[Tuple[str, FaultEvent]]]:
        """Engine-consumable schedule: cycle -> ordered ``(action, event)``
        changes, where action is ``"fail"`` or ``"heal"``.  Heals apply at
        the event's (exclusive) ``end`` cycle."""
        out: Dict[int, List[Tuple[str, FaultEvent]]] = {}
        for event in self.events:
            out.setdefault(event.start, []).append((FAIL, event))
            if not event.permanent:
                out.setdefault(event.end, []).append((HEAL, event))
        return out

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {"events": [event.to_dict() for event in self.events]}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        events = tuple(
            FaultEvent.from_dict(entry)  # type: ignore[arg-type]
            for entry in data.get("events", ())
        )
        return cls(events=events)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    # -- constructors --------------------------------------------------------

    @classmethod
    def empty(cls) -> "FaultPlan":
        return cls()

    @classmethod
    def of_channels(
        cls,
        channels: Iterable[Channel],
        start: int = 0,
        end: int = PERMANENT,
    ) -> "FaultPlan":
        """Plan failing the given channels over one window."""
        return cls(
            events=tuple(FaultEvent.channel(c, start, end) for c in channels)
        )

    @classmethod
    def random_links(
        cls,
        topology: Topology,
        count: int,
        seed: int,
        start: int = 0,
        end: int = PERMANENT,
    ) -> "FaultPlan":
        """``count`` distinct unidirectional channels failed over one
        window, sampled by a private generator seeded with ``seed``."""
        channels = list(topology.channels())
        if count > len(channels):
            raise ValueError(
                f"cannot fail {count} of {len(channels)} channels"
            )
        rng = random.Random(seed)
        return cls.of_channels(rng.sample(channels, count), start, end)

    @classmethod
    def random_routers(
        cls,
        topology: Topology,
        count: int,
        seed: int,
        start: int = 0,
        end: int = PERMANENT,
    ) -> "FaultPlan":
        """``count`` distinct routers failed over one window."""
        if count > topology.num_nodes:
            raise ValueError(
                f"cannot fail {count} of {topology.num_nodes} routers"
            )
        rng = random.Random(seed)
        nodes = rng.sample(range(topology.num_nodes), count)
        return cls(
            events=tuple(FaultEvent.router(node, start, end) for node in nodes)
        )
