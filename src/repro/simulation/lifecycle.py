"""The engine-independent half of a packet's life.

Section 6 fixes one source model — negative-exponential arrivals, a
source queue per processor, one injection channel per node — and one
accounting of what a message is (generated, delivered, its latency and
hops); the fault work adds drop and bounded-backoff retry.  Both engine
backends hold one :class:`PacketLifecycle` per operating point and call
it for all of that, so the source model and the measurement accounting
exist once and the backends cannot drift apart (docs/SIMULATOR.md,
"Engine structure").

What stays with each engine is only what differs: how a worm occupies
the network (``Packet`` hold lists on the event engine, slot rows of a
numpy arena on the array engine), releasing those resources when a worm
is killed (only the event engine kills worms: fault plans and
per-packet watchdogs run there), trace emission, and the progress
watchdog.  The lifecycle
never sees either representation — the per-node injection gate holds
the engine's opaque handle for the worm using it (``None`` when free),
and drops and deliveries arrive as plain integers — so this module is
numpy-free and imports neither engine.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from typing import Callable, Collection, Deque, Dict, List, Optional, Set, Tuple

from .config import SimulationConfig
from .metrics import SimulationResult
from .packet import Packet


class PacketLifecycle:
    """Source side and measurement accounting of one operating point.

    Owns the RNG, the arrival calendar, the source queues, the injection
    gates with their ``pending_nodes`` set (non-empty queue, free
    injector), the retry calendar, packet ids, and the
    :class:`SimulationResult`.  ``dead_routers`` is the engine's *live*
    set of failed routers: a dead router offers no traffic and cannot
    inject, and a message to one is dropped at the source.

    :meth:`inject` iterates ``pending_nodes`` in set order, so the exact
    sequence of adds and discards is part of the bit-identity contract
    between backends — which is why every one of them happens here.
    """

    def __init__(
        self,
        algorithm,
        pattern,
        config: SimulationConfig,
        dead_routers: Collection[int] = (),
    ) -> None:
        topology = algorithm.topology
        nodes = range(topology.num_nodes)
        self.config = config
        self.pattern = pattern
        self.dead_routers = dead_routers
        self.rng = random.Random(config.seed)
        self.queues: List[Deque[Packet]] = [deque() for _ in nodes]
        self.injection_busy: List[object] = [None for _ in nodes]
        self.pending_nodes: Set[int] = set()
        self.sources = list(pattern.active_sources(topology))
        # The arrival calendar: a heap of (next arrival time, source
        # index) so a cycle with no due source costs one peek.
        # ``next_arrival`` mirrors it per node for introspection and for
        # the test suite's scan-based generator.
        self.next_arrival: Dict[int, float] = {}
        self.arrival_heap: List[Tuple[float, int]] = []
        rate = config.messages_per_cycle
        if rate > 0:
            for index, node in enumerate(self.sources):
                when = self.rng.expovariate(rate)
                self.next_arrival[node] = when
                self.arrival_heap.append((when, index))
            heapq.heapify(self.arrival_heap)
        self.backlog = 0  # queued packets network-wide
        self.next_pid = 0
        self.retry_at: Dict[int, List[Packet]] = {}  # cycle -> retries due
        self.result = SimulationResult(
            algorithm=algorithm.name,
            pattern=getattr(pattern, "name", type(pattern).__name__),
            offered_load=config.offered_load,
            num_nodes=topology.num_nodes,
            active_sources=len(self.sources),
            measure_cycles=config.measure_cycles,
            cycle_time_us=config.cycle_time_us,
        )
        if config.collect_latency_histogram:
            self.result.latency_histogram = {}

    # -- generation ----------------------------------------------------------

    def new_packet(
        self, src: int, dst: int, length: int, created: int, attempt: int = 0
    ) -> Packet:
        """A packet with the next id (fresh message or retry)."""
        packet = Packet(self.next_pid, src, dst, length, created)
        self.next_pid += 1
        packet.attempt = attempt
        return packet

    def generate(self, cycle: int) -> None:
        """Arrival-calendar generation: drain the heap of due sources.

        Bit-identical to scanning every source every cycle: sources
        whose next arrival lies in the future draw nothing there too,
        and the due sources are processed in source-list order, so the
        RNG sees exactly the same draw sequence."""
        heap = self.arrival_heap
        if not heap or heap[0][0] > cycle:
            return  # no source due this cycle: one peek and done
        config = self.config
        if cycle >= config.generation_cycles:
            return  # drain window: let in-flight traffic finish
        pop = heapq.heappop
        due = [pop(heap)]
        while heap and heap[0][0] <= cycle:
            due.append(pop(heap))
        if len(due) > 1:
            # The heap yields time order; the RNG contract is source-list
            # order (the order the scan-based generator visits them).
            due.sort(key=lambda item: item[1])
        rate = config.messages_per_cycle
        lengths = config.message_lengths
        num_lengths = len(lengths)
        max_queue = config.max_queue_per_node
        rng = self.rng
        expovariate = rng.expovariate
        randrange = rng.randrange
        pattern_dest = self.pattern.dest
        queues = self.queues
        sources = self.sources
        next_arrival = self.next_arrival
        push = heapq.heappush
        dead_routers = self.dead_routers
        for when, index in due:
            node = sources[index]
            while when <= cycle:
                when += expovariate(rate)
                if node in dead_routers:
                    continue  # a dead router offers no traffic
                if len(queues[node]) >= max_queue:
                    continue
                dst = pattern_dest(node, rng)
                if dst is None or dst == node:
                    continue
                length = lengths[randrange(num_lengths)]
                self.enqueue(self.new_packet(node, dst, length, cycle))
            next_arrival[node] = when
            push(heap, (when, index))

    # -- source queues and the injection gate --------------------------------

    def enqueue(self, packet: Packet) -> None:
        """Queue a fresh message at its source processor."""
        if packet.created >= self.config.warmup_cycles:
            self.result.generated_packets += 1
        self.requeue(packet)

    def requeue(self, packet: Packet) -> None:
        """Queue a packet without generation accounting (a retry: the
        original creation already counted)."""
        node = packet.src
        self.queues[node].append(packet)
        self.backlog += 1
        if self.injection_busy[node] is None:
            self.pending_nodes.add(node)

    def pop_retries(self, cycle: int) -> None:
        """Requeue the retries whose backoff expires this cycle."""
        for packet in self.retry_at.pop(cycle, ()):
            self.requeue(packet)

    def inject(self, cycle: int, admit: Callable, drop: Callable) -> None:
        """The injection scan: every pending node's queue head claims
        the node's injection channel.

        ``admit(packet, cycle)`` is the engine putting the worm into the
        network; its return value is the handle kept on the gate until
        :meth:`release_injection`.  A head addressed to a dead router is
        handed to ``drop(packet, cycle, cause)`` at the source instead
        of wasting network resources on an unreachable destination (it
        may heal before a retry, so retries still apply)."""
        pending = self.pending_nodes
        queues = self.queues
        busy = self.injection_busy
        dead_routers = self.dead_routers
        for node in list(pending):
            queue = queues[node]
            if not queue or busy[node] is not None or node in dead_routers:
                # (A dead router cannot inject; its queue waits for a heal.)
                pending.discard(node)
                continue
            packet = queue.popleft()
            self.backlog -= 1
            if packet.dst in dead_routers:
                drop(packet, cycle, "dead-destination")
                if not queue:
                    pending.discard(node)
                continue
            busy[node] = admit(packet, cycle)
            pending.discard(node)

    def release_injection(self, node: int) -> bool:
        """Free ``node``'s injection channel (the worm's last flit left
        the source, or the worm was killed).  True when the node
        re-entered ``pending_nodes`` — its queue holds another message."""
        self.injection_busy[node] = None
        if self.queues[node]:
            self.pending_nodes.add(node)
            return True
        return False

    def router_failed(self, node: int) -> None:
        """Close a failed router's injection gate."""
        self.pending_nodes.discard(node)

    def router_healed(self, node: int) -> bool:
        """Re-arm a healed router's gate; True when it has a backlog to
        inject (the node re-entered ``pending_nodes``)."""
        if self.queues[node] and self.injection_busy[node] is None:
            self.pending_nodes.add(node)
            return True
        return False

    # -- accounting ----------------------------------------------------------

    def account_drop(
        self, src: int, dst: int, length: int, created: int, attempt: int,
        cycle: int, cause: str, killed: bool = False,
    ) -> Optional[int]:
        """Account one drop event and, if attempts remain, schedule a
        retry from the source with bounded exponential backoff.  Returns
        the cycle the retry is due, or ``None`` for a final drop."""
        config = self.config
        result = self.result
        measured = created >= config.warmup_cycles
        if measured:
            if killed:
                result.killed_packets += 1
            result.drops_by_cause[cause] = (
                result.drops_by_cause.get(cause, 0) + 1
            )
        if attempt >= config.max_retries:
            if measured:
                result.dropped_packets += 1
            return None
        due = cycle + min(
            config.retry_backoff_base << attempt, config.retry_backoff_cap
        )
        self.retry_at.setdefault(due, []).append(
            self.new_packet(src, dst, length, created, attempt + 1)
        )
        if measured:
            result.retried_packets += 1
        return due

    def account_delivery(
        self, length: int, created: int, injected: Optional[int], hops: int,
        misroutes: int, cycle: int,
    ) -> None:
        """Account one delivered message (tail flit ejected at ``cycle``;
        ``injected`` is the cycle its header left the source)."""
        if created < self.config.warmup_cycles:
            return
        result = self.result
        latency = cycle - created
        result.delivered_packets += 1
        result.delivered_flits += length
        result.total_latency_cycles += latency
        result.total_net_latency_cycles += cycle - (
            injected if injected is not None else created
        )
        result.total_hops += hops
        result.total_misroutes += misroutes
        result.latency_by_length.setdefault(length, []).append(latency)
        histogram = result.latency_histogram
        if histogram is not None:
            histogram[latency] = histogram.get(latency, 0) + 1
