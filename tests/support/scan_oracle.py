"""The scan oracle: the event engine with every shortcut taken out.

:class:`ScanSimulator` is :class:`~repro.simulation.engine.
WormholeSimulator` running the pre-optimisation code paths — it visits
every source every cycle instead of popping the arrival calendar, asks
the routing algorithm directly on every decision instead of reading the
shared ``NetworkTables``, never parks a blocked header, and never
fast-forwards a streaming worm.  Everything else (arbitration order,
movement, faults, watchdogs, accounting, observability) is inherited,
so any divergence between the two isolates a bug in one shortcut.  The
cross-equivalence suites require bit-identical results and traces.

It needs no numpy; import it as ``from scan_oracle import ScanSimulator``
(the repository-root ``conftest.py`` puts this directory on
``sys.path``).
"""

from typing import List

from repro.observability.profiler import timed
from repro.simulation.engine import WormholeSimulator
from repro.simulation.packet import Packet


class ScanSimulator(WormholeSimulator):
    """Scan-based generation and routing; no parking, no streaming."""

    def __init__(self, algorithm, pattern, config, sink=None, profiler=None):
        super().__init__(algorithm, pattern, config, sink=sink, profiler=profiler)
        self._stream = False
        # ``__init__`` bound (and, with a profiler, wrapped) the
        # lifecycle's calendar by name; swap in the scan and re-wrap it.
        generate = self._generate_scan
        if profiler is not None:
            generate = timed("generate", generate, (profiler,))
        self._generate = generate

    def _generate_scan(self, cycle: int) -> None:
        """Visit every source, every cycle — reading and advancing the
        same lifecycle state the calendar does."""
        config = self.config
        rate = config.messages_per_cycle
        if rate <= 0 or cycle >= config.generation_cycles:
            return  # no traffic, or the drain window
        life = self._life
        rng = self.rng
        lengths = config.message_lengths
        for node in self.sources:
            when = self.next_arrival[node]
            while when <= cycle:
                when += rng.expovariate(rate)
                if node in life.dead_routers:
                    continue  # a dead router offers no traffic
                if len(self.queues[node]) >= config.max_queue_per_node:
                    continue
                dst = self.pattern.dest(node, rng)
                if dst is None or dst == node:
                    continue
                length = lengths[rng.randrange(len(lengths))]
                life.enqueue(life.new_packet(node, dst, length, cycle))
            self.next_arrival[node] = when

    def _candidate_channels(self, packet: Packet) -> List[tuple]:
        """Free ``(direction, runtime channel id, misroute bit)``
        candidates derived from scratch: the algorithm asked directly,
        the misroute bit from two distance computations."""
        algorithm = self.algorithm
        args = (packet.head_node, packet.dst, packet.head_direction)
        if self.num_vc == 1:
            pairs = [(d, 0) for d in algorithm.candidates(*args)]
        else:
            pairs = algorithm.vc_candidates(*args, packet.head_vc, self.num_vc)
        free = self._free(packet, pairs)
        if not free and packet.misroutes < self.config.misroute_limit:
            if self.num_vc == 1:
                pairs = [(d, 0) for d in algorithm.escape_candidates(*args)]
            else:
                pairs = algorithm.vc_escape_candidates(
                    *args, packet.head_vc, self.num_vc
                )
            free = self._free(packet, pairs)
        return free

    def _free(self, packet: Packet, pairs) -> List[tuple]:
        """The unallocated channels among ``(direction, vc)`` pairs."""
        node = packet.head_node
        distance = self.topology.distance
        out = []
        for direction, vc in pairs:
            if self.num_vc == 1:
                cid = self.channel_ids[(node, direction)]
            else:
                base = self.channel_ids.get((node, direction))
                if base is None or not 0 <= vc < self.num_vc:
                    continue
                cid = base + vc
            if self.channel_alloc[cid] is None:
                misroute = int(
                    distance(self.channels[cid].dst, packet.dst)
                    >= distance(node, packet.dst)
                )
                out.append((direction, cid, misroute))
        return out

    def _park(self, packet: Packet) -> None:
        """Never park: a blocked header is rescanned every cycle."""

    def _park_eject(self, packet: Packet) -> None:
        """Never park: a header waiting to eject is rescanned every
        cycle."""
