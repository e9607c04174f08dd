"""``PacketLifecycle`` in isolation: no engine is constructed here.

The component is the one copy of the source model and the measurement
accounting both engine backends call (docs/SIMULATOR.md, "Engine
structure"), so its contracts are pinned directly: the RNG draw order of
the arrival calendar against a naive scan, the retry backoff arithmetic
and its warmup-gated counters, and the injection gate's
``pending_nodes`` bookkeeping.
"""

import random

import pytest

from repro.routing import XY
from repro.simulation.config import SimulationConfig
from repro.simulation.lifecycle import PacketLifecycle
from repro.topology import Mesh2D
from repro.traffic import UniformPattern


def build(dead_routers=(), **overrides):
    mesh = Mesh2D(4, 4)
    kwargs = dict(offered_load=2.0, warmup_cycles=50, measure_cycles=150, seed=11)
    kwargs.update(overrides)
    config = SimulationConfig(**kwargs)
    return PacketLifecycle(XY(mesh), UniformPattern(mesh), config, dead_routers)


def naive_stream(config, cycles, dead_routers, dead_window, dead_node):
    """Every source, every cycle — the generation the calendar must
    replay draw for draw.  Nothing ever leaves a queue."""
    mesh = Mesh2D(4, 4)
    pattern = UniformPattern(mesh)
    rng = random.Random(config.seed)
    rate = config.messages_per_cycle
    sources = list(pattern.active_sources(mesh))
    next_arrival = {node: rng.expovariate(rate) for node in sources}
    queued = dict.fromkeys(sources, 0)
    stream = []
    for cycle in range(cycles):
        if cycle == dead_window[0]:
            dead_routers.add(dead_node)
        if cycle == dead_window[1]:
            dead_routers.discard(dead_node)
        if cycle >= config.generation_cycles:
            continue
        for node in sources:
            when = next_arrival[node]
            while when <= cycle:
                when += rng.expovariate(rate)
                if node in dead_routers:
                    continue
                if queued[node] >= config.max_queue_per_node:
                    continue
                dst = pattern.dest(node, rng)
                if dst is None or dst == node:
                    continue
                length = config.message_lengths[
                    rng.randrange(len(config.message_lengths))
                ]
                stream.append((cycle, node, dst, length, len(stream)))
                queued[node] += 1
            next_arrival[node] = when
    return stream


class TestArrivalCalendar:
    @pytest.mark.parametrize("max_queue", [3, 10_000])
    def test_calendar_replays_the_naive_scan(self, max_queue):
        # A router dead for a window still consumes its interarrival
        # draws but queues nothing; with max_queue=3 the queues (never
        # drained here) fill, so the full-queue branch is exercised too.
        dead = set()
        life = build(
            dead, offered_load=40.0, max_queue_per_node=max_queue,
            drain_cycles=20,
        )
        config = life.config
        cycles = config.total_cycles
        expected = naive_stream(config, cycles, set(), (30, 90), 5)
        seen = []
        enqueue = life.enqueue

        def spy(packet):
            seen.append(
                (packet.created, packet.src, packet.dst, packet.length,
                 packet.pid)
            )
            enqueue(packet)

        life.enqueue = spy
        for cycle in range(cycles):
            if cycle == 30:
                dead.add(5)
            if cycle == 90:
                dead.discard(5)
            life.generate(cycle)
        assert seen == expected
        assert seen  # the point generated traffic
        assert not any(30 <= c < 90 and src == 5 for c, src, *_ in seen)
        if max_queue == 3:
            assert max(len(q) for q in life.queues) == 3
        measured = sum(1 for c, *_ in seen if c >= config.warmup_cycles)
        assert life.result.generated_packets == measured
        assert life.backlog == len(seen)

    def test_zero_load_draws_nothing(self):
        life = build(offered_load=0.0)
        state = life.rng.getstate()
        for cycle in range(50):
            life.generate(cycle)
        assert life.rng.getstate() == state
        assert life.next_pid == 0


class TestBackoff:
    def test_attempt_k_is_due_after_min_base_shifted_k_and_cap(self):
        life = build(max_retries=3, retry_backoff_base=4, retry_backoff_cap=10)
        dues = [
            life.account_drop(0, 5, 10, 60, attempt, 100, "link-failure")
            for attempt in range(4)
        ]
        assert dues == [104, 108, 110, None]  # 4<<2 = 16 is capped at 10
        result = life.result
        assert result.retried_packets == 3
        assert result.dropped_packets == 1
        assert result.killed_packets == 0
        assert result.drops_by_cause == {"link-failure": 4}
        retries = [p for due in (104, 108, 110) for p in life.retry_at[due]]
        assert [p.attempt for p in retries] == [1, 2, 3]
        assert [p.pid for p in retries] == [0, 1, 2]
        assert {(p.src, p.dst, p.length, p.created) for p in retries} == {
            (0, 5, 10, 60)
        }

    def test_counters_only_count_measured_packets(self):
        life = build(max_retries=1, warmup_cycles=50)
        due = life.account_drop(0, 5, 10, 49, 0, 70, "timeout-stall", killed=True)
        assert due == 70 + 32  # a warmup packet is still retried ...
        life.account_drop(0, 5, 10, 49, 1, 200, "timeout-stall", killed=True)
        result = life.result  # ... but never counted
        assert (result.retried_packets, result.dropped_packets) == (0, 0)
        assert result.killed_packets == 0 and result.drops_by_cause == {}
        life.account_drop(0, 5, 10, 50, 1, 200, "timeout-stall", killed=True)
        assert result.dropped_packets == 1 and result.killed_packets == 1
        assert result.drops_by_cause == {"timeout-stall": 1}

    def test_pop_retries_requeues_without_generation_accounting(self):
        life = build(max_retries=1)
        due = life.account_drop(2, 9, 10, 60, 0, 100, "router-failure")
        life.pop_retries(due - 1)
        assert life.backlog == 0
        life.pop_retries(due)
        assert [p.attempt for p in life.queues[2]] == [1]
        assert life.backlog == 1 and life.pending_nodes == {2}
        assert life.retry_at == {}
        assert life.result.generated_packets == 0


class TestInjectionGate:
    def admit_all(self, life, cycle=60):
        admitted, dropped = [], []
        life.inject(
            cycle,
            lambda packet, cycle: admitted.append(packet) or packet.pid,
            lambda packet, cycle, cause: dropped.append((packet, cause)),
        )
        return admitted, dropped

    def test_release_rearms_only_a_nonempty_queue(self):
        life = build()
        first = life.new_packet(0, 5, 10, 60)
        second = life.new_packet(0, 7, 10, 60)
        life.enqueue(first)
        life.enqueue(second)
        assert life.pending_nodes == {0}
        admitted, _ = self.admit_all(life)
        assert admitted == [first]  # one injection channel per node
        assert life.injection_busy[0] == first.pid  # the engine's handle
        assert life.pending_nodes == set() and life.backlog == 1
        life.enqueue(life.new_packet(0, 9, 10, 61))
        assert life.pending_nodes == set()  # gate busy: not pending
        assert life.release_injection(0) is True
        assert life.pending_nodes == {0} and life.injection_busy[0] is None
        admitted, _ = self.admit_all(life)
        assert admitted == [second]
        assert life.release_injection(0) is True
        self.admit_all(life)
        assert life.release_injection(0) is False  # queue drained
        assert life.pending_nodes == set()

    def test_slot_zero_is_a_busy_gate(self):
        # The array engine's handles are slot ints; slot 0 must not read
        # as a free gate.
        life = build()
        life.enqueue(life.new_packet(3, 5, 10, 60))
        life.enqueue(life.new_packet(3, 6, 10, 60))
        life.inject(60, lambda packet, cycle: 0, None)
        assert life.injection_busy[3] == 0
        life.pending_nodes.add(3)
        admitted, _ = self.admit_all(life)
        assert admitted == [] and len(life.queues[3]) == 1

    def test_healed_router_with_a_backlog_rearms(self):
        dead = {3}
        life = build(dead)
        life.enqueue(life.new_packet(3, 5, 10, 60))
        admitted, dropped = self.admit_all(life)
        # A dead router cannot inject; its queue waits for the heal.
        assert (admitted, dropped) == ([], [])
        assert life.pending_nodes == set() and life.backlog == 1
        assert life.router_healed(4) is False  # nothing queued there
        dead.discard(3)
        assert life.router_healed(3) is True
        assert life.pending_nodes == {3}
        life.router_failed(3)
        assert life.pending_nodes == set()

    def test_dead_destination_is_dropped_at_the_source(self):
        dead = {5}
        life = build(dead)
        doomed = life.new_packet(0, 5, 10, 60)
        fine = life.new_packet(0, 6, 10, 60)
        life.enqueue(doomed)
        life.enqueue(fine)
        admitted, dropped = self.admit_all(life)
        assert dropped == [(doomed, "dead-destination")]
        assert admitted == []  # the next head waits for the next scan
        assert life.pending_nodes == {0} and life.backlog == 1
        admitted, _ = self.admit_all(life)
        assert admitted == [fine]


class TestDeliveryAccounting:
    def test_latency_histogram_is_exact(self):
        life = build(collect_latency_histogram=True, warmup_cycles=50)
        for latency in (10, 10, 12, 30):
            life.account_delivery(20, 60, 62, 4, 1, 60 + latency)
        life.account_delivery(20, 49, 50, 4, 0, 80)  # warmup: not measured
        result = life.result
        assert result.latency_histogram == {10: 2, 12: 1, 30: 1}
        assert result.delivered_packets == 4
        assert result.delivered_flits == 80
        assert result.total_latency_cycles == 62
        assert result.total_net_latency_cycles == 62 - 4 * 2
        assert (result.total_hops, result.total_misroutes) == (16, 4)
        assert result.latency_by_length == {20: [10, 10, 12, 30]}

    def test_histogram_off_by_default(self):
        life = build()
        life.account_delivery(20, 60, None, 4, 0, 75)
        assert life.result.latency_histogram is None
        assert life.result.total_net_latency_cycles == 15  # falls back to created


def test_module_imports_neither_numpy_nor_an_engine():
    import ast
    import inspect

    from repro.simulation import lifecycle

    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(lifecycle))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert imported == {
        "__future__", "heapq", "random", "collections", "typing",
        "config", "metrics", "packet",
    }
