"""RoutingTable: memoisation fidelity, laziness, and fault invalidation."""

from repro.faults.plan import FaultPlan
from repro.faults.routing import FaultAwareRouting
from repro.faults.state import FaultState
from repro.routing import RoutingTable, make_algorithm
from repro.topology.hypercube import Hypercube
from repro.topology.mesh import Mesh2D


class CountingAlgorithm:
    """Wraps an algorithm, counting calls into each query family."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def candidates(self, current, dest, in_direction=None):
        self.calls += 1
        return self.inner.candidates(current, dest, in_direction)

    def escape_candidates(self, current, dest, in_direction=None):
        self.calls += 1
        return self.inner.escape_candidates(current, dest, in_direction)

    def vc_candidates(self, current, dest, in_direction, in_vc, num_vc):
        self.calls += 1
        return self.inner.vc_candidates(
            current, dest, in_direction, in_vc, num_vc
        )

    def vc_escape_candidates(self, current, dest, in_direction, in_vc, num_vc):
        self.calls += 1
        return self.inner.vc_escape_candidates(
            current, dest, in_direction, in_vc, num_vc
        )


class TestMemoisation:
    def test_returns_algorithm_answers_verbatim(self):
        topology = Mesh2D(4, 4)
        algorithm = make_algorithm("west-first", topology)
        table = RoutingTable(algorithm)
        for node in range(topology.num_nodes):
            for dest in range(topology.num_nodes):
                if dest == node:
                    continue
                assert table.candidates(node, dest, None) == tuple(
                    algorithm.candidates(node, dest, None)
                )
                assert table.escape_candidates(node, dest, None) == tuple(
                    algorithm.escape_candidates(node, dest, None)
                )

    def test_second_query_hits_the_memo(self):
        counting = CountingAlgorithm(make_algorithm("xy", Mesh2D(3, 3)))
        table = RoutingTable(counting)
        first = table.candidates(0, 8, None)
        assert counting.calls == 1
        second = table.candidates(0, 8, None)
        assert counting.calls == 1  # served from the memo
        assert second is first  # the exact cached tuple, not a copy

    def test_empty_tuple_is_a_valid_cached_value(self):
        # Regression guard: an empty candidate set must be cached too
        # (a falsy-check memo would recompute it forever).
        counting = CountingAlgorithm(make_algorithm("west-first", Mesh2D(3, 3)))
        table = RoutingTable(counting)
        table.escape_candidates(0, 4, None)
        calls = counting.calls
        table.escape_candidates(0, 4, None)
        assert counting.calls == calls

    def test_vc_queries_keyed_by_vc_and_count(self):
        from repro.analysis.runner import parse_topology_spec

        topology = parse_topology_spec("torus:8x1")
        algorithm = make_algorithm("dateline-dimension-order", topology)
        table = RoutingTable(algorithm)
        for in_vc in (None, 0, 1):
            assert table.vc_candidates(0, 5, None, in_vc, 2) == tuple(
                algorithm.vc_candidates(0, 5, None, in_vc, 2)
            )
        assert table.num_entries == 3  # distinct keys, no collisions

    def test_lazy_build(self):
        counting = CountingAlgorithm(make_algorithm("xy", Mesh2D(4, 4)))
        table = RoutingTable(counting)
        assert counting.calls == 0
        assert table.num_entries == 0


class TestInvalidation:
    def test_invalidate_node_drops_only_that_node(self):
        table = RoutingTable(make_algorithm("xy", Mesh2D(4, 4)))
        table.candidates(0, 5, None)
        table.candidates(1, 5, None)
        assert table.num_entries == 2
        table.invalidate_node(0)
        assert table.num_entries == 1

    def test_clear(self):
        table = RoutingTable(make_algorithm("xy", Mesh2D(4, 4)))
        table.candidates(0, 5, None)
        table.clear()
        assert table.num_entries == 0

    def test_channel_event_affects_only_the_source_node(self):
        topology = Mesh2D(4, 4)
        table = RoutingTable(make_algorithm("xy", topology))
        assert table.affected_nodes(topology, 5, channel_only=True) == {5}

    def test_router_event_affects_node_and_in_neighbors(self):
        topology = Mesh2D(4, 4)
        table = RoutingTable(make_algorithm("xy", topology))
        affected = table.affected_nodes(topology, 5, channel_only=False)
        # Node 5 sits mid-mesh: four neighbours feed channels into it.
        assert affected == {5, 1, 4, 6, 9}

    def test_hypercube_in_neighbors(self):
        topology = Hypercube(3)
        table = RoutingTable(make_algorithm("e-cube", topology))
        affected = table.affected_nodes(topology, 0, channel_only=False)
        assert affected == {0, 1, 2, 4}


class TestFaultComposition:
    def test_masked_answers_refresh_after_invalidation(self):
        # The table composes over FaultAwareRouting: stale rows survive
        # a fault until invalidated, fresh rows see the new mask.
        topology = Mesh2D(4, 4)
        algorithm = make_algorithm("xy", topology)
        state = FaultState(topology)
        table = RoutingTable(FaultAwareRouting(algorithm, state))
        before = table.candidates(0, 3, None)  # all-East route
        assert len(before) == 1
        east = before[0]
        state.fail_channel(0, east)
        assert table.candidates(0, 3, None) == before  # stale (by design)
        table.invalidate_node(0)
        assert table.candidates(0, 3, None) == ()  # fresh: masked out
        state.heal_channel(0, east)
        table.invalidate_node(0)
        assert table.candidates(0, 3, None) == before

    def test_simulator_invalidates_on_fault_events(self):
        # End-to-end: a mid-run link failure must flow through the
        # engine's invalidation hook into its private masked rows.
        from repro.analysis.runner import make_pattern
        from repro.simulation.config import SimulationConfig
        from repro.simulation.engine import WormholeSimulator

        topology = Mesh2D(4, 4)
        plan = FaultPlan.random_links(topology, 2, seed=1, start=50)
        config = SimulationConfig(
            offered_load=1.0, warmup_cycles=50, measure_cycles=300,
            seed=2, fault_plan=plan, packet_timeout=200, max_retries=1,
        )
        sim = WormholeSimulator(
            make_algorithm("west-first", topology),
            make_pattern("uniform", topology),
            config,
        )
        result = sim.run()
        assert result.generated_packets > 0
        # The private masked decisions must never offer a dead channel.
        state = sim.fault_state
        node_ports = sim._tables.node_ports
        masked = 0
        for rows in sim._masked._rows:
            for port, row in enumerate(rows):
                for decision in (row or {}).values():
                    masked += 1
                    for direction, _, _ in decision:
                        key = (port // node_ports, direction)
                        assert key not in state.dead_channels
        assert masked > 0
