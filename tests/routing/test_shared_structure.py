"""The shared network structure: one :class:`NetworkIndex` per topology
object, one :class:`NetworkTables` per (algorithm object, VC count),
handed to every simulator and batch — built once, never fault-masked,
keyed by identity, and bounded.
"""

import collections
import dataclasses

import pytest

import repro.analysis.runner as runner
import repro.routing.table as table
from repro.analysis.runner import PointSpec, make_pattern
from repro.core.turn_model import TurnModel
from repro.routing import TurnRestrictedMinimal, WestFirst, make_algorithm
from repro.routing.table import NetworkTables, network_index, shared_tables
from repro.simulation.array_engine import BatchSimulator, numpy_available
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import WormholeSimulator
from repro.topology.mesh import Mesh2D

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed"
)

CONFIG = SimulationConfig(
    offered_load=1.2, warmup_cycles=50, measure_cycles=250, seed=3
)


@pytest.fixture(autouse=True)
def fresh_registries(monkeypatch):
    monkeypatch.setattr(table, "_SHARED", {})
    monkeypatch.setattr(runner, "_TOPOLOGIES", {})
    monkeypatch.setattr(runner, "_ALGORITHMS", {})


class CountingMesh(Mesh2D):
    """Counts how often the channel list is asked for."""

    def __init__(self, m, n):
        super().__init__(m, n)
        self.channel_calls = 0

    def channels(self):
        self.channel_calls += 1
        return super().channels()


class SpyWestFirst(WestFirst):
    """Counts derivations per ``(node, dest, in_direction)``."""

    def __init__(self, topology):
        super().__init__(topology)
        self.asked = collections.Counter()

    def candidates(self, current, dest, in_direction=None):
        self.asked[(current, dest, in_direction)] += 1
        return super().candidates(current, dest, in_direction)


class FirstCandidateOnly(WestFirst):
    """West-first made deterministic: a different routing function
    under the same registry name."""

    def candidates(self, current, dest, in_direction=None):
        return super().candidates(current, dest, in_direction)[:1]


def run_event(algorithm, config=CONFIG, reference=False):
    pattern = make_pattern("uniform", algorithm.topology)
    return WormholeSimulator(
        algorithm, pattern, config, reference=reference
    ).run()


class TestBuiltOnce:
    def test_channels_and_decisions_derived_once_across_runs(self):
        topology = CountingMesh(5, 5)
        spy = SpyWestFirst(topology)
        first = run_event(spy)
        run_event(spy, CONFIG.with_seed(5))
        assert topology.channel_calls == 1
        assert spy.asked and max(spy.asked.values()) == 1
        # A repeat of the first run asks the algorithm nothing new.
        asked = sum(spy.asked.values())
        assert run_event(spy).to_dict() == first.to_dict()
        assert sum(spy.asked.values()) == asked

    @needs_numpy
    def test_batch_members_share_the_simulators_tables(self):
        topology = CountingMesh(5, 5)
        spy = SpyWestFirst(topology)
        run_event(spy)
        run_event(spy, CONFIG.with_seed(5))
        pattern = make_pattern("uniform", topology)
        BatchSimulator([
            (spy, pattern, CONFIG.with_seed(s).with_backend("array"))
            for s in range(8)
        ]).run()
        assert topology.channel_calls == 1
        assert max(spy.asked.values()) == 1

    def test_index_is_per_topology_object(self):
        a, b = Mesh2D(4, 4), Mesh2D(4, 4)
        assert network_index(a) is network_index(a)
        assert network_index(a) is not network_index(b)
        index = network_index(a)
        assert index.directions == tuple(sorted(a.directions()))
        assert index.affected_nodes(5, channel_only=False) == {5, 1, 4, 6, 9}

    def test_directions_allocated_once(self):
        topology = Mesh2D(4, 4)
        first = topology.directions()
        assert all(x is y for x, y in zip(first, topology.directions()))

    def test_stored_misroute_bit_matches_the_distance_test(self):
        topology = Mesh2D(4, 4)
        tables = NetworkTables(make_algorithm("negative-first", topology))
        for node in range(topology.num_nodes):
            port = node * tables.node_ports
            for dest in range(topology.num_nodes):
                if dest == node:
                    continue
                decisions = tables.minimal(port, dest) + tables.escape(port, dest)
                for _, cid, misroute in decisions:
                    channel = tables.channels[cid]
                    assert channel.src == node
                    assert misroute == int(
                        topology.distance(channel.dst, dest)
                        >= topology.distance(node, dest)
                    )


class TestIdentity:
    def test_equal_algorithms_do_not_share(self):
        topology = Mesh2D(4, 4)
        a, b = WestFirst(topology), WestFirst(topology)
        assert shared_tables(a) is shared_tables(a)
        assert shared_tables(a) is not shared_tables(b)

    def test_subclass_spy_gets_its_own_answers(self):
        topology = Mesh2D(5, 5)
        plain = WestFirst(topology)
        run_event(plain)  # warm the same-named algorithm's tables
        narrowed = FirstCandidateOnly(topology)
        shared = run_event(narrowed)
        table._SHARED.clear()
        assert shared.to_dict() == run_event(
            FirstCandidateOnly(Mesh2D(5, 5))
        ).to_dict()
        assert shared.to_dict() != run_event(plain).to_dict()

    def test_hand_built_turn_model_gets_its_own_answers(self):
        topology = Mesh2D(5, 5)
        run_event(make_algorithm("north-last", topology))
        custom = TurnRestrictedMinimal(topology, TurnModel.north_last())
        spy_calls = []
        original = custom.candidates
        custom.candidates = lambda *args: (
            spy_calls.append(args) or original(*args)
        )
        result = run_event(custom)
        assert spy_calls  # its decisions were derived from *it*
        assert result.to_dict() == run_event(
            TurnRestrictedMinimal(Mesh2D(5, 5), TurnModel.north_last())
        ).to_dict()

    def test_reference_engine_never_reads_the_tables(self, monkeypatch):
        algorithm = WestFirst(Mesh2D(5, 5))
        expected = run_event(algorithm)

        def forbidden(self, port, dest):
            raise AssertionError("reference=True read the shared tables")

        monkeypatch.setattr(NetworkTables, "minimal", forbidden)
        monkeypatch.setattr(NetworkTables, "escape", forbidden)
        assert run_event(algorithm, reference=True).to_dict() == (
            expected.to_dict()
        )

    def test_vc_counts_do_not_alias(self):
        topology = runner.parse_topology_spec("torus:4x2")
        algorithm = make_algorithm("dateline-dimension-order", topology)
        one, two = shared_tables(algorithm, 1), shared_tables(algorithm, 2)
        assert one is not two
        assert len(two.channels) == 2 * len(one.channels)
        config = dataclasses.replace(CONFIG, offered_load=0.6)
        results = {
            num_vc: run_event(
                algorithm, dataclasses.replace(config, virtual_channels=num_vc)
            )
            for num_vc in (1, 2, 1, 2)
        }
        for num_vc, result in results.items():
            fresh = make_algorithm(
                "dateline-dimension-order", runner._parse_topology("torus:4x2")
            )
            assert result.to_dict() == run_event(
                fresh, dataclasses.replace(config, virtual_channels=num_vc)
            ).to_dict()


class TestBound:
    def test_evicts_least_recently_used_first(self):
        topology = Mesh2D(3, 3)
        algorithms = [WestFirst(topology) for _ in range(table._SHARED_MAX + 1)]
        for algorithm in algorithms[:-1]:
            shared_tables(algorithm)
        shared_tables(algorithms[0])  # touch: the first is now newest
        shared_tables(algorithms[-1])
        assert len(table._SHARED) == table._SHARED_MAX
        assert (id(algorithms[1]), 1) not in table._SHARED
        assert (id(algorithms[0]), 1) in table._SHARED

    def test_in_flight_simulator_survives_eviction(self):
        topology = Mesh2D(5, 5)
        algorithm = WestFirst(topology)
        expected = run_event(algorithm)
        table._SHARED.clear()
        sim = WormholeSimulator(
            algorithm, make_pattern("uniform", topology), CONFIG
        )
        for _ in range(CONFIG.total_cycles // 2):
            sim.step()
        for _ in range(table._SHARED_MAX):
            shared_tables(WestFirst(topology))
        assert (id(algorithm), 1) not in table._SHARED
        for _ in range(CONFIG.total_cycles - CONFIG.total_cycles // 2):
            sim.step()
        assert sim.finalize().to_dict() == expected.to_dict()


class TestRunnerHandsOutSharedObjects:
    def test_equal_specs_build_the_same_network_objects(self):
        a1, p1 = PointSpec("mesh:4x4", "west-first", "uniform", CONFIG).build()
        a2, p2 = PointSpec(
            "mesh:4x4", "West-First", "transpose", CONFIG.with_seed(9)
        ).build()
        assert a1 is a2
        assert a1.topology is runner.parse_topology_spec("mesh:4x4")
        assert p1 is not p2 and p1.topology is a1.topology
        other, _ = PointSpec("mesh:4x4", "north-last", "uniform", CONFIG).build()
        assert other is not a1 and other.topology is a1.topology

    def test_memos_are_bounded(self):
        for k in range(runner._NETWORK_MEMO_MAX + 3):
            PointSpec(f"mesh:3x{k + 3}", "xy", "uniform", CONFIG).build()
        assert len(runner._TOPOLOGIES) == runner._NETWORK_MEMO_MAX
        assert len(runner._ALGORITHMS) == runner._NETWORK_MEMO_MAX
        assert "mesh:3x3" not in runner._TOPOLOGIES

    def test_bad_specs_still_raise_and_are_not_remembered(self):
        with pytest.raises(ValueError, match="bad topology spec"):
            runner.parse_topology_spec("ring:9")
        assert "ring:9" not in runner._TOPOLOGIES
        with pytest.raises(KeyError):
            PointSpec("mesh:4x4", "no-such", "uniform", CONFIG).build()
        assert not runner._ALGORITHMS
