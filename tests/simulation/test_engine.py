"""Engine-level behaviour: generation, arbitration policies, metrics,
determinism, and the deadlock watchdog."""

from types import SimpleNamespace

import pytest

from repro.core import TurnModel
from repro.routing import TurnRestrictedMinimal, XY, WestFirst
from repro.simulation import (
    PacketState,
    SimulationConfig,
    WormholeSimulator,
    detect_deadlock,
)
from repro.routing.selection import XYPreference, ZigZag
from repro.simulation.selection import (
    fcfs_input_selection,
    get_input_policy,
    make_output_policy,
)
from repro.topology import EAST, Mesh2D, NORTH
from repro.traffic import MeshTransposePattern, UniformPattern


class TestGeneration:
    def test_offered_load_matches_generated_volume(self):
        mesh = Mesh2D(8, 8)
        config = SimulationConfig(
            offered_load=1.0, warmup_cycles=0, measure_cycles=20_000, seed=2
        )
        sim = WormholeSimulator(XY(mesh), UniformPattern(mesh), config)
        result = sim.run()
        expected_msgs = (
            config.messages_per_cycle * config.measure_cycles * 64
        )
        assert result.generated_packets == pytest.approx(
            expected_msgs, rel=0.1
        )

    def test_zero_load_generates_nothing(self):
        mesh = Mesh2D(4, 4)
        config = SimulationConfig(
            offered_load=0.0, warmup_cycles=0, measure_cycles=500
        )
        sim = WormholeSimulator(XY(mesh), UniformPattern(mesh), config)
        result = sim.run()
        assert result.generated_packets == 0
        assert result.delivered_packets == 0

    def test_message_lengths_sampled_from_config(self):
        mesh = Mesh2D(4, 4)
        config = SimulationConfig(
            offered_load=2.0,
            warmup_cycles=0,
            measure_cycles=3_000,
            message_lengths=(7,),
            seed=3,
        )
        sim = WormholeSimulator(XY(mesh), UniformPattern(mesh), config)
        result = sim.run()
        assert set(result.latency_by_length) == {7}

    def test_fixed_points_generate_no_traffic(self):
        mesh = Mesh2D(4, 4)
        pattern = MeshTransposePattern(mesh)
        config = SimulationConfig(offered_load=1.0, warmup_cycles=0, measure_cycles=100)
        sim = WormholeSimulator(XY(mesh), pattern, config)
        assert len(sim.sources) == 12  # 16 nodes minus the 4 diagonal


class TestDeterminism:
    def test_same_seed_same_result(self):
        mesh = Mesh2D(8, 8)
        config = SimulationConfig(
            offered_load=1.5, warmup_cycles=200, measure_cycles=2_000, seed=9
        )
        results = [
            WormholeSimulator(WestFirst(mesh), UniformPattern(mesh), config).run()
            for _ in range(2)
        ]
        assert results[0].delivered_packets == results[1].delivered_packets
        assert results[0].delivered_flits == results[1].delivered_flits
        assert (
            results[0].total_latency_cycles == results[1].total_latency_cycles
        )

    def test_different_seed_different_traffic(self):
        mesh = Mesh2D(8, 8)
        base = SimulationConfig(
            offered_load=1.5, warmup_cycles=200, measure_cycles=2_000, seed=9
        )
        a = WormholeSimulator(XY(mesh), UniformPattern(mesh), base).run()
        b = WormholeSimulator(
            XY(mesh), UniformPattern(mesh), base.with_seed(10)
        ).run()
        assert a.total_latency_cycles != b.total_latency_cycles


class TestSelectionPolicies:
    def test_fcfs_prefers_earlier_arrival(self):
        class P:
            def __init__(self, pid, since):
                self.pid, self.header_wait_since = pid, since

        early, late = P(2, 10), P(1, 20)
        assert fcfs_input_selection([late, early], None) is early

    def test_fcfs_tie_breaks_on_pid(self):
        class P:
            def __init__(self, pid, since):
                self.pid, self.header_wait_since = pid, since

        a, b = P(2, 10), P(1, 10)
        assert fcfs_input_selection([a, b], None) is b

    def test_xy_output_selection_prefers_lowest_dimension(self):
        options = [NORTH, EAST]
        assert XYPreference()(options, None, None) == EAST

    def test_zigzag_prefers_dimension_change(self):
        class P:
            head_direction = EAST

        assert ZigZag()([EAST, NORTH], P(), None) == NORTH

    def test_unknown_policy_names_raise(self):
        with pytest.raises(KeyError):
            make_output_policy(
                SimpleNamespace(output_selection="nope", selection_threshold=2)
            )
        with pytest.raises(KeyError):
            get_input_policy("nope")

    def test_random_policies_run(self):
        mesh = Mesh2D(8, 8)
        config = SimulationConfig(
            offered_load=1.0,
            warmup_cycles=100,
            measure_cycles=1_000,
            input_selection="random",
            output_selection="random",
            seed=4,
        )
        result = WormholeSimulator(
            WestFirst(mesh), UniformPattern(mesh), config
        ).run()
        assert result.delivered_packets > 0


class TestMetrics:
    def test_latency_includes_source_queueing(self):
        mesh = Mesh2D(8, 8)
        config = SimulationConfig(offered_load=0.0, warmup_cycles=0, measure_cycles=2000)
        sim = WormholeSimulator(XY(mesh), UniformPattern(mesh), config)
        first = sim.inject_packet(0, 7, 100, created=0)
        second = sim.inject_packet(0, 7, 10, created=0)
        while second.state is not PacketState.DELIVERED:
            sim.step()
        result = sim.result
        # Second message waited ~100 cycles at the source; total latency
        # must reflect that, network latency must not.
        assert result.total_latency_cycles > result.total_net_latency_cycles
        assert second.delivered - second.injected < 40

    def test_throughput_counts_measurement_window_only(self):
        mesh = Mesh2D(8, 8)
        config = SimulationConfig(
            offered_load=0.4, warmup_cycles=2_000, measure_cycles=6_000, seed=5
        )
        result = WormholeSimulator(
            XY(mesh), UniformPattern(mesh), config
        ).run()
        # Well below saturation, delivered volume tracks offered volume
        # (modulo end-of-window truncation of in-flight messages).
        offered_flits = 64 * 0.4 * result.measure_time_us
        assert result.delivered_flits == pytest.approx(offered_flits, rel=0.3)

    def test_summary_renders(self):
        mesh = Mesh2D(4, 4)
        config = SimulationConfig(offered_load=0.5, warmup_cycles=100, measure_cycles=500)
        result = WormholeSimulator(
            XY(mesh), UniformPattern(mesh), config
        ).run()
        text = result.summary()
        assert "xy" in text and "uniform" in text


class TestDeadlockWatchdog:
    def test_unrestricted_adaptive_routing_deadlocks(self):
        """Figure 1: with no prohibited turns, circular waits happen."""
        mesh = Mesh2D(8, 8)
        anything_goes = TurnRestrictedMinimal(
            mesh, TurnModel.from_prohibited("none", 2, set())
        )
        config = SimulationConfig(
            offered_load=6.0,
            warmup_cycles=0,
            measure_cycles=60_000,
            deadlock_threshold=2_000,
            seed=1,
        )
        sim = WormholeSimulator(anything_goes, UniformPattern(mesh), config)
        result = sim.run()
        assert result.deadlock
        report = detect_deadlock(sim)
        assert report.deadlocked  # a genuine circular wait, not a strand
        assert all(len(cycle) >= 2 for cycle in report.cycles)

    def test_turn_model_routing_never_trips_watchdog(self):
        mesh = Mesh2D(8, 8)
        config = SimulationConfig(
            offered_load=6.0,
            warmup_cycles=0,
            measure_cycles=15_000,
            deadlock_threshold=2_000,
            seed=1,
        )
        result = WormholeSimulator(
            WestFirst(mesh), UniformPattern(mesh), config
        ).run()
        assert not result.deadlock


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SimulationConfig(buffer_depth=0)
        with pytest.raises(ValueError):
            SimulationConfig(channel_bandwidth=0)
        with pytest.raises(ValueError):
            SimulationConfig(message_lengths=())
        with pytest.raises(ValueError):
            SimulationConfig(offered_load=-1)
        with pytest.raises(ValueError):
            SimulationConfig(misroute_limit=-1)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            # An infinite rate draws zero interarrival gaps forever.
            ("offered_load", float("inf"), "finite"),
            ("offered_load", float("nan"), "finite"),
            ("channel_bandwidth", float("inf"), "finite"),
            ("channel_bandwidth", float("nan"), "finite"),
            ("warmup_cycles", 1.5, "integer"),
            ("buffer_depth", 1.5, "integer"),
            ("message_lengths", (2.5,), "integer"),
        ],
    )
    def test_rejects_non_finite_and_fractional_numbers(
        self, field, value, message
    ):
        with pytest.raises(ValueError, match=f"{field} must be .*{message}"):
            SimulationConfig(**{field: value})

    def test_derived_quantities(self):
        config = SimulationConfig(offered_load=2.1)
        assert config.cycle_time_us == pytest.approx(0.05)
        assert config.mean_message_length == pytest.approx(105.0)
        assert config.messages_per_cycle == pytest.approx(2.1 / 20 / 105)

    def test_with_load_preserves_other_fields(self):
        config = SimulationConfig(seed=42, buffer_depth=2)
        other = config.with_load(3.0)
        assert other.offered_load == 3.0
        assert other.seed == 42 and other.buffer_depth == 2


class TestStreamingWorkCounters:
    """The machine-independent gate beside the wall-clock one: on a
    Figure 14 operating point the work the movement stage does is
    pinned exactly.  (Host-side counters: they are not part of the
    result, so moving them moves no digest.)"""

    def test_figure14_point_counts_are_pinned(self):
        # 16x16 west-first on transpose at 1.0 flits/us/node with the
        # paper's 10/200-flit mix, over the FAST preset's 5 500 cycles —
        # all of them measured, so ``channel_flits`` sums every flit-hop.
        mesh = Mesh2D(16, 16)
        config = SimulationConfig(
            offered_load=1.0, warmup_cycles=0, measure_cycles=5_500,
            seed=7, track_channel_load=True,
        )
        assert config.message_lengths == (10, 200)
        sim = WormholeSimulator(
            WestFirst(mesh), MeshTransposePattern(mesh), config
        )
        result = sim.run()
        flit_hops = sum(result.channel_flits)
        assert (sim.worm_steps, sim.bulk_flit_hops, flit_hops) == (
            14_418, 622_760, 719_511
        )
        # Streaming carries the traffic: at least four flit-hops in five
        # were applied in bulk, never stepped.
        assert sim.bulk_flit_hops >= 0.8 * flit_hops
