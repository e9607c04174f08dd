"""Unit tests for the output-selection policies: choice semantics,
the static-preference fallback when congestion data is unavailable,
and the registry."""

import random

import pytest

from repro.routing.selection import (
    SELECTION_POLICIES,
    EngineCongestionView,
    MaxFreeCredits,
    RoundRobin,
    SelectionPolicy,
    ThresholdReroute,
    XYPreference,
    make_selection_policy,
    selection_policy_names,
    static_preference,
)
from repro.simulation import SimulationConfig, WormholeSimulator
from repro.topology import EAST, NORTH, SOUTH, WEST, Mesh2D
from repro.traffic import UniformPattern

RNG = random.Random(0)


class FakePacket:
    def __init__(self, head_node=0):
        self.head_node = head_node


class FakeView:
    """Scriptable congestion view: maps direction -> downstream node and
    node -> (free credits, occupancy); missing entries read as None."""

    def __init__(self, dst=None, credits=None, occupancy=None):
        self._dst = dst or {}
        self._credits = credits or {}
        self._occupancy = occupancy or {}

    def downstream(self, node, direction):
        return self._dst.get(direction)

    def free_credits(self, node):
        return self._credits.get(node)

    def occupancy(self, node):
        return self._occupancy.get(node)


class TestStaticPreference:
    def test_matches_the_paper_xy_rule(self):
        # Lowest dimension first, negative sign before positive.
        assert static_preference([NORTH, EAST, WEST]) == WEST
        assert static_preference([NORTH, EAST]) == EAST
        assert static_preference([NORTH, SOUTH]) == SOUTH

    def test_xy_preference_policy_is_the_static_rule(self):
        policy = XYPreference()
        assert policy(list((NORTH, EAST, WEST)), FakePacket(), RNG) == WEST
        assert not policy.uses_congestion


class TestRoundRobin:
    def test_rotates_through_sorted_candidates(self):
        policy = RoundRobin()
        options = [NORTH, EAST]  # sorted: EAST (dim 0) then NORTH (dim 1)
        picks = [policy(options, FakePacket(), RNG) for _ in range(4)]
        assert picks == [EAST, NORTH, EAST, NORTH]

    def test_pointer_survives_candidate_set_changes(self):
        policy = RoundRobin()
        assert policy([EAST, NORTH], FakePacket(), RNG) == EAST
        assert policy([WEST], FakePacket(), RNG) == WEST  # 1 % 1 == 0
        assert policy([EAST, NORTH], FakePacket(), RNG) == EAST  # 2 % 2


class TestMaxFreeCredits:
    def test_prefers_the_most_free_downstream(self):
        view = FakeView(
            dst={EAST: 10, NORTH: 20},
            credits={10: 1, 20: 3},
        )
        policy = MaxFreeCredits()
        policy.bind(view)
        assert policy([EAST, NORTH], FakePacket(), RNG) == NORTH

    def test_ties_rotate_round_robin(self):
        view = FakeView(dst={EAST: 10, NORTH: 20}, credits={10: 2, 20: 2})
        policy = MaxFreeCredits()
        policy.bind(view)
        picks = [policy([NORTH, EAST], FakePacket(), RNG) for _ in range(4)]
        assert picks == [EAST, NORTH, EAST, NORTH]

    def test_unbound_view_falls_back_to_static_preference(self):
        policy = MaxFreeCredits()
        assert policy.view is None
        assert policy([NORTH, EAST, WEST], FakePacket(), RNG) == WEST

    def test_any_missing_candidate_signal_falls_back(self):
        # NORTH has data, EAST's downstream is unknown (dead channel):
        # scoring only NORTH would silently bias — fall back instead.
        view = FakeView(dst={NORTH: 20}, credits={20: 5})
        policy = MaxFreeCredits()
        policy.bind(view)
        assert policy([NORTH, EAST], FakePacket(), RNG) == EAST

    def test_downstream_with_no_live_outputs_falls_back(self):
        view = FakeView(dst={EAST: 10, NORTH: 20}, credits={20: 5})
        policy = MaxFreeCredits()
        policy.bind(view)
        assert policy([NORTH, EAST], FakePacket(), RNG) == EAST


class TestThresholdReroute:
    def test_below_threshold_stays_on_preference(self):
        view = FakeView(
            dst={EAST: 10, NORTH: 20},
            credits={10: 0, 20: 9},
            occupancy={10: 1, 20: 0},
        )
        policy = ThresholdReroute(threshold=2)
        policy.bind(view)
        assert policy([NORTH, EAST], FakePacket(), RNG) == EAST

    def test_at_threshold_switches_to_least_loaded(self):
        view = FakeView(
            dst={EAST: 10, NORTH: 20},
            credits={10: 1, 20: 7},
            occupancy={10: 2, 20: 0},
        )
        policy = ThresholdReroute(threshold=2)
        policy.bind(view)
        assert policy([NORTH, EAST], FakePacket(), RNG) == NORTH

    def test_unbound_view_falls_back_to_preference(self):
        policy = ThresholdReroute(threshold=0)
        assert policy([NORTH, EAST], FakePacket(), RNG) == EAST

    def test_missing_preferred_occupancy_falls_back(self):
        view = FakeView(dst={NORTH: 20}, credits={20: 5}, occupancy={20: 0})
        policy = ThresholdReroute(threshold=0)
        policy.bind(view)
        assert policy([NORTH, EAST], FakePacket(), RNG) == EAST

    def test_missing_alternative_signal_stays_on_preference(self):
        # Preferred EAST is congested, but NORTH has no data: stay put.
        view = FakeView(
            dst={EAST: 10, NORTH: 20},
            credits={10: 0},
            occupancy={10: 5},
        )
        policy = ThresholdReroute(threshold=2)
        policy.bind(view)
        assert policy([NORTH, EAST], FakePacket(), RNG) == EAST

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            ThresholdReroute(threshold=-1)


class TestRegistry:
    def test_names(self):
        assert selection_policy_names() == sorted(
            ["xy", "round-robin", "max-credits", "threshold", "random",
             "zigzag"]
        )

    def test_make_returns_fresh_instances(self):
        a = make_selection_policy("round-robin")
        b = make_selection_policy("round-robin")
        assert a is not b
        assert isinstance(a, SelectionPolicy)

    def test_threshold_parameter_is_threaded(self):
        policy = make_selection_policy("threshold", threshold=7)
        assert policy.threshold == 7

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="max-credits"):
            make_selection_policy("bogus")

    def test_every_policy_declares_a_name(self):
        for name, factory in SELECTION_POLICIES.items():
            assert factory.name == name


class TestEngineCongestionView:
    def build(self, **config_kwargs):
        mesh = Mesh2D(3, 3)
        from repro.routing import XY

        config = SimulationConfig(
            offered_load=0.0, warmup_cycles=0, measure_cycles=10,
            **config_kwargs,
        )
        sim = WormholeSimulator(XY(mesh), UniformPattern(mesh), config)
        return mesh, sim, EngineCongestionView(sim)

    def test_idle_network_has_full_credits(self):
        mesh, sim, view = self.build()
        center = mesh.node_xy(1, 1)
        # 4 outputs x buffer_depth 1, none allocated.
        assert view.free_credits(center) == 4
        assert view.occupancy(center) == 0
        assert view.downstream(center, EAST) == mesh.node_xy(2, 1)

    def test_buffered_flits_count_as_occupancy(self):
        mesh, sim, view = self.build()
        src = mesh.node_xy(0, 1)
        sim.inject_packet(src, mesh.node_xy(2, 1), 5)
        for _ in range(4):
            sim.step()
        center = mesh.node_xy(1, 1)
        occupancy = view.occupancy(center)
        assert occupancy is not None and occupancy >= 1
        assert view.free_credits(center) == 4 - occupancy

    def test_dead_channel_reads_none(self):
        from repro.faults.plan import FaultEvent, FaultPlan

        mesh = Mesh2D(3, 3)
        center = mesh.node_xy(1, 1)
        plan = FaultPlan(
            tuple(
                FaultEvent.channel(mesh.channel(center, d), start=0)
                for d in (EAST, WEST, NORTH, SOUTH)
            )
        )
        from repro.routing import XY

        config = SimulationConfig(
            offered_load=0.0, warmup_cycles=0, measure_cycles=10,
            fault_plan=plan, packet_timeout=5,
        )
        sim = WormholeSimulator(XY(mesh), UniformPattern(mesh), config)
        sim.step()  # applies the cycle-0 fault events
        view = EngineCongestionView(sim)
        # Every output of the center router is dead: no signal at all.
        assert view.downstream(center, EAST) is None
        assert view.free_credits(center) is None
        assert view.occupancy(center) is None
        # A policy consulting the dead node falls back to the static
        # preference instead of crashing or biasing.
        policy = MaxFreeCredits()
        policy.bind(view)
        neighbour = mesh.node_xy(0, 1)
        assert (
            policy([NORTH, EAST], FakePacket(neighbour), RNG)
            == EAST  # EAST's downstream is the all-dead center
        )
