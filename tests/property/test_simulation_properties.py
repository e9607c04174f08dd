"""Property-based tests for simulator invariants on randomised runs."""

from hypothesis import given, settings
from hypothesis import strategies as st
from scan_oracle import ScanSimulator
from sleeper_probe import SleeperProbe

from repro.faults.plan import PERMANENT, FaultEvent, FaultPlan
from repro.observability import ListSink
from repro.routing import (
    hypercube_algorithms,
    mesh_algorithms,
    torus_algorithms,
)
from repro.simulation import (
    PacketState,
    SimulationConfig,
    WormholeSimulator,
)
from repro.topology import Hypercube, KAryNCube, Mesh2D
from repro.traffic import UniformPattern


@st.composite
def sim_case(draw):
    m = draw(st.integers(3, 6))
    n = draw(st.integers(3, 6))
    load = draw(st.floats(0.2, 3.0))
    seed = draw(st.integers(0, 2 ** 16))
    alg_index = draw(st.integers(0, 3))
    depth = draw(st.integers(1, 3))
    return m, n, load, seed, alg_index, depth


def build(m, n, load, seed, alg_index, depth, cycles=800):
    mesh = Mesh2D(m, n)
    algorithm = mesh_algorithms(mesh)[alg_index]
    config = SimulationConfig(
        offered_load=load,
        warmup_cycles=0,
        measure_cycles=cycles,
        seed=seed,
        buffer_depth=depth,
    )
    return WormholeSimulator(algorithm, UniformPattern(mesh), config)


class TestInvariantsDuringExecution:
    @given(sim_case())
    @settings(max_examples=25)
    def test_structural_invariants_hold_every_50_cycles(self, case):
        sim = build(*case)
        for _ in range(12):
            for _ in range(50):
                sim.step()
            self.check_invariants(sim)

    @staticmethod
    def check_invariants(sim):
        depth = sim.config.buffer_depth
        # Channel allocation is consistent with the packets' hold lists.
        held = {}
        for packet in sim.active:
            assert packet.in_network
            assert 0 <= packet.ejected <= packet.launched <= packet.length
            for hold in packet.holds:
                assert 0 <= hold.buffered <= depth
                assert hold.buffered <= hold.moved <= packet.length
                assert hold.channel_id not in held
                held[hold.channel_id] = packet
            # The worm's holds form a contiguous channel chain.
            chain = [sim.channels[h.channel_id] for h in packet.holds]
            for a, b in zip(chain, chain[1:]):
                assert a.dst == b.src
        for cid, owner in enumerate(sim.channel_alloc):
            if owner is not None:
                assert held.get(cid) is owner
        for node, owner in enumerate(sim.ejection_alloc):
            if owner is not None:
                assert owner.state is PacketState.EJECTING
                assert owner.dst == node

    @given(sim_case())
    @settings(max_examples=15)
    def test_flit_conservation_at_end(self, case):
        sim = build(*case, cycles=1500)
        result = sim.run()
        assert not result.deadlock  # turn-model algorithms cannot deadlock
        # Every delivered packet's flits fully drained.
        in_flight = sum(p.flits_in_network for p in sim.active)
        buffered = sum(
            h.buffered for p in sim.active for h in p.holds
        )
        assert buffered <= in_flight

    @given(sim_case())
    @settings(max_examples=10)
    def test_delivered_packets_have_complete_records(self, case):
        sim = build(*case, cycles=1500)
        sim.run()
        result = sim.result
        if result.delivered_packets:
            assert result.delivered_flits > 0
            assert result.avg_latency_us is not None
            assert result.avg_latency_us > 0
            assert result.avg_network_latency_us <= result.avg_latency_us
            assert result.avg_hops >= 1


@st.composite
def streaming_case(draw):
    """Length mix x buffer depth x load x optional fault plan, on a mesh
    small enough that faults land on worms in mid-stream."""
    m = draw(st.integers(4, 6))
    mesh = Mesh2D(m, m)
    faults = {}
    if draw(st.booleans()):
        start = draw(st.integers(60, 300))
        end = draw(st.one_of(st.just(PERMANENT), st.integers(start + 1, 450)))
        seed = draw(st.integers(0, 1_000))
        if draw(st.booleans()):
            plan = FaultPlan.random_links(mesh, 3, seed, start, end)
        else:
            node = seed % mesh.num_nodes
            plan = FaultPlan(events=(FaultEvent.router(node, start, end),))
        faults = dict(
            fault_plan=plan,
            packet_timeout=draw(st.sampled_from([0, 120, 300])),
            max_retries=draw(st.integers(0, 2)),
        )
    config = SimulationConfig(
        offered_load=draw(st.sampled_from([0.3, 0.8, 1.5, 3.0])),
        warmup_cycles=draw(st.sampled_from([0, 80, 250])),
        measure_cycles=400,
        drain_cycles=draw(st.sampled_from([0, 150])),
        seed=draw(st.integers(0, 2 ** 16)),
        buffer_depth=draw(st.sampled_from([1, 2, 4])),
        message_lengths=draw(
            st.sampled_from(
                [(10, 200), (1, 2, 100), (3, 60), (200,), (5, 20, 60)]
            )
        ),
        track_channel_load=True,
        **faults,
    )
    return mesh, draw(st.integers(0, 3)), config


class TestStreamingFastForward:
    """The event engine fast-forwards streaming worms; the scan oracle
    (``ScanSimulator``) steps every flit.  Same results, same trace."""

    @given(streaming_case())
    @settings(max_examples=30)
    def test_event_engine_equals_the_scan_oracle(self, case):
        mesh, alg_index, config = case
        sims = []
        for engine in (ScanSimulator, WormholeSimulator):
            sim = engine(
                mesh_algorithms(mesh)[alg_index],
                UniformPattern(mesh),
                config,
                sink=ListSink(),
            )
            sim.run()
            sims.append(sim)
        ref, opt = sims
        assert opt.result.to_dict() == ref.result.to_dict()
        assert opt._sink.events == ref._sink.events
        assert ref.bulk_flit_hops == 0
        assert opt.worm_steps <= ref.worm_steps


@st.composite
def quiet_case(draw):
    """Topology x algorithm x load x optional faults, watchdog and
    retries, at loads light enough that many cycles are quiet."""
    kind = draw(st.sampled_from(["mesh", "torus", "cube"]))
    if kind == "mesh":
        topology = Mesh2D(draw(st.integers(3, 6)), draw(st.integers(3, 6)))
        algorithms = mesh_algorithms(topology)
    elif kind == "torus":
        topology = KAryNCube(draw(st.integers(3, 5)), 2)
        algorithms = torus_algorithms(topology)
    else:
        topology = Hypercube(draw(st.integers(3, 5)))
        algorithms = hypercube_algorithms(topology)
    algorithm = draw(st.sampled_from(algorithms))
    faults = {}
    if draw(st.integers(0, 3)):
        start = draw(st.integers(0, 300))
        end = draw(st.one_of(st.just(PERMANENT), st.integers(start + 1, 500)))
        faults["fault_plan"] = FaultPlan.random_links(
            topology, draw(st.integers(2, 8)), draw(st.integers(0, 1_000)),
            start, end,
        )
    config = SimulationConfig(
        offered_load=draw(st.sampled_from([0.05, 0.2, 0.5, 1.5])),
        warmup_cycles=draw(st.sampled_from([0, 37, 100])),
        measure_cycles=400,
        drain_cycles=draw(st.sampled_from([0, 150])),
        seed=draw(st.integers(0, 2 ** 16)),
        queue_sample_period=draw(st.sampled_from([1, 15, 100])),
        packet_timeout=draw(st.sampled_from([0, 20, 150])),
        max_retries=draw(st.integers(0, 2)),
        deadlock_threshold=draw(st.sampled_from([60, 5_000])),
        message_lengths=draw(st.sampled_from([(10, 200), (3, 20)])),
        track_channel_load=True,
        **faults,
    )
    return topology, algorithm, config


class TestQuietCycleSkip:
    """``run()`` jumps over quiet cycles; a ``step()`` loop steps each.
    Same result, same trace, same counted work, and exactly the
    skippable cycles skipped."""

    @given(quiet_case())
    @settings(max_examples=100)
    def test_run_equals_stepping(self, case):
        topology, algorithm, config = case
        sims = [
            WormholeSimulator(
                algorithm, UniformPattern(topology), config, sink=ListSink()
            )
            for _ in range(2)
        ]
        stepped, ran = sims
        stepped_probe, ran_probe = SleeperProbe(stepped), SleeperProbe(ran)
        while stepped.cycle < config.total_cycles:
            if stepped.step():
                break
        stepped_result = stepped.finalize()
        assert ran.run().to_dict() == stepped_result.to_dict()
        assert ran._sink.events == stepped._sink.events
        assert (ran.worm_steps, ran.bulk_flit_hops) == (
            stepped.worm_steps, stepped.bulk_flit_hops,
        )
        assert (ran.cycle, ran._last_cycle, ran.last_progress) == (
            stepped.cycle, stepped._last_cycle, stepped.last_progress,
        )
        assert ran_probe.stepped_skippable == 0
        assert ran.quiet_cycles == stepped_probe.stepped_skippable
