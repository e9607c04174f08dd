"""The three engine backends are bit-identical on every feature.

The scan oracle (``ScanSimulator``, ``tests/support/scan_oracle.py``)
runs the pre-optimisation code paths: scan-every-source generation,
derive-from-scratch routing, no wakeup parking, no streaming-worm
fast-forward.  Every operating point here runs the scan oracle, the
optimised event engine, and — when numpy is installed — the batched
array backend, and compares the *complete*
``SimulationResult.to_dict()`` — counters, histograms, backlog
samples, utilization series — plus, where a sink is attached, the full
ordered trace-event stream.  Any divergence in RNG draw order,
arbitration order, or accounting shows up as a mismatch.

Equivalence classification (docs/SIMULATOR.md has the full table):
every feature is **bit-identical** across all three backends.  Inside
the vectorized envelope (any virtual-channel count — plain multi-VC,
torus dateline classes, escape-VC adaptive — fcfs input selection, and
any deterministic output policy — xy, round-robin, max-credits,
threshold — including fault plans, watchdog timeouts with retries,
profilers, and the streaming collectors) the array backend's numpy
kernels reproduce the event engine's decision stream exactly; outside
it (random/zigzag selection, trace sinks, the LUT entry cap) the array
backend runs the point as one whole event-engine run, bit-identical by
construction.  There is no
statistically-equivalent-only feature class.  ``assert_equivalent``
additionally asserts that in-envelope points really ran on the
vectorized kernels, so the fault/policy/watchdog/collector legs here
cannot silently regress onto the event-engine fallback.
"""

import dataclasses

import pytest
from scan_oracle import ScanSimulator

from repro.analysis.runner import make_pattern, parse_topology_spec
from repro.faults.plan import FaultPlan
from repro.observability import ListSink
from repro.routing.registry import make_algorithm
from repro.simulation.array_engine import (
    demotion_reasons,
    make_simulator,
    numpy_available,
)
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import WormholeSimulator
from repro.simulation.packet import PacketState


def build(topology_spec, algorithm, pattern, config, oracle, sink=None):
    """The scan oracle (``oracle=True``) or the event engine."""
    topology = parse_topology_spec(topology_spec)
    return (ScanSimulator if oracle else WormholeSimulator)(
        make_algorithm(algorithm, topology),
        make_pattern(pattern, topology),
        config,
        sink=sink,
    )


def build_array(topology_spec, algorithm, pattern, config, sink=None):
    topology = parse_topology_spec(topology_spec)
    return make_simulator(
        make_algorithm(algorithm, topology),
        make_pattern(pattern, topology),
        dataclasses.replace(config, backend="array"),
        sink=sink,
    )


def assert_equivalent(topology_spec, algorithm, pattern, config, trace=True):
    ref_sink = ListSink() if trace else None
    opt_sink = ListSink() if trace else None
    ref = build(topology_spec, algorithm, pattern, config, True, ref_sink)
    opt = build(topology_spec, algorithm, pattern, config, False, opt_sink)
    ref_result = ref.run()
    opt_result = opt.run()
    assert opt_result.to_dict() == ref_result.to_dict()
    if trace:
        assert opt_sink.events == ref_sink.events
    assert opt_result.generated_packets > 0  # the point exercised traffic
    if not numpy_available():
        return
    # Third way: the array backend, sinkless first so the vectorized
    # kernels (not just the event-engine fallback) carry in-envelope points.
    arr_sim = build_array(topology_spec, algorithm, pattern, config)
    if not demotion_reasons(config):
        assert arr_sim.vectorized
    arr_result = arr_sim.run()
    assert arr_result.to_dict() == opt_result.to_dict()
    if trace:
        arr_sink = ListSink()
        arr_traced = build_array(
            topology_spec, algorithm, pattern, config, sink=arr_sink
        )
        assert arr_traced.run().to_dict() == opt_result.to_dict()
        assert arr_sink.events == opt_sink.events


BACKENDS = [
    "event",
    pytest.param(
        "array",
        marks=pytest.mark.skipif(
            not numpy_available(), reason="numpy not installed"
        ),
    ),
]

MESH_ALGOS = ["xy", "west-first", "north-last", "negative-first"]


class TestMeshEquivalence:
    @pytest.mark.parametrize("algorithm", MESH_ALGOS)
    def test_saturated_mesh(self, algorithm):
        config = SimulationConfig(
            offered_load=1.5, warmup_cycles=100, measure_cycles=500, seed=3
        )
        assert_equivalent("mesh:6x6", algorithm, "uniform", config)

    def test_low_load_transpose(self):
        config = SimulationConfig(
            offered_load=0.6, warmup_cycles=100, measure_cycles=500, seed=11
        )
        assert_equivalent("mesh:8x8", "west-first", "transpose", config)

    def test_nonminimal_with_misroutes(self):
        config = SimulationConfig(
            offered_load=1.2, warmup_cycles=100, measure_cycles=500,
            seed=5, misroute_limit=2,
        )
        assert_equivalent("mesh:5x5", "negative-first", "uniform", config)

    @pytest.mark.parametrize(
        "algorithm, pattern, misroute_limit, seed",
        [
            ("negative-first", "uniform", 2, 2),
            ("north-last", "transpose", 1, 1),
        ],
    )
    def test_parked_headers_wake_on_escape_channels(
        self, algorithm, pattern, misroute_limit, seed
    ):
        # A header blocked on every minimal candidate parks on its
        # escape channels too while it has misroute budget left; these
        # saturated points diverge from the oracle when a freed escape
        # channel fails to wake it.
        config = SimulationConfig(
            offered_load=2.5, warmup_cycles=100, measure_cycles=400,
            seed=seed, misroute_limit=misroute_limit,
        )
        assert_equivalent("mesh:8x8", algorithm, pattern, config)

    def test_random_selection_policies(self):
        # Random input/output selection consumes RNG draws during
        # arbitration — the wakeup optimisation must not add or skip any.
        config = SimulationConfig(
            offered_load=1.2, warmup_cycles=100, measure_cycles=400,
            seed=7, input_selection="random", output_selection="random",
        )
        assert_equivalent("mesh:5x5", "west-first", "uniform", config)

    def test_deep_buffers_and_long_messages(self):
        config = SimulationConfig(
            offered_load=1.0, warmup_cycles=100, measure_cycles=400,
            seed=9, buffer_depth=4, message_lengths=(5, 20, 60),
        )
        assert_equivalent("mesh:5x5", "north-last", "uniform", config)


class TestOtherTopologies:
    def test_hypercube_pcube(self):
        config = SimulationConfig(
            offered_load=2.0, warmup_cycles=100, measure_cycles=400, seed=5
        )
        assert_equivalent("cube:6", "p-cube", "uniform", config)

    def test_hypercube_ecube_reverse_flip(self):
        config = SimulationConfig(
            offered_load=1.0, warmup_cycles=100, measure_cycles=400, seed=2
        )
        assert_equivalent("cube:5", "e-cube", "reverse-flip", config)

    def test_torus_virtual_channels(self):
        config = SimulationConfig(
            offered_load=0.6, warmup_cycles=100, measure_cycles=400,
            seed=9, virtual_channels=2,
        )
        assert_equivalent(
            "torus:6x2", "negative-first-torus", "uniform", config
        )

    def test_torus_dateline_vc(self):
        config = SimulationConfig(
            offered_load=0.8, warmup_cycles=100, measure_cycles=400,
            seed=4, virtual_channels=2,
        )
        assert_equivalent(
            "torus:8x1", "dateline-dimension-order", "uniform", config
        )

    def test_mesh_escape_vc_adaptive(self):
        config = SimulationConfig(
            offered_load=1.2, warmup_cycles=100, measure_cycles=400,
            seed=6, virtual_channels=2,
        )
        assert_equivalent("mesh:5x5", "escape-vc-adaptive", "uniform", config)


class TestFaultEquivalence:
    def test_mid_run_link_failures(self):
        topology = parse_topology_spec("mesh:6x6")
        config = SimulationConfig(
            offered_load=1.0, warmup_cycles=100, measure_cycles=600,
            seed=3, drain_cycles=200,
            fault_plan=FaultPlan.random_links(topology, 3, seed=4, start=150),
            packet_timeout=300, max_retries=2,
        )
        assert_equivalent("mesh:6x6", "west-first", "uniform", config)

    def test_transient_faults_heal(self):
        topology = parse_topology_spec("mesh:6x6")
        config = SimulationConfig(
            offered_load=1.0, warmup_cycles=100, measure_cycles=600,
            seed=8, drain_cycles=200,
            fault_plan=FaultPlan.random_links(
                topology, 3, seed=5, start=150, end=400
            ),
            packet_timeout=300, max_retries=2,
        )
        assert_equivalent("mesh:6x6", "west-first", "uniform", config)

    def test_router_failure(self):
        from repro.faults.plan import FaultEvent

        plan = FaultPlan(events=(FaultEvent.router(14, start=200),))
        config = SimulationConfig(
            offered_load=1.0, warmup_cycles=100, measure_cycles=500,
            seed=6, fault_plan=plan, packet_timeout=250, max_retries=1,
        )
        assert_equivalent("mesh:6x6", "west-first", "uniform", config)


class TestSelectionPolicyEquivalence:
    """The congestion-aware policies read live allocation state and the
    stateful ones carry rotation pointers; both engines must invoke them
    at identical decision points or the streams diverge immediately."""

    @pytest.mark.parametrize(
        "policy", ["round-robin", "max-credits", "threshold"]
    )
    def test_saturated_mesh(self, policy):
        config = SimulationConfig(
            offered_load=1.5, warmup_cycles=100, measure_cycles=400,
            seed=3, output_selection=policy,
        )
        assert_equivalent("mesh:6x6", "west-first", "transpose", config)

    @pytest.mark.parametrize("policy", ["max-credits", "threshold"])
    def test_under_faults(self, policy):
        topology = parse_topology_spec("mesh:6x6")
        config = SimulationConfig(
            offered_load=1.2, warmup_cycles=100, measure_cycles=500,
            seed=5, drain_cycles=200, output_selection=policy,
            fault_plan=FaultPlan.random_links(topology, 3, seed=4, start=150),
            packet_timeout=300, max_retries=2,
        )
        assert_equivalent("mesh:6x6", "negative-first", "uniform", config)

    def test_escape_vc_adaptive(self):
        config = SimulationConfig(
            offered_load=1.2, warmup_cycles=100, measure_cycles=400,
            seed=6, virtual_channels=2, output_selection="max-credits",
        )
        assert_equivalent("mesh:5x5", "escape-vc-adaptive", "uniform", config)


class TestWatchdogEquivalence:
    """Stall watchdogs + bounded-backoff retries without any faults:
    pure congestion pushes packet ages past the timeout, and both
    engines must kill, classify, and requeue the same victims on the
    same cycles."""

    def test_timeouts_fire_under_pure_congestion(self):
        config = SimulationConfig(
            offered_load=3.0, warmup_cycles=100, measure_cycles=500,
            seed=3, packet_timeout=100, max_retries=1, drain_cycles=100,
        )
        ref = build("mesh:6x6", "west-first", "transpose", config, True)
        result = ref.run()
        assert result.retried_packets > 0  # the watchdog really fired
        assert_equivalent("mesh:6x6", "west-first", "transpose", config)

    def test_zero_retries_drops_permanently(self):
        config = SimulationConfig(
            offered_load=3.0, warmup_cycles=100, measure_cycles=400,
            seed=7, packet_timeout=90, max_retries=0,
        )
        assert_equivalent("mesh:6x6", "north-last", "transpose", config)


class TestObservabilityEquivalence:
    def test_collectors_on(self):
        config = SimulationConfig(
            offered_load=1.2, warmup_cycles=100, measure_cycles=500, seed=3
        ).with_observability()
        assert_equivalent("mesh:6x6", "west-first", "uniform", config)

    def test_collectors_off_no_trace(self):
        config = SimulationConfig(
            offered_load=1.2, warmup_cycles=100, measure_cycles=500, seed=3
        )
        assert_equivalent(
            "mesh:6x6", "west-first", "uniform", config, trace=False
        )


class TestSharedTablesIsolation:
    """Fault plans mask the shared routing tables privately: a faulted
    run must leave nothing behind for a later fault-free run on the same
    algorithm object, on either backend."""

    SPEC = "mesh:6x6"

    def fault_configs(self):
        from repro.faults.plan import FaultEvent

        topology = parse_topology_spec(self.SPEC)
        base = SimulationConfig(
            offered_load=1.0, warmup_cycles=100, measure_cycles=400,
            seed=3, drain_cycles=100, packet_timeout=250, max_retries=1,
        )
        permanent = FaultPlan.random_links(topology, 3, seed=4, start=150)
        transient = FaultPlan.random_links(
            topology, 3, seed=5, start=150, end=300
        )
        router = FaultPlan(events=(FaultEvent.router(14, start=200),))
        return [
            dataclasses.replace(base, fault_plan=plan)
            for plan in (permanent, transient, router)
        ]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fault_runs_leave_shared_answers_untouched(self, backend):
        from repro.routing.table import NetworkTables, shared_tables
        from repro.topology.mesh import Mesh2D

        topology = parse_topology_spec(self.SPEC)
        algorithm = make_algorithm("west-first", topology)
        clean = SimulationConfig(
            offered_load=1.0, warmup_cycles=100, measure_cycles=400, seed=3,
            backend=backend,
        )

        def run(config, on):
            return make_simulator(
                on, make_pattern("uniform", on.topology), config
            ).run()

        for config in self.fault_configs():
            faulted = run(dataclasses.replace(config, backend=backend), algorithm)
            assert faulted.generated_packets > 0
        after = run(clean, algorithm)
        fresh_algorithm = make_algorithm("west-first", Mesh2D(6, 6))
        assert after.to_dict() == run(clean, fresh_algorithm).to_dict()
        # Every shared decision — the failed router's and its
        # neighbours' included — is still the unmasked answer.
        tables = shared_tables(algorithm)
        private = NetworkTables(make_algorithm("west-first", Mesh2D(6, 6)))
        assert tables.num_entries > 0
        for shared_rows, derive in (
            (tables._minimal, private.minimal),
            (tables._escape, private.escape),
        ):
            for port, row in enumerate(shared_rows):
                for dest, decision in (row or {}).items():
                    assert decision == derive(port, dest)


class TestSharedLifecycle:
    """Both backends really go through the one ``PacketLifecycle``:
    generation, retry and drop accounting are counted at its methods on
    a faults + watchdog + retries + drain point (``warmup_cycles=0``, so
    every packet is measured), and a profiler times the same stage list
    the unprofiled run executes."""

    SPEC = ("mesh:6x6", "west-first", "uniform")
    STAGE_ORDER = [
        "faults", "retries", "generate", "inject", "allocate", "advance",
        "watchdog",
    ]

    def config(self, backend):
        topology = parse_topology_spec(self.SPEC[0])
        return SimulationConfig(
            offered_load=1.2, warmup_cycles=0, measure_cycles=700, seed=7,
            drain_cycles=200, packet_timeout=100, max_retries=2,
            fault_plan=FaultPlan.random_links(topology, 6, seed=1, start=150),
            backend=backend,
        )

    def simulator(self, backend, profiler=None):
        topology = parse_topology_spec(self.SPEC[0])
        sim = make_simulator(
            make_algorithm(self.SPEC[1], topology),
            make_pattern(self.SPEC[2], topology),
            self.config(backend),
            profiler=profiler,
        )
        if backend == "array":
            assert sim.vectorized
        return sim

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_accounting_goes_through_the_lifecycle(self, backend, monkeypatch):
        from collections import Counter

        from repro.simulation.lifecycle import PacketLifecycle

        calls = Counter()
        lives = []

        def counted(name):
            original = getattr(PacketLifecycle, name)

            def spy(self, *args, **kwargs):
                calls[name] += 1
                return original(self, *args, **kwargs)

            return spy

        for name in ("account_delivery", "account_drop", "enqueue"):
            monkeypatch.setattr(PacketLifecycle, name, counted(name))
        init = PacketLifecycle.__init__

        def recording_init(self, *args, **kwargs):
            lives.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PacketLifecycle, "__init__", recording_init)
        result = self.simulator(backend).run()
        (life,) = lives  # one lifecycle per operating point
        assert life.result is result
        assert result.retried_packets > 0 and result.dropped_packets > 0
        assert calls["account_delivery"] == result.delivered_packets
        assert calls["account_drop"] == sum(result.drops_by_cause.values())
        assert calls["enqueue"] == result.generated_packets
        # Conservation over every packet object ever created, fresh or
        # retry: each was delivered, dropped, or is still somewhere.
        in_retry_calendar = sum(len(due) for due in life.retry_at.values())
        assert life.next_pid == (
            calls["account_delivery"]
            + calls["account_drop"]
            + result.inflight_at_end
            + life.backlog
            + in_retry_calendar
        )
        assert life.backlog == sum(len(queue) for queue in life.queues)

    def test_profiler_times_the_one_stage_list(self):
        from repro.observability import PhaseProfiler

        class RecordingProfiler(PhaseProfiler):
            def __init__(self):
                super().__init__()
                self.order = []

            def add(self, phase, seconds):
                self.order.append(phase)
                super().add(phase, seconds)

        plain = self.simulator("event").run()
        cycles = self.config("event").total_cycles
        for backend in ("event", "array") if numpy_available() else ("event",):
            profiler = RecordingProfiler()
            profiled = self.simulator(backend, profiler=profiler).run()
            assert profiled.to_dict() == plain.to_dict()
            assert self.simulator(backend).run().to_dict() == plain.to_dict()
            # The same stages in the same order, every cycle, on both
            # engines — modulo ``route`` (nested in the event engine's
            # ``allocate``) and ``collect`` (the array engine's pass for
            # the collectors the event engine runs inline).
            order = [
                phase for phase in profiler.order
                if phase not in ("route", "collect")
            ]
            assert order == self.STAGE_ORDER * cycles


def sleeping(sim):
    """The streaming worms ``sim`` is currently fast-forwarding: an
    ejecting worm always moves, so it is only ever skipped asleep."""
    return [p for p in sim.dormant if p.state is PacketState.EJECTING]


class TestStreamingWorms:
    """A worm ejecting with every buffer fed sleeps through the cycles
    whose outcome is a closed form (docs/PERFORMANCE.md, "streaming
    worms"); the scan oracle steps every one of them.  Each case
    compares the complete result — per-channel flit counts included —
    and the ordered trace stream, and checks through ``bulk_flit_hops``
    that the fast-forward really carried (or, for the exclusions,
    really did not carry) the case."""

    SPEC = ("mesh:6x6", "xy", "uniform")
    ROW = (0, 5, 200)  # one scripted 200-flit worm along row 0

    def pair(self, config, spec=SPEC, scripted=()):
        """(scan oracle, event engine) on the same point, each with a
        sink and the scripted messages queued at cycle 0."""
        config = dataclasses.replace(config, track_channel_load=True)
        sims = []
        for oracle in (True, False):
            sim = build(*spec, config, oracle, ListSink())
            for src, dst, length in scripted:
                sim.inject_packet(src, dst, length, created=0)
            sims.append(sim)
        return sims

    def step_to(self, sims, cycle):
        for sim in sims:
            while sim.cycle < cycle:
                assert not sim.step()

    def finish(self, ref, opt, bulk=True):
        ref_result, opt_result = ref.run(), opt.run()
        assert opt_result.to_dict() == ref_result.to_dict()
        assert opt._sink.events == ref._sink.events
        assert opt_result.generated_packets > 0
        assert sum(opt_result.channel_flits) > 0
        assert ref.bulk_flit_hops == 0  # the oracle never fast-forwards
        assert (opt.bulk_flit_hops > 0) == bulk
        assert opt.worm_steps < ref.worm_steps or not bulk
        return opt_result

    def check(self, config, spec=SPEC, bulk=True):
        return self.finish(*self.pair(config, spec), bulk=bulk)

    # -- (a) faults that cut a worm mid-stream -----------------------------

    @pytest.mark.parametrize("kind", ["permanent", "transient", "router"])
    def test_fault_cuts_a_sleeping_worm(self, kind):
        from repro.faults.plan import FaultEvent
        from repro.topology import EAST

        mesh = parse_topology_spec(self.SPEC[0])
        link = next(
            c for c in mesh.channels() if c.src == 2 and c.direction == EAST
        )
        event = {
            "permanent": FaultEvent.channel(link, start=90),
            "transient": FaultEvent.channel(link, start=90, end=260),
            "router": FaultEvent.router(3, start=90),
        }[kind]
        config = SimulationConfig(
            offered_load=0.4, warmup_cycles=0, measure_cycles=700, seed=5,
            drain_cycles=200, fault_plan=FaultPlan(events=(event,)),
            packet_timeout=150, max_retries=2,
        )
        ref, opt = self.pair(config, scripted=[self.ROW])
        self.step_to((ref, opt), 90)
        (victim,) = [p for p in sleeping(opt) if p.pid == 0]
        held = [hold.channel_id for hold in victim.holds]
        stale = [opt.channel_load[cid] for cid in held]
        opt.step(), ref.step()  # the fault fires: the sleeper is settled
        assert victim.drop_cause in ("link-failure", "router-failure")
        # Exactly the cycles streamed before the cut, on every channel
        # the worm held (nobody else has used them since).
        settled = [opt.channel_load[cid] for cid in held]
        assert settled == [ref.channel_load[cid] for cid in held] != stale
        result = self.finish(ref, opt)
        assert result.killed_packets > 0 and result.retried_packets > 0

    # -- (b) the warmup boundary and the end of the run --------------------

    def test_sleeps_across_the_warmup_boundary(self):
        config = SimulationConfig(
            offered_load=0.3, warmup_cycles=60, measure_cycles=400, seed=2
        )
        ref, opt = self.pair(config, scripted=[self.ROW])
        for cycle in (59, 61):  # asleep before the boundary and after it
            self.step_to((ref, opt), cycle)
            assert any(p.pid == 0 for p in sleeping(opt))
        self.finish(ref, opt)

    def test_run_ends_with_worms_asleep(self):
        config = SimulationConfig(
            offered_load=3.0, warmup_cycles=30, measure_cycles=120, seed=4
        )
        ref, opt = self.pair(config, scripted=[self.ROW])
        self.step_to((ref, opt), config.total_cycles)
        assert sleeping(opt)
        result = self.finish(ref, opt)
        assert not sleeping(opt)  # finalize settled them
        assert result.inflight_at_end > 0
        assert result.max_stall_age_cycles > 0

    # -- (c) deep buffers, short messages ----------------------------------

    def test_compressed_worms_stream_at_depth_four(self):
        config = SimulationConfig(
            offered_load=2.0, warmup_cycles=50, measure_cycles=500, seed=3,
            buffer_depth=4, message_lengths=(1, 2, 5, 200),
        )
        spec = ("mesh:6x6", "west-first", "transpose")
        ref, opt = self.pair(config, spec)
        compressed = False
        for cycle in range(50, config.total_cycles, 10):
            self.step_to((ref, opt), cycle)
            compressed = compressed or any(
                hold.buffered > 1 for p in sleeping(opt) for hold in p.holds
            )
        assert compressed  # a worm slept with more than one flit a buffer
        result = self.finish(ref, opt)
        # 1- and 2-flit messages, and 5-flit ones shorter than their
        # path, were all delivered alongside the streaming 200s.
        assert set(result.latency_by_length) == {1, 2, 5, 200}

    # -- (d) a congestion view that reads sleeping worms' buffers ----------

    def test_max_credits_reads_sleeping_worms(self):
        config = SimulationConfig(
            offered_load=1.5, warmup_cycles=50, measure_cycles=500, seed=3,
            buffer_depth=2, output_selection="max-credits",
        )
        self.check(config, ("mesh:6x6", "west-first", "transpose"))

    # -- (e) the exclusions stay awake --------------------------------------

    def test_series_collector_keeps_worms_awake(self):
        config = SimulationConfig(
            offered_load=1.2, warmup_cycles=50, measure_cycles=400, seed=3,
            channel_series_period=50,
        )
        result = self.check(config, bulk=False)
        assert result.channel_util_series

    def test_virtual_channels_keep_worms_awake(self):
        config = SimulationConfig(
            offered_load=1.2, warmup_cycles=50, measure_cycles=400, seed=6,
            virtual_channels=2,
        )
        self.check(
            config, ("mesh:5x5", "escape-vc-adaptive", "uniform"), bulk=False
        )

    # -- (f) the deadlock watchdog sees sleeping worms move ----------------

    def test_lone_sleeping_worm_is_progress(self):
        config = SimulationConfig(
            offered_load=0.0, warmup_cycles=0, measure_cycles=600,
            deadlock_threshold=40,
        )
        ref, opt = self.pair(config, scripted=[(0, 5, 400)])
        self.step_to((ref, opt), 300)  # 7x the threshold, all of it asleep
        assert [p.pid for p in sleeping(opt)] == [0]
        result = self.finish(ref, opt)
        assert not result.deadlock
        assert result.delivered_flits == 400
