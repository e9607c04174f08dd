"""The three engine backends are bit-identical on every feature.

The scan oracle (``ScanSimulator``, ``tests/support/scan_oracle.py``)
runs the pre-optimisation code paths: scan-every-source generation,
derive-from-scratch routing, no wakeup parking, no streaming-worm
fast-forward, no quiet-cycle skip.  Every operating point here runs the scan oracle, the
optimised event engine, and — when numpy is installed — the batched
array backend, and compares the *complete*
``SimulationResult.to_dict()`` — counters, histograms, backlog
samples, utilization series — plus, where a sink is attached, the full
ordered trace-event stream.  Any divergence in RNG draw order,
arbitration order, or accounting shows up as a mismatch.

Equivalence classification (docs/SIMULATOR.md has the full table):
every feature is **bit-identical** across all three backends.  Inside
the vectorized envelope (xy output and fcfs input selection, no fault
plan, no per-packet watchdog, at any virtual-channel count — plain
multi-VC, torus dateline classes, escape-VC adaptive — with misroute
budgets, drain windows, inert retries, profilers and the streaming
collectors) the array backend's numpy kernels reproduce the event
engine's decision stream exactly; outside it (any other selection
policy, fault plans, watchdogs, trace sinks, the LUT entry cap) the
array backend runs the point as one whole event-engine run,
bit-identical by construction.  There is no
statistically-equivalent-only feature class.  ``assert_equivalent``
additionally asserts that in-envelope points really ran on the
vectorized kernels, so the multi-VC and collector legs here cannot
silently regress onto the event-engine fallback; the fault, selection
and watchdog classes check that demoted points still match.
"""

import dataclasses

import pytest
from scan_oracle import ScanSimulator
from sleeper_probe import SleeperProbe

from repro.analysis.runner import make_pattern, parse_topology_spec
from repro.faults.plan import FaultEvent, FaultPlan
from repro.observability import ListSink
from repro.routing.dimension_order import XY
from repro.routing.registry import make_algorithm
from repro.simulation.array_engine import (
    BatchSimulator,
    demotion_reasons,
    numpy_available,
)
from repro.simulation.backend import make_simulator
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import WormholeSimulator
from repro.simulation.packet import PacketState
from repro.topology import EAST, NORTH, SOUTH, WEST


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
    the unprofiled run executes.  The array backend runs this point
    outside its vectorized envelope, as one whole event-engine run."""

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
        return make_simulator(
            make_algorithm(self.SPEC[1], topology),
            make_pattern(self.SPEC[2], topology),
            self.config(backend),
            profiler=profiler,
        )

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

        plain_sim = self.simulator("event")
        plain = plain_sim.run()
        # Every cycle is either stepped (the whole stage list) or jumped
        # over as quiet (no stage at all).
        quiet = plain_sim.quiet_cycles
        stepped = self.config("event").total_cycles - quiet
        assert quiet > 0 and stepped > 0
        for backend in ("event", "array") if numpy_available() else ("event",):
            profiler = RecordingProfiler()
            profiled_sim = self.simulator(backend, profiler=profiler)
            profiled = profiled_sim.run()
            assert profiled.to_dict() == plain.to_dict()
            assert self.simulator(backend).run().to_dict() == plain.to_dict()
            # The same stages in the same order, every stepped cycle, on
            # both engines — modulo ``route`` (nested in the event
            # engine's ``allocate``), ``collect`` (the array engine's
            # pass for the collectors the event engine runs inline) and
            # the ``quiet`` jumps between stepped cycles.
            order = [
                phase for phase in profiler.order
                if phase not in ("route", "collect", "quiet")
            ]
            assert order == self.STAGE_ORDER * stepped
            assert 0 < profiler.calls["quiet"] <= quiet


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

    # -- (e) what keeps worms awake -----------------------------------------

    def test_series_collector_keeps_worms_awake(self):
        config = SimulationConfig(
            offered_load=1.2, warmup_cycles=50, measure_cycles=400, seed=3,
            channel_series_period=50,
        )
        result = self.check(config, bulk=False)
        assert result.channel_util_series

    def test_virtual_channels_keep_worms_awake(self):
        # With virtual channels a streaming worm that shares a physical
        # link stays awake (the probe checks every sleeper is alone on
        # its links); the others sleep.
        config = SimulationConfig(
            offered_load=3.0, warmup_cycles=50, measure_cycles=400, seed=6,
            virtual_channels=2,
        )
        spec = ("mesh:5x5", "escape-vc-adaptive", "uniform")
        ref, opt = self.pair(config, spec)
        probe = SleeperProbe(opt)
        shared = 0
        for cycle in range(1, config.total_cycles):
            self.step_to((ref, opt), cycle)
            shared += sum(
                shares_a_link(opt, p) for p in opt.active
                if p.state is PacketState.EJECTING and p not in opt.dormant
                and p.length - p.launched > 2
                and all(hold.buffered for hold in p.holds)
            )
        assert shared > 0  # awake streamers that would sleep if alone
        self.finish(ref, opt)
        assert probe.checks > config.total_cycles // 2

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


def shares_a_link(sim, packet):
    """Whether another worm holds a lane of a physical link ``packet``
    holds, or ``packet`` holds one twice."""
    num_vc, alloc = sim.num_vc, sim.channel_alloc
    links = [hold.channel_id // num_vc for hold in packet.holds]
    return len(set(links)) < len(links) or any(
        alloc[cid] is not None and alloc[cid] is not packet
        for link in links
        for cid in range(link * num_vc, (link + 1) * num_vc)
    )


def engine_clock(sim):
    """The engine's own clock state after a run."""
    return sim.cycle, sim._last_cycle, sim.last_progress


class TestQuietCycleSkip:
    """``run()`` jumps over the cycles on which no stage can act
    (docs/PERFORMANCE.md, "quiet-cycle skip"); ``step()`` and the scan
    oracle step every one.  Each case compares, across the scan oracle,
    a ``step()`` loop plus ``finalize()`` and ``run()``, the complete
    result and the ordered trace stream; ``run()`` and the ``step()``
    loop must also count the same worm steps and bulk flit-hops.  A
    ``SleeperProbe`` on both event runs checks the sleeper contract after
    every stepped cycle and jump, and requires ``run()`` to skip exactly
    the cycles the ``step()`` loop meets as skippable."""

    SPEC = ("mesh:6x6", "xy", "uniform")
    ROW = (0, 5, 200)  # one scripted 200-flit worm along row 0

    @staticmethod
    def east_link(node):
        from repro.topology import EAST

        mesh = parse_topology_spec(TestQuietCycleSkip.SPEC[0])
        return next(
            c for c in mesh.channels() if c.src == node and c.direction == EAST
        )

    def compare(self, config, spec=SPEC, scripted=(), make=None, skip=True):
        """Run the three ways; return ``run()``'s simulator and probe."""
        sims = []
        for oracle in (True, False, False):
            if make is None:
                sim = build(*spec, config, oracle, ListSink())
            else:
                sim = make(ScanSimulator if oracle else WormholeSimulator)
            for src, dst, length in scripted:
                sim.inject_packet(src, dst, length, created=0)
            sims.append(sim)
        scan, stepped, ran = sims
        stepped_probe, ran_probe = SleeperProbe(stepped), SleeperProbe(ran)
        scan_result = scan.run()
        while stepped.cycle < config.total_cycles:
            if stepped.step():
                break
        stepped_result = stepped.finalize()
        ran_result = ran.run()
        assert ran_result.to_dict() == scan_result.to_dict()
        assert ran_result.to_dict() == stepped_result.to_dict()
        assert ran._sink.events == scan._sink.events == stepped._sink.events
        assert (ran.worm_steps, ran.bulk_flit_hops) == (
            stepped.worm_steps, stepped.bulk_flit_hops,
        )
        assert engine_clock(ran) == engine_clock(stepped)
        assert scan.quiet_cycles == stepped.quiet_cycles == 0
        if skip:
            # Exactly the skippable cycles are jumped over.
            assert ran_probe.stepped_skippable == 0
            assert ran.quiet_cycles == stepped_probe.stepped_skippable > 0
            assert ran.quiet_cycles == sum(e - s for s, e in ran_probe.jumps)
        else:
            assert ran.quiet_cycles == 0 and not ran_probe.jumps
            assert ran_probe.stepped_skippable > 0  # it could have skipped
        return ran, ran_probe

    @staticmethod
    def events(sim, kind):
        return [event for event in sim._sink.events if event.kind == kind]

    def test_light_load_mesh_with_a_drain_window(self):
        config = SimulationConfig(
            offered_load=0.3, warmup_cycles=100, measure_cycles=400,
            drain_cycles=200, seed=7, track_channel_load=True,
        )
        sim, probe = self.compare(config, ("mesh:8x8", "west-first", "uniform"))
        assert sim.result.delivered_packets > 0
        # The drain window ends quiet: the last jump runs to the end.
        assert probe.jumps[-1][1] == config.total_cycles
        assert sim.quiet_cycles > config.total_cycles // 2

    def test_fault_and_heal_land_in_a_quiet_window(self):
        # The scripted worm streams asleep (every cycle quiet) until the
        # link fault at 90 cuts it; the worm queued behind it then parks
        # on the dead link (quiet again) until the heal at 250 grants it.
        # With a watchdog too slow to fire, only the jump ages its header.
        config = SimulationConfig(
            offered_load=0.0, warmup_cycles=0, measure_cycles=600,
            packet_timeout=500, track_channel_load=True,
            fault_plan=FaultPlan(
                events=(FaultEvent.channel(self.east_link(2), 90, 250),)
            ),
        )
        sim, probe = self.compare(config, scripted=[self.ROW, self.ROW])
        assert probe.jumped_to(90) and probe.jumped_to(250)
        result = sim.result
        assert result.killed_packets == 1 and result.delivered_packets == 1
        (parked,) = [
            event.cycle for event in self.events(sim, "header_advance")
            if event.pid == 1 and event.node == 2
        ]
        assert result.max_stall_age_cycles == 249 - parked

    def test_retry_backoff_expires_in_a_quiet_window(self):
        config = SimulationConfig(
            offered_load=0.0, warmup_cycles=0, measure_cycles=600,
            max_retries=1, track_channel_load=True,
            fault_plan=FaultPlan(
                events=(FaultEvent.channel(self.east_link(3), 90, 100),)
            ),
        )
        sim, probe = self.compare(config, scripted=[self.ROW])
        due = 90 + config.retry_backoff_base
        assert probe.jumped_to(due)
        assert sim.result.retried_packets == 1
        assert sim.result.delivered_packets == 1

    def test_watchdog_expires_at_exactly_timeout_plus_one(self):
        config = SimulationConfig(
            offered_load=0.0, warmup_cycles=0, measure_cycles=600,
            packet_timeout=100,
            fault_plan=FaultPlan(events=(FaultEvent.channel(self.east_link(2)),)),
        )
        sim, probe = self.compare(config, scripted=[self.ROW])
        (stalled,) = [
            event.cycle for event in self.events(sim, "header_advance")
            if event.node == 2
        ]
        (drop,) = self.events(sim, "dropped")
        assert drop.cause == "timeout-stall"
        assert drop.cycle == stalled + config.packet_timeout + 1
        assert probe.jumped_to(drop.cycle)
        assert sim.result.max_stall_age_cycles == config.packet_timeout + 1

    def test_figure_1_deadlock_trips_on_the_same_cycle(self):
        from repro.core import TurnModel
        from repro.routing import TurnRestrictedMinimal
        from repro.topology import Mesh2D
        from repro.traffic import UniformPattern

        mesh = Mesh2D(6, 6)
        anything_goes = TurnRestrictedMinimal(
            mesh, TurnModel.from_prohibited("none", 2, set())
        )
        config = SimulationConfig(
            offered_load=8.0, warmup_cycles=0, measure_cycles=60_000,
            deadlock_threshold=2_000, seed=2,
        )
        sim, probe = self.compare(
            config,
            make=lambda engine: engine(
                anything_goes, UniformPattern(mesh), config, sink=ListSink()
            ),
        )
        result = sim.result
        assert result.deadlock
        assert probe.jumped_to(result.deadlock_cycle)

    def test_warmup_not_a_multiple_of_the_sample_period(self):
        config = SimulationConfig(
            offered_load=0.2, warmup_cycles=37, measure_cycles=500,
            drain_cycles=150, seed=11, queue_sample_period=15,
        )
        sim, probe = self.compare(config, ("mesh:6x6", "north-last", "uniform"))
        assert len(sim.result.backlog_samples) == len(
            range(37, config.total_cycles, 15)
        )
        # Some jump starts before a sample cycle and covers it.
        assert any(
            (k - 37) % 15 == 0 for s, e in probe.jumps for k in range(s, e)
        )

    def test_channel_load_with_worms_asleep_across_a_jump(self):
        config = SimulationConfig(
            offered_load=0.2, warmup_cycles=40, measure_cycles=400,
            seed=4, track_channel_load=True,
        )
        sim, probe = self.compare(config, scripted=[self.ROW, (30, 35, 200)])
        assert sim.bulk_flit_hops > 0
        assert sum(sim.result.channel_flits) > 0
        # A jump crossed the warmup boundary while a worm slept.
        assert any(s < 40 <= e for s, e in probe.jumps)

    @pytest.mark.parametrize(
        "collector", ["channel_series_period", "collect_router_blocked"]
    )
    def test_collectors_keep_the_skip_off(self, collector):
        value = 50 if collector == "channel_series_period" else True
        config = SimulationConfig(
            offered_load=0.3, warmup_cycles=50, measure_cycles=400,
            drain_cycles=100, seed=3, **{collector: value},
        )
        self.compare(config, ("mesh:6x6", "west-first", "uniform"), skip=False)


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
class TestArrayStreaming:
    """The array kernels sleep the same streaming worms, on the same
    cycles, as the event engine (docs/PERFORMANCE.md, "streaming
    worms").  Each case runs one :class:`BatchSimulator` batch against
    per-point event runs and compares every complete result and both
    work counters — equal worm steps mean the kernels stepped exactly
    the worms the event engine stepped — and checks which points'
    worms slept.  A recorder on the core's settles shows where a sleep
    ended: a wake, an expiring member, or the end of the batch."""

    SPEC = ("mesh:6x6", "xy", "uniform")

    @staticmethod
    def run_batch(points, sleeps):
        """Run ``points`` — ``((topology, algorithm, pattern), config)``
        pairs — as one batch and per point on the event engine; return
        the results and the ``(member, first owed cycle, upto)`` span of
        every worm the core settled."""
        import numpy as np

        built = []
        for (topology_spec, algorithm, pattern), config in points:
            topology = parse_topology_spec(topology_spec)
            built.append((
                make_algorithm(algorithm, topology),
                make_pattern(pattern, topology),
                config,
            ))
        batch = BatchSimulator([
            (a, p, dataclasses.replace(c, backend="array"))
            for a, p, c in built
        ])
        assert batch.vectorized_count == len(points)
        core = batch._core
        spans = []
        settle = core._settle

        def recording(slots, upto):
            spans.extend(zip(
                core.pk_sim[slots].tolist(),
                core.pk_owed[slots].tolist(),
                np.broadcast_to(upto, slots.shape).tolist(),
            ))
            settle(slots, upto)

        core._settle = recording
        results = batch.run()
        sims = [WormholeSimulator(*point) for point in built]
        probes = [SleeperProbe(sim) for sim in sims]
        solo = [sim.run() for sim in sims]
        assert all(probe.checks > 1 for probe in probes)
        assert [r.to_dict() for r in results] == [r.to_dict() for r in solo]
        assert batch.worm_steps == sum(sim.worm_steps for sim in sims)
        assert batch.bulk_flit_hops == sum(sim.bulk_flit_hops for sim in sims)
        assert [sim.bulk_flit_hops > 0 for sim in sims] == list(sleeps)
        assert {member for member, _, _ in spans} == {
            i for i, sleep in enumerate(sleeps) if sleep
        }
        assert batch.bulk_flit_hops > 0
        return results, spans

    def test_sleeps_across_the_warmup_boundary(self):
        config = SimulationConfig(
            offered_load=1.5, warmup_cycles=60, measure_cycles=300,
            track_channel_load=True,
        )
        points = [(self.SPEC, config.with_seed(seed)) for seed in (1, 2)]
        results, spans = self.run_batch(points, [True, True])
        assert any(owed < 60 < upto for _, owed, upto in spans)
        assert all(sum(r.channel_flits) > 0 for r in results)

    def test_a_member_expires_with_worms_asleep(self):
        points = [
            (self.SPEC, SimulationConfig(
                offered_load=1.0, warmup_cycles=50, measure_cycles=measure,
                seed=3, track_channel_load=True,
            ))
            for measure in (150, 400, 260)
        ]
        _, spans = self.run_batch(points, [True, True, True])
        # The shortest member's sleepers settled at its end, while the
        # others kept stepping.
        assert (0, 200) in {(member, upto) for member, _, upto in spans}

    def test_batch_ends_with_worms_asleep(self):
        config = SimulationConfig(
            offered_load=3.0, warmup_cycles=30, measure_cycles=150, seed=4,
            track_channel_load=True,
        )
        points = [(self.SPEC, config), (self.SPEC, config.with_seed(5))]
        results, spans = self.run_batch(points, [True, True])
        assert {member for member, _, upto in spans if upto == 180} == {0, 1}
        assert all(r.inflight_at_end > 0 for r in results)

    def test_compressed_worms_stream_at_depth_four(self):
        config = SimulationConfig(
            offered_load=2.0, warmup_cycles=50, measure_cycles=400, seed=3,
            buffer_depth=4, message_lengths=(1, 2, 5, 200),
        )
        spec = ("mesh:6x6", "west-first", "transpose")
        results, _ = self.run_batch(
            [(spec, config), (spec, config.with_seed(8))], [True, True]
        )
        assert all(
            set(r.latency_by_length) == {1, 2, 5, 200} for r in results
        )

    def test_a_sleep_longer_than_the_deadlock_threshold(self):
        config = SimulationConfig(
            offered_load=0.2, warmup_cycles=0, measure_cycles=1500, seed=6,
            deadlock_threshold=40,
        )
        results, spans = self.run_batch(
            [(self.SPEC, config), (self.SPEC, config.with_seed(9))],
            [True, True],
        )
        assert max(upto - owed for _, owed, upto in spans) > 40
        assert not any(r.deadlock for r in results)

    def test_drain_window(self):
        config = SimulationConfig(
            offered_load=1.2, warmup_cycles=50, measure_cycles=250,
            drain_cycles=300, seed=2, track_channel_load=True,
        )
        results, spans = self.run_batch(
            [(self.SPEC, config), (self.SPEC, config.with_seed(7))],
            [True, True],
        )
        # Worms launched before the drain window streamed into it.
        assert any(upto > config.generation_cycles for _, _, upto in spans)
        assert all(r.delivered_packets > 0 for r in results)

    def test_only_single_vc_members_without_series_sleep(self):
        # (The name predates multi-VC sleep: a 2-VC member sleeps too;
        # only the series collector keeps a member's worms awake.)
        base = SimulationConfig(
            offered_load=1.2, warmup_cycles=50, measure_cycles=300, seed=6,
        )
        results, _ = self.run_batch(
            [
                (self.SPEC, base),
                (
                    ("torus:6x2", "dateline-dimension-order", "uniform"),
                    dataclasses.replace(base, virtual_channels=2),
                ),
                (self.SPEC, base.with_observability(channel_series_period=50)),
            ],
            [True, True, False],
        )
        assert results[2].channel_util_series


class DetourOnce(XY):
    """xy routing on a ``mesh:3x3``, except that a header bound for node
    2 from node 0 circles the square 0-1-4-3 on VC0 and then takes the
    link 0 -> 1 again on VC1: the revisit an escape misroute can make."""

    LOOP = {
        (0, None, None): (EAST, 0),
        (1, EAST, 0): (NORTH, 0),
        (4, NORTH, 0): (WEST, 0),
        (3, WEST, 0): (SOUTH, 0),
        (0, SOUTH, 0): (EAST, 1),
        (1, EAST, 1): (EAST, 1),
    }

    def vc_candidates(self, current, dest, in_direction, in_vc, num_vc):
        step = self.LOOP.get((current, in_direction, in_vc))
        if dest == 2 and step is not None:
            return [step]
        return super().vc_candidates(
            current, dest, in_direction, in_vc, num_vc
        )[:1]


class TestMultiVCStreaming:
    """With virtual channels a streaming worm sleeps only while it is
    the sole holder of one lane on each physical link it holds
    (docs/PERFORMANCE.md, "streaming worms"); a grant of a sibling lane
    wakes it.  Scripted cases compare the event engine with the scan
    oracle — the complete result and the ordered trace — under a
    ``SleeperProbe`` (``TestStreamingWorms.finish``); batch cases
    compare a :class:`BatchSimulator` batch with per-point event runs
    in every result and in both work counters
    (``TestArrayStreaming.run_batch``)."""

    RING = ("torus:8x1", "dateline-dimension-order", "uniform")
    TORUS = ("torus:6x2", "dateline-dimension-order", "uniform")
    SCRIPTED = SimulationConfig(
        offered_load=0.0, warmup_cycles=0, measure_cycles=700,
        virtual_channels=2, track_channel_load=True,
    )

    def pair(self, config, spec=RING, make=None):
        """(scan oracle, event engine, probe on the event engine)."""
        sims = []
        for engine in (ScanSimulator, WormholeSimulator):
            if make is None:
                topology = parse_topology_spec(spec[0])
                algorithm = make_algorithm(spec[1], topology)
            else:
                algorithm = make()
                topology = algorithm.topology
            sims.append(engine(
                algorithm, make_pattern(spec[2], topology), config,
                sink=ListSink(),
            ))
        return sims[0], sims[1], SleeperProbe(sims[1])

    @staticmethod
    def play(sims, script):
        """Queue each scripted ``(cycle, src, dst, length)`` message at
        its cycle on every simulator; return the event engine's packets."""
        packets = []
        for cycle, src, dst, length in script:
            for sim in sims:
                while sim.cycle < cycle:
                    assert not sim.step()
                packet = sim.inject_packet(src, dst, length)
            packets.append(packet)
        return packets

    step_to = TestStreamingWorms.step_to
    finish = TestStreamingWorms.finish

    def oracle_check(self, spec, config):
        """A random-traffic point: event engine (probed) vs scan oracle."""
        ref, opt, probe = self.pair(config, spec)
        self.finish(ref, opt)
        assert probe.checks > 1

    # -- scripted: the event engine against the scan oracle ----------------

    def test_grant_on_a_sibling_lane_wakes_the_sleeper(self):
        # A crosses the dateline 7 -> 0 and sleeps on VC1 of link 0 -> 1;
        # B's header is granted VC0 of that link mid-sleep.
        ref, opt, _ = self.pair(self.SCRIPTED)
        (a,) = self.play((ref, opt), [(0, 6, 1, 200)])
        self.step_to((ref, opt), 40)
        assert a in opt._owed
        owed = opt._owed[a]
        (b,) = self.play((ref, opt), [(40, 0, 2, 20)])
        self.step_to((ref, opt), 41)
        assert a not in opt._owed  # settled by the grant, stepped awake
        assert shares_a_link(opt, a) and a.launched > 40 - owed
        while a not in opt._owed:
            self.step_to((ref, opt), opt.cycle + 1)
        # Asleep again once B's tail left link 0 -> 1, B still in flight.
        assert b.holds and not shares_a_link(opt, a)
        assert opt.cycle > 60  # B's 20 flits shared the link first
        self.finish(ref, opt)

    def test_dateline_switch_inside_a_sleeping_worm(self):
        ref, opt, _ = self.pair(self.SCRIPTED)
        (a,) = self.play((ref, opt), [(0, 6, 1, 200)])
        self.step_to((ref, opt), 30)
        assert a in opt._owed
        assert {hold.channel_id % 2 for hold in a.holds} == {0, 1}
        self.finish(ref, opt)

    def test_a_worm_revisiting_a_link_never_sleeps(self):
        # The looping worm waits at node 2 behind another worm's
        # ejection, its buffers fill, and on its first ejecting cycle it
        # moves with every buffer fed — a sleep candidate holding link
        # 0 -> 1 on both VCs, which must stay awake.
        config = dataclasses.replace(self.SCRIPTED, buffer_depth=2)
        ref, opt, _ = self.pair(
            config, make=lambda: DetourOnce(parse_topology_spec("mesh:3x3"))
        )
        candidates = []
        alone = opt._alone

        def recording(packet):
            candidates.append(
                (packet, [hold.channel_id // 2 for hold in packet.holds])
            )
            return alone(packet)

        opt._alone = recording
        _, looping = self.play((ref, opt), [(0, 5, 2, 200), (0, 0, 2, 200)])
        result = self.finish(ref, opt)
        (links,) = [links for p, links in candidates if p is looping]
        assert len(set(links)) < len(links)
        assert result.delivered_packets == 2
        # Every bulk hop was the blocker's, on its one lane: 197 cycles.
        assert opt.bulk_flit_hops == 197

    def test_a_sleeper_between_two_link_contending_worms(self):
        # Active order is Y (0 -> 2), S (3 -> 5), X (6 -> 1): X and Y
        # share link 0 -> 1 on VC1/VC0 for their whole streams, and S
        # sleeps alone between them.  The rotation that decides which
        # of X and Y crosses the link each cycle counts S.
        ref, opt, _ = self.pair(self.SCRIPTED)
        x, s, y = self.play(
            (ref, opt), [(0, 6, 1, 200), (0, 3, 5, 200), (0, 0, 2, 200)]
        )
        self.step_to((ref, opt), 30)
        assert list(opt.active) == [y, s, x] and list(opt._owed) == [s]
        assert shares_a_link(opt, x) and shares_a_link(opt, y)
        self.finish(ref, opt)

    # -- random traffic: batches against per-point event runs --------------

    def test_track_channel_load_across_warmup(self):
        config = SimulationConfig(
            offered_load=1.2, warmup_cycles=60, measure_cycles=300,
            virtual_channels=2, buffer_depth=4, track_channel_load=True,
        )
        self.oracle_check(self.TORUS, config.with_seed(1))
        if not numpy_available():
            return
        results, spans = TestArrayStreaming.run_batch(
            [(self.TORUS, config.with_seed(seed)) for seed in (1, 2)],
            [True, True],
        )
        assert any(owed < 60 < upto for _, owed, upto in spans)
        assert all(sum(r.channel_flits) > 0 for r in results)

    def test_drain_window(self):
        config = SimulationConfig(
            offered_load=1.2, warmup_cycles=50, measure_cycles=250,
            drain_cycles=300, seed=2, virtual_channels=2,
            track_channel_load=True,
        )
        self.oracle_check(self.TORUS, config)
        if not numpy_available():
            return
        results, spans = TestArrayStreaming.run_batch(
            [(self.TORUS, config), (self.TORUS, config.with_seed(7))],
            [True, True],
        )
        assert any(upto > config.generation_cycles for _, _, upto in spans)
        assert all(r.delivered_packets > 0 for r in results)

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_a_2vc_member_expires_asleep_in_a_mixed_batch(self):
        base = SimulationConfig(
            offered_load=1.2, warmup_cycles=50, measure_cycles=300, seed=4,
            track_channel_load=True,
        )
        vc = dataclasses.replace(base, virtual_channels=2, buffer_depth=4)
        _, spans = TestArrayStreaming.run_batch(
            [
                (("mesh:6x6", "xy", "uniform"), base),
                (self.TORUS, dataclasses.replace(vc, measure_cycles=150)),
                (("mesh:5x5", "escape-vc-adaptive", "uniform"), vc),
            ],
            [True, True, True],
        )
        # The short 2-VC member's sleepers settled at its end while the
        # others kept stepping.
        assert (1, 200) in {(member, upto) for member, _, upto in spans}

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_a_regranted_sleeper_is_listed_twice_on_the_calendar(
        self, monkeypatch
    ):
        # A sleeper woken by a sibling-lane grant loses no launch at
        # depth 4 and falls asleep again until the same cycle, so its
        # slot appears twice in one ``_wake_at`` entry; it must settle
        # once (results and ``bulk_flit_hops`` equal the event runs').
        import numpy as np

        from repro.simulation.array_engine import _BatchCore

        config = SimulationConfig(
            offered_load=1.2, warmup_cycles=100, measure_cycles=400, seed=5,
            virtual_channels=2, buffer_depth=4,
        )
        spec = ("torus:8x2", "dateline-dimension-order", "uniform")
        duplicates = []
        move = _BatchCore._move_vec

        def counting(core, cycle):
            due = core._wake_at.get(cycle)
            if due is not None:
                slots = np.concatenate(due)
                slots = slots[core.pk_owed[slots] >= 0]
                duplicates.append(slots.size - np.unique(slots).size)
            move(core, cycle)

        monkeypatch.setattr(_BatchCore, "_move_vec", counting)
        TestArrayStreaming.run_batch([(spec, config)], [True])
        assert sum(duplicates) > 0
