"""Property-based cross-backend guarantees for the array engine.

Random operating points (shape, algorithm, pattern, load, buffer
depth, message lengths, seed) must satisfy:

* a :class:`BatchSimulator` batch of size 1 returns exactly the same
  ``SimulationResult.to_dict()`` as a solo array-backend run;
* a batched sweep returns per-point results — and therefore sweep
  aggregates — identical to running each point alone on the event
  engine;
* in-envelope points and demoted ones (fault plans, non-xy selection
  policies, watchdogs) batched in arbitrary compositions come back in
  input order, match per-point event-engine runs exactly, and exactly
  the in-envelope points run on the vectorized kernels;
* batches whose worms stream (long messages, differing run lengths,
  drain windows, short deadlock thresholds; single-VC meshes and 2-3 VC
  tori and meshes with misroute budgets) equal per-point event runs in
  results *and* in both work counters, so the kernels sleep exactly the
  worms the event engine sleeps.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

pytest.importorskip("numpy")

from repro.analysis.runner import make_pattern, parse_topology_spec  # noqa: E402
from repro.faults.plan import FaultEvent, FaultPlan  # noqa: E402
from repro.routing.registry import make_algorithm  # noqa: E402
from repro.simulation.array_engine import (  # noqa: E402
    ArrayWormholeSimulator,
    BatchSimulator,
    demotion_reasons,
)
from repro.simulation.config import SimulationConfig  # noqa: E402
from repro.simulation.engine import WormholeSimulator  # noqa: E402
from sleeper_probe import SleeperProbe  # noqa: E402


@st.composite
def operating_point(draw):
    m = draw(st.integers(3, 6))
    algorithm = draw(
        st.sampled_from(["xy", "west-first", "north-last", "negative-first"])
    )
    pattern = draw(st.sampled_from(["uniform", "transpose"]))
    # matrix transpose requires a square mesh
    n = m if pattern == "transpose" else draw(st.integers(3, 6))
    config = SimulationConfig(
        offered_load=draw(st.sampled_from([0.4, 0.8, 1.5])),
        warmup_cycles=50,
        measure_cycles=200,
        seed=draw(st.integers(0, 10_000)),
        buffer_depth=draw(st.sampled_from([1, 2, 4])),
        message_lengths=draw(
            st.sampled_from([(4, 16, 64), (5, 20, 60), (8,)])
        ),
        backend="array",
    )
    return f"mesh:{m}x{n}", algorithm, pattern, config


def build(topo_spec, algorithm, pattern, config):
    topology = parse_topology_spec(topo_spec)
    return (
        make_algorithm(algorithm, topology),
        make_pattern(pattern, topology),
        config,
    )


class TestBatchOfOne:
    @settings(max_examples=15)
    @given(operating_point())
    def test_batch_of_one_equals_solo_array_run(self, point):
        solo = ArrayWormholeSimulator(*build(*point)).run()
        (batched,) = BatchSimulator([build(*point)]).run()
        assert batched.to_dict() == solo.to_dict()


class TestBatchedSweep:
    @settings(max_examples=8)
    @given(operating_point(), st.sampled_from([(0.3, 0.7, 1.1, 1.6)]))
    def test_batched_sweep_matches_per_point_event_runs(
        self, point, loads
    ):
        # One operating point swept over loads, as a figure sweep would
        # submit it: the batch must reproduce every per-point event run
        # (hence any aggregate computed from them) exactly.
        topo_spec, algorithm, pattern, config = point
        import dataclasses

        sweep = [
            build(
                topo_spec, algorithm, pattern,
                dataclasses.replace(config, offered_load=load),
            )
            for load in loads
        ]
        batched = BatchSimulator(sweep).run()
        solo = [
            WormholeSimulator(
                *build(
                    topo_spec, algorithm, pattern,
                    dataclasses.replace(
                        config, offered_load=load, backend="event"
                    ),
                )
            ).run()
            for load in loads
        ]
        assert [r.to_dict() for r in batched] == [
            r.to_dict() for r in solo
        ]
        batch_delivered = sum(r.delivered_packets for r in batched)
        solo_delivered = sum(r.delivered_packets for r in solo)
        assert batch_delivered == solo_delivered
        assert [r.avg_latency_us for r in batched] == [
            r.avg_latency_us for r in solo
        ]


@st.composite
def fault_plan(draw, m):
    topology = parse_topology_spec(f"mesh:{m}x{m}")
    start = draw(st.sampled_from([60, 120]))
    end = start + 150 if draw(st.booleans()) else None
    kwargs = {} if end is None else {"end": end}
    plan = FaultPlan.random_links(
        topology, draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 500)), start=start, **kwargs,
    )
    if draw(st.booleans()):
        plan = FaultPlan(events=plan.events + (
            FaultEvent.router(
                draw(st.integers(0, m * m - 1)), start=start + 30
            ),
        ))
    return plan


@st.composite
def mixed_point(draw):
    """A mesh point that may carry a fault plan, any deterministic
    selection policy, a watchdog with retries and the collectors — in
    or out of the vectorized envelope."""
    m = draw(st.integers(4, 6))
    algorithm = draw(
        st.sampled_from(["west-first", "north-last", "negative-first"])
    )
    policy, plan, timeout = "xy", FaultPlan(), 0
    if draw(st.booleans()):  # else in the envelope
        policy = draw(
            st.sampled_from(["xy", "round-robin", "max-credits", "threshold"])
        )
        if draw(st.booleans()):
            plan = draw(fault_plan(m))
        timeout = draw(st.sampled_from([0, 120, 250]))
    config = SimulationConfig(
        offered_load=draw(st.sampled_from([0.8, 1.3])),
        warmup_cycles=50,
        measure_cycles=220,
        drain_cycles=100,
        seed=draw(st.integers(0, 10_000)),
        fault_plan=plan,
        packet_timeout=timeout,
        max_retries=draw(st.integers(0, 2)),
        output_selection=policy,
        selection_threshold=draw(st.integers(1, 3)),
        backend="array",
    )
    if draw(st.booleans()):
        config = config.with_observability(channel_series_period=64)
    return f"mesh:{m}x{m}", algorithm, "uniform", config


@st.composite
def vc_point(draw):
    """Arbitrary topology family x VC count x algorithm, as the
    torus/hypercube figure harnesses submit them."""
    family = draw(st.sampled_from(["mesh", "torus", "hypercube"]))
    num_vc = draw(st.integers(1, 4))
    if family == "mesh":
        m = draw(st.integers(3, 5))
        n = draw(st.integers(3, 5))
        topo_spec = f"mesh:{m}x{n}"
        algorithm = draw(
            st.sampled_from(
                ["west-first", "negative-first", "escape-vc-adaptive"]
            )
        )
        if algorithm == "escape-vc-adaptive" and num_vc < 2:
            num_vc = 2  # the escape class needs at least one adaptive VC
    elif family == "torus":
        radix = draw(st.sampled_from([4, 6]))
        topo_spec = f"torus:{radix}x2"
        algorithm = draw(
            st.sampled_from(
                ["negative-first-torus", "dateline-dimension-order"]
            )
        )
    else:
        topo_spec = f"cube:{draw(st.integers(3, 4))}"
        algorithm = draw(st.sampled_from(["e-cube", "p-cube"]))
    config = SimulationConfig(
        offered_load=draw(st.sampled_from([0.5, 0.9, 1.4])),
        warmup_cycles=50,
        measure_cycles=180,
        seed=draw(st.integers(0, 10_000)),
        virtual_channels=num_vc,
        buffer_depth=draw(st.sampled_from([1, 2])),
        backend="array",
    )
    return topo_spec, algorithm, "uniform", config


class TestVirtualChannelBatches:
    """The multi-VC tentpole property: arbitrary (topology family x
    virtual_channels in 1..4 x algorithm) batch compositions equal
    per-point event-engine runs bit-for-bit, and every in-envelope
    point runs on the vectorized kernels."""

    @settings(max_examples=8, deadline=None)
    @given(st.lists(vc_point(), min_size=1, max_size=3))
    def test_vc_batch_matches_per_point_event_runs(self, points):
        specs = [build(*p) for p in points]
        batch = BatchSimulator(specs)
        for _, _, _, config in points:
            assert demotion_reasons(config) == ()
        # These shapes stay under the LUT cap, so in-envelope means
        # vectorized — a silent event-engine fallback fails here.
        assert batch.vectorized_count == len(points)
        batched = batch.run()
        solo = [
            WormholeSimulator(
                *build(
                    topo_spec, algorithm, pattern,
                    dataclasses.replace(config, backend="event"),
                )
            ).run()
            for topo_spec, algorithm, pattern, config in points
        ]
        assert [r.to_dict() for r in batched] == [
            r.to_dict() for r in solo
        ]


class TestMixedBatches:
    """In-envelope and demoted points share one batch: the vectorized
    ones advance together, each demoted one is a whole event-engine
    run, and the results come back in input order, equal to per-point
    event-engine runs bit-for-bit."""

    @settings(max_examples=6, deadline=None)
    @given(st.lists(mixed_point(), min_size=2, max_size=4))
    def test_mixed_batch_matches_per_point_event_runs(self, points):
        batch = BatchSimulator([build(*p) for p in points])
        assert batch.vectorized_count == sum(
            not demotion_reasons(config) for _, _, _, config in points
        )
        batched = batch.run()
        solo = [
            WormholeSimulator(
                *build(
                    topo_spec, algorithm, pattern,
                    dataclasses.replace(config, backend="event"),
                )
            ).run()
            for topo_spec, algorithm, pattern, config in points
        ]
        assert [r.to_dict() for r in batched] == [
            r.to_dict() for r in solo
        ]


@st.composite
def streaming_point(draw):
    """A single-VC in-envelope mesh point whose long messages stream,
    with its own run length, drain window and deadlock threshold."""
    m = draw(st.integers(3, 6))
    algorithm = draw(
        st.sampled_from(["xy", "west-first", "north-last", "negative-first"])
    )
    pattern = draw(st.sampled_from(["uniform", "transpose"]))
    n = m if pattern == "transpose" else draw(st.integers(3, 6))
    config = SimulationConfig(
        offered_load=draw(st.sampled_from([0.3, 0.9, 1.6, 2.4])),
        warmup_cycles=draw(st.integers(0, 80)),
        measure_cycles=draw(st.integers(60, 320)),
        drain_cycles=draw(st.sampled_from([0, 150])),
        seed=draw(st.integers(0, 10_000)),
        buffer_depth=draw(st.sampled_from([1, 2, 4])),
        message_lengths=draw(
            st.sampled_from([(10, 200), (1, 2, 5, 200), (3, 40)])
        ),
        deadlock_threshold=draw(st.sampled_from([30, 5_000])),
        track_channel_load=draw(st.booleans()),
        collect_router_blocked=draw(st.booleans()),
        backend="array",
    )
    return f"mesh:{m}x{n}", algorithm, pattern, config


@st.composite
def streaming_vc_point(draw):
    """A 2-3 VC in-envelope torus or mesh point whose long messages
    stream, with a misroute budget of 0-2."""
    if draw(st.booleans()):
        topo_spec = f"torus:{draw(st.sampled_from([4, 6, 8]))}x2"
        algorithm = draw(
            st.sampled_from(
                ["dateline-dimension-order", "negative-first-torus"]
            )
        )
    else:
        topo_spec = f"mesh:{draw(st.integers(3, 5))}x{draw(st.integers(3, 5))}"
        algorithm = draw(
            st.sampled_from(
                ["escape-vc-adaptive", "west-first", "negative-first"]
            )
        )
    config = SimulationConfig(
        offered_load=draw(st.sampled_from([0.3, 0.9, 1.6, 2.4])),
        warmup_cycles=draw(st.integers(0, 80)),
        measure_cycles=draw(st.integers(60, 320)),
        drain_cycles=draw(st.sampled_from([0, 150])),
        seed=draw(st.integers(0, 10_000)),
        virtual_channels=draw(st.integers(2, 3)),
        misroute_limit=draw(st.integers(0, 2)),
        buffer_depth=draw(st.sampled_from([1, 2, 4])),
        message_lengths=draw(
            st.sampled_from([(10, 200), (1, 2, 5, 200), (3, 40)])
        ),
        deadlock_threshold=draw(st.sampled_from([30, 5_000])),
        track_channel_load=draw(st.booleans()),
        collect_router_blocked=draw(st.booleans()),
        backend="array",
    )
    return topo_spec, algorithm, "uniform", config


class TestStreamingBatches:
    """The streaming-sleep property: random in-envelope batches (B <= 4)
    of single-VC and multi-VC points equal per-point event runs in every
    result and in ``worm_steps`` / ``bulk_flit_hops``, and every event
    run keeps the sleeper invariants (``SleeperProbe``)."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.one_of(streaming_point(), streaming_vc_point()),
            min_size=1, max_size=4,
        )
    )
    def test_batch_sleeps_what_the_event_engine_sleeps(self, points):
        batch = BatchSimulator([build(*p) for p in points])
        assert batch.vectorized_count == len(points)
        batched = batch.run()
        sims = [
            WormholeSimulator(
                *build(
                    topo_spec, algorithm, pattern,
                    dataclasses.replace(config, backend="event"),
                )
            )
            for topo_spec, algorithm, pattern, config in points
        ]
        for sim in sims:
            SleeperProbe(sim)
        assert [r.to_dict() for r in batched] == [
            sim.run().to_dict() for sim in sims
        ]
        assert (batch.worm_steps, batch.bulk_flit_hops) == (
            sum(sim.worm_steps for sim in sims),
            sum(sim.bulk_flit_hops for sim in sims),
        )
