"""Property-based cross-backend guarantees for the array engine.

Random operating points (shape, algorithm, pattern, load, buffer
depth, message lengths, seed) must satisfy:

* a :class:`BatchSimulator` batch of size 1 returns exactly the same
  ``SimulationResult.to_dict()`` as a solo array-backend run;
* a batched sweep returns per-point results — and therefore sweep
  aggregates — identical to running each point alone on the event
  engine;
* arbitrary fault plans combined with any congestion-aware selection
  policy, watchdog/retry settings, and collectors — the widened
  vectorized envelope — batched in arbitrary compositions still match
  per-point event-engine runs exactly.
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
def faulted_point(draw):
    m = draw(st.integers(4, 6))
    algorithm = draw(
        st.sampled_from(["west-first", "north-last", "negative-first"])
    )
    policy = draw(
        st.sampled_from(["xy", "round-robin", "max-credits", "threshold"])
    )
    config = SimulationConfig(
        offered_load=draw(st.sampled_from([0.8, 1.3])),
        warmup_cycles=50,
        measure_cycles=220,
        drain_cycles=100,
        seed=draw(st.integers(0, 10_000)),
        fault_plan=draw(fault_plan(m)),
        packet_timeout=draw(st.sampled_from([120, 250])),
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


class TestFaultedSelectionBatches:
    """The tentpole property: arbitrary fault plan x selection policy x
    watchdog/retry/collector settings, batched in arbitrary
    compositions, equals per-point event-engine runs bit-for-bit —
    and every such point runs on the vectorized kernels."""

    @settings(max_examples=6, deadline=None)
    @given(st.lists(faulted_point(), min_size=2, max_size=3))
    def test_faulted_batch_matches_per_point_event_runs(self, points):
        for _, _, _, config in points:
            assert demotion_reasons(config) == ()
        batched = BatchSimulator([build(*p) for p in points]).run()
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
