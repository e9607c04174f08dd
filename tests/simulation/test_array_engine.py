"""Array-backend specifics the three-way equivalence suite doesn't cover:
the numpy gate (clear error without the optional extra), backend
dispatch, vectorized-envelope classification, heterogeneous batches,
LUT-cap demotion to the event engine, the cross-batch routing-table
cache, and the golden fingerprints on the array backend.
"""

import dataclasses

import pytest

import repro.routing.table as table
import repro.simulation.array_engine as ae
from repro.analysis.runner import make_pattern, parse_topology_spec
from repro.faults.plan import FaultPlan
from repro.observability import ListSink
from repro.routing.registry import make_algorithm
from repro.simulation.array_engine import (
    ArrayWormholeSimulator,
    BatchSimulator,
    demotion_reasons,
    make_simulator,
    numpy_available,
    vectorized_envelope,
)
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import WormholeSimulator

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed"
)


def build_point(
    topo_spec="mesh:5x5", algorithm="west-first", pattern="uniform",
    **overrides,
):
    topology = parse_topology_spec(topo_spec)
    kwargs = dict(
        offered_load=1.2, warmup_cycles=80, measure_cycles=300, seed=3
    )
    kwargs.update(overrides)
    config = SimulationConfig(**kwargs)
    return (
        make_algorithm(algorithm, topology),
        make_pattern(pattern, topology),
        config,
    )


def event_result(point):
    algorithm, pattern, config = point
    return WormholeSimulator(
        algorithm, pattern, config.with_backend("event")
    ).run()


class TestNumpyGate:
    """``backend="array"`` must fail loudly — not mysteriously — on a
    minimal install, while the event backend keeps working."""

    def test_array_without_numpy_raises_clear_error(self, monkeypatch):
        monkeypatch.setattr(ae, "np", None)
        algorithm, pattern, config = build_point()
        with pytest.raises(RuntimeError, match=r"repro\[array\]"):
            make_simulator(
                algorithm, pattern, config.with_backend("array")
            )
        with pytest.raises(RuntimeError, match=r"backend='event'"):
            BatchSimulator([(algorithm, pattern, config)])

    def test_event_backend_works_without_numpy(self, monkeypatch):
        monkeypatch.setattr(ae, "np", None)
        assert not numpy_available()
        algorithm, pattern, config = build_point(measure_cycles=120)
        sim = make_simulator(algorithm, pattern, config)
        assert isinstance(sim, WormholeSimulator)
        assert sim.run().generated_packets > 0


class TestDispatch:
    def test_event_backend_builds_event_simulator(self):
        algorithm, pattern, config = build_point()
        sim = make_simulator(algorithm, pattern, config)
        assert isinstance(sim, WormholeSimulator)

    @needs_numpy
    def test_array_backend_builds_array_simulator(self):
        algorithm, pattern, config = build_point()
        sim = make_simulator(
            algorithm, pattern, config.with_backend("array")
        )
        assert isinstance(sim, ArrayWormholeSimulator)
        assert sim.vectorized

    def test_unknown_backend_rejected_by_config(self):
        with pytest.raises(ValueError, match="unknown backend"):
            SimulationConfig(backend="gpu")


class TestVectorizedEnvelope:
    """The envelope predicate is pure config — no numpy needed — and
    names exactly the features the numpy kernels carry; everything else
    runs as one whole event-engine run (still bit-identical)."""

    def test_default_config_is_in_envelope(self):
        assert vectorized_envelope(SimulationConfig())

    @pytest.mark.parametrize(
        "overrides,reason",
        [
            (dict(output_selection="random"), "output-selection"),
            (dict(output_selection="zigzag"), "output-selection"),
            (dict(input_selection="random"), "input-selection"),
        ],
    )
    def test_feature_leaves_envelope(self, overrides, reason):
        config = SimulationConfig(**overrides)
        assert not vectorized_envelope(config)
        assert reason in demotion_reasons(config)

    def test_demotion_reasons_reports_every_applicable_gate(self):
        # A point can fail several gates at once; the predicate must
        # name all of them, not stop at the first.
        config = SimulationConfig(
            output_selection="random", input_selection="random"
        )
        assert demotion_reasons(config) == (
            "output-selection", "input-selection"
        )

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(packet_timeout=100),
            dict(packet_timeout=100, max_retries=2),
            dict(channel_series_period=50),
            dict(collect_router_blocked=True),
            dict(collect_latency_histogram=True),
            dict(output_selection="round-robin"),
            dict(output_selection="max-credits"),
            dict(output_selection="threshold", selection_threshold=3),
            dict(virtual_channels=2),
            dict(virtual_channels=4),
        ],
    )
    def test_widened_feature_stays_in_envelope(self, overrides):
        config = SimulationConfig(**overrides)
        assert vectorized_envelope(config)
        assert demotion_reasons(config) == ()

    def test_fault_plan_stays_in_envelope(self):
        topology = parse_topology_spec("mesh:5x5")
        plan = FaultPlan.random_links(topology, 2, seed=1, start=50)
        assert vectorized_envelope(SimulationConfig(fault_plan=plan))

    @needs_numpy
    def test_sink_demotes_to_scalar_member_but_stays_identical(self):
        algorithm, pattern, config = build_point()
        sink = ListSink()
        sim = ArrayWormholeSimulator(
            algorithm, pattern, config.with_backend("array"), sink=sink
        )
        assert not sim.vectorized
        result = sim.run()
        assert result.to_dict() == event_result(build_point()).to_dict()
        assert sink.events


@needs_numpy
class TestBatchSimulator:
    def test_heterogeneous_batch_matches_solo_runs_in_order(self):
        # Mixed topologies, algorithms, loads, and VC counts — the
        # torus VC=2 point runs on the vectorized kernels too — in one
        # batch.
        points = [
            build_point("mesh:5x5", "west-first", seed=3),
            build_point("mesh:4x6", "north-last", seed=5, offered_load=0.8),
            build_point("cube:4", "p-cube", seed=7, offered_load=2.0),
            build_point("mesh:5x5", "west-first", seed=11),
            build_point(
                "torus:4x2", "negative-first-torus", seed=9,
                offered_load=0.6, virtual_channels=2,
            ),
        ]
        batch = BatchSimulator(
            [(a, p, c.with_backend("array")) for a, p, c in points]
        )
        assert batch.batch_size == 5
        assert batch.vectorized_count == 5
        results = batch.run()
        assert len(results) == 5
        for point, result in zip(points, results):
            assert result.to_dict() == event_result(point).to_dict()

    def test_deadlock_member_freezes_without_disturbing_others(self):
        # Unrestricted minimal routing at extreme load deadlocks (the
        # known point from test_deadlock_diagnostics); its batch
        # neighbours must still finish with solo-identical results.
        from repro.core import TurnModel
        from repro.routing import TurnRestrictedMinimal

        def deadlock_point():
            mesh = parse_topology_spec("mesh:6x6")
            algorithm = TurnRestrictedMinimal(
                mesh, TurnModel.from_prohibited("none", 2, set())
            )
            config = SimulationConfig(
                offered_load=8.0, warmup_cycles=0,
                measure_cycles=30_000, deadlock_threshold=1_200, seed=3,
            )
            return algorithm, make_pattern("uniform", mesh), config

        points = [
            build_point("mesh:5x5", "west-first", seed=3),
            deadlock_point(),
            build_point("mesh:5x5", "north-last", seed=13),
        ]
        results = BatchSimulator(
            [(a, p, c.with_backend("array")) for a, p, c in points]
        ).run()
        assert results[1].deadlock
        for builder, result in zip(
            [
                lambda: build_point("mesh:5x5", "west-first", seed=3),
                deadlock_point,
                lambda: build_point("mesh:5x5", "north-last", seed=13),
            ],
            results,
        ):
            assert result.to_dict() == event_result(builder()).to_dict()

    def test_lut_cap_demotes_to_scalar_fallback(self, monkeypatch):
        monkeypatch.setattr(ae, "_LUT_ENTRY_CAP", 0)
        algorithm, pattern, config = build_point()
        sim = ArrayWormholeSimulator(
            algorithm, pattern, config.with_backend("array")
        )
        assert not sim.vectorized
        assert (
            sim.run().to_dict() == event_result(build_point()).to_dict()
        )

    def test_group_cache_shared_and_bounded(self, monkeypatch):
        # Groups are the shared tables of one algorithm *object*: two
        # points on the same object share one, and the registry bound
        # caps how many are retained.
        monkeypatch.setattr(table, "_SHARED", {})
        a1, p1, c1 = build_point(seed=3)
        _, p2, c2 = build_point(seed=5)
        batch = BatchSimulator([
            (a1, p1, c1.with_backend("array")),
            (a1, p2, c2.with_backend("array")),
        ])
        assert len(table._SHARED) == 1  # same algorithm object
        assert len(batch._core.groups) == 1
        for k in range(table._SHARED_MAX + 2):
            a, p, c = build_point(f"mesh:3x{k + 3}", measure_cycles=50)
            ArrayWormholeSimulator(a, p, c.with_backend("array"))
        assert len(table._SHARED) <= table._SHARED_MAX

    def test_group_cache_reused_across_successive_batches(
        self, monkeypatch
    ):
        # A second BatchSimulator over the same algorithm object must
        # reuse the very same tables and LUT objects — that identity is
        # what amortises LUT construction across a campaign.
        monkeypatch.setattr(table, "_SHARED", {})
        a1, p1, c1 = build_point(seed=3, measure_cycles=50)
        BatchSimulator([(a1, p1, c1.with_backend("array"))]).run()
        (first,) = table._SHARED.values()
        lut = first.array_lut
        built_rows = int(lut.cbuilt.sum())
        assert built_rows > 0  # the run populated LUT rows
        _, p2, c2 = build_point(seed=5, measure_cycles=50)
        BatchSimulator([(a1, p2, c2.with_backend("array"))]).run()
        (second,) = table._SHARED.values()
        assert second is first  # identity, not an equal rebuild
        assert second.array_lut is lut
        assert int(lut.cbuilt.sum()) >= built_rows

    def test_group_cache_keys_vc_classes_separately(self, monkeypatch):
        # The registry key includes the VC-class dimension: dateline
        # LUTs for vc=2 must never alias the vc=1 (or vc=3) tables of
        # the same algorithm object, while equal-num_vc batches still
        # reuse the identical objects.
        monkeypatch.setattr(table, "_SHARED", {})
        a, p, c = build_point(
            "torus:4x2", "dateline-dimension-order", offered_load=0.6,
            measure_cycles=50,
        )
        for num_vc in (1, 2, 3):
            cfg = dataclasses.replace(c, virtual_channels=num_vc)
            BatchSimulator([(a, p, cfg.with_backend("array"))]).run()
        assert set(table._SHARED) == {(id(a), n) for n in (1, 2, 3)}
        luts = {n: table._SHARED[(id(a), n)].array_lut for n in (1, 2, 3)}
        assert len({id(lut) for lut in luts.values()}) == 3
        cfg = dataclasses.replace(c, virtual_channels=2)
        BatchSimulator([(a, p, cfg.with_backend("array"))]).run()
        assert table._SHARED[(id(a), 2)].array_lut is luts[2]

    def test_group_cache_evicts_oldest_first(self, monkeypatch):
        monkeypatch.setattr(table, "_SHARED", {})
        keys = []
        for k in range(table._SHARED_MAX + 1):
            a, p, c = build_point(f"mesh:3x{k + 3}", measure_cycles=50)
            ArrayWormholeSimulator(a, p, c.with_backend("array"))
            keys.append((id(a), 1))
        assert len(table._SHARED) == table._SHARED_MAX
        assert keys[0] not in table._SHARED  # oldest evicted
        assert all(k in table._SHARED for k in keys[1:])

    def test_finished_batch_is_freed_by_refcount(self):
        # No member -> core back reference: with the cycle collector
        # off, dropping the BatchSimulator must free the arena at once
        # (cyclic garbage lingered until a gen-2 pass and grew peak RSS
        # across a campaign's batches).
        import gc
        import weakref

        a, p, c = build_point(measure_cycles=50)
        gc.collect()
        gc.disable()
        try:
            batch = BatchSimulator([
                (a, p, c.with_seed(s).with_backend("array")) for s in range(3)
            ])
            results = batch.run()
            core = weakref.ref(batch._core)
            del batch
            assert core() is None
            assert len(results) == 3  # the results outlive the arena
        finally:
            gc.enable()

    def test_lut_entry_cap_exact_boundary(self, monkeypatch):
        # The gate is ``rows * K <= _LUT_ENTRY_CAP``: a cap exactly at
        # the group's entry count stays vectorized; one below demotes.
        algorithm, pattern, config = build_point()
        entries = ae._lut_entries(pattern.topology, 1)
        assert entries == ae._GroupTables(table.shared_tables(algorithm)).cand.size
        for cap, expect_fast in [
            (entries + 1, True), (entries, True), (entries - 1, False),
        ]:
            monkeypatch.setattr(ae, "_LUT_ENTRY_CAP", cap)
            sim = ArrayWormholeSimulator(
                algorithm, pattern, config.with_backend("array")
            )
            assert sim.vectorized is expect_fast
            if not expect_fast:
                assert sim.demotion_counts == {"lut-cap": 1}


@needs_numpy
class TestDemotionObservability:
    """Silent fast-path loss is the failure mode the coverage counters
    exist to catch: every demoted member shows up in demotion_counts
    and drags vectorized_fraction below 1.0."""

    def test_all_vectorized_batch_reports_full_coverage(self):
        a, p, c = build_point()
        batch = BatchSimulator([(a, p, c.with_backend("array"))])
        assert batch.vectorized_fraction == 1.0
        assert batch.demotion_counts == {}

    def test_mixed_batch_counts_each_gate(self):
        points = [
            build_point(seed=3),
            build_point(seed=5, virtual_channels=2),  # in-envelope now
            build_point(seed=7, output_selection="zigzag"),
            build_point(seed=9, output_selection="random"),
            build_point(
                seed=11, input_selection="random",
                output_selection="random",  # fails two gates at once
            ),
        ]
        batch = BatchSimulator(
            [(a, p, c.with_backend("array")) for a, p, c in points]
        )
        assert batch.vectorized_count == 2
        assert batch.vectorized_fraction == pytest.approx(0.4)
        # The double-gate member counts once under *each* reason.
        assert batch.demotion_counts == {
            "output-selection": 3,
            "input-selection": 1,
        }
        # Demoted points run whole on the event engine; the results
        # still come back in input order.
        for point, result in zip(points, batch.run()):
            assert result.to_dict() == event_result(point).to_dict()

    def test_all_demoted_batch_builds_no_core(self):
        points = [
            build_point(seed=s, output_selection="random") for s in (3, 5)
        ]
        batch = BatchSimulator(
            [(a, p, c.with_backend("array")) for a, p, c in points]
        )
        assert batch._core is None
        assert batch.vectorized_fraction == 0.0
        for point, result in zip(points, batch.run()):
            assert result.to_dict() == event_result(point).to_dict()

    def test_sink_demotion_counted_as_runtime_gate(self):
        a, p, c = build_point()
        sim = ArrayWormholeSimulator(
            a, p, c.with_backend("array"), sink=ListSink()
        )
        assert sim.demotion_counts == {"trace-sink": 1}


@needs_numpy
class TestProfiledRuns:
    """``--profile`` no longer demotes: the array backend times its own
    kernel passes, and profiling only observes the clock — profiled runs
    stay bit-identical to unprofiled ones on both backends."""

    def test_profiler_does_not_demote_and_stays_identical(self):
        from repro.observability import PhaseProfiler

        a, p, c = build_point()
        profiler = PhaseProfiler()
        sim = ArrayWormholeSimulator(
            a, p, c.with_backend("array"), profiler=profiler
        )
        assert sim.vectorized
        assert sim.demotion_counts == {}
        result = sim.run()
        assert result.to_dict() == event_result(build_point()).to_dict()
        for phase in ("generate", "inject", "allocate", "advance",
                      "collect"):
            assert profiler.calls.get(phase, 0) > 0
        assert profiler.total_seconds > 0.0

    def test_profiled_vc_point_stays_identical(self):
        from repro.observability import PhaseProfiler

        point = (
            "torus:4x2", "negative-first-torus", "uniform",
        )
        kwargs = dict(seed=9, offered_load=0.6, virtual_channels=2)
        a, p, c = build_point(*point, **kwargs)
        sim = ArrayWormholeSimulator(
            a, p, c.with_backend("array"), profiler=PhaseProfiler()
        )
        assert sim.vectorized
        expected = event_result(build_point(*point, **kwargs))
        assert sim.run().to_dict() == expected.to_dict()


# The four golden operating points (tests/simulation/
# test_selection_engine.py pins these against the event engine; the
# array backend must reproduce them bit-for-bit).
GOLDEN = [
    (
        "mesh:8x8", "west-first", "uniform",
        dict(offered_load=1.2, seed=3, warmup_cycles=500,
             measure_cycles=2_000),
        (71, 65, 7870, 10641, 9666, 343, 0, 218, 6),
    ),
    (
        "mesh:8x8", "xy", "transpose",
        dict(offered_load=0.8, seed=11, warmup_cycles=400,
             measure_cycles=1_500),
        (37, 36, 3400, 4860, 4242, 212, 0, 213, 1),
    ),
    (
        "cube:6", "p-cube", "uniform",
        dict(offered_load=2.0, seed=5, warmup_cycles=300,
             measure_cycles=1_200),
        (57, 51, 6780, 8251, 7511, 160, 0, 222, 6),
    ),
    (
        "torus:6x2", "negative-first-torus", "uniform",
        dict(offered_load=0.6, seed=9, warmup_cycles=300,
             measure_cycles=1_200, virtual_channels=2),
        (14, 14, 520, 564, 564, 58, 8, 1, 0),
    ),
]

FINGERPRINT_FIELDS = (
    "generated_packets", "delivered_packets", "delivered_flits",
    "total_latency_cycles", "total_net_latency_cycles", "total_hops",
    "total_misroutes", "max_grant_wait_cycles", "inflight_at_end",
)


@needs_numpy
class TestGoldenFingerprintsOnArrayBackend:
    @pytest.mark.parametrize(
        "topo_spec,algorithm,pattern,overrides,expected", GOLDEN
    )
    def test_golden_fingerprint(
        self, topo_spec, algorithm, pattern, overrides, expected
    ):
        topology = parse_topology_spec(topo_spec)
        config = SimulationConfig(backend="array", **overrides)
        result = make_simulator(
            make_algorithm(algorithm, topology),
            make_pattern(pattern, topology),
            config,
        ).run()
        fingerprint = tuple(
            getattr(result, name) for name in FINGERPRINT_FIELDS
        )
        assert fingerprint == expected

    def test_goldens_as_one_batch(self):
        points = []
        for topo_spec, algorithm, pattern, overrides, _ in GOLDEN:
            topology = parse_topology_spec(topo_spec)
            points.append((
                make_algorithm(algorithm, topology),
                make_pattern(pattern, topology),
                SimulationConfig(backend="array", **overrides),
            ))
        results = BatchSimulator(points).run()
        for (_, _, _, _, expected), result in zip(GOLDEN, results):
            fingerprint = tuple(
                getattr(result, name) for name in FINGERPRINT_FIELDS
            )
            assert fingerprint == expected
