"""Tests for the parallel experiment runner and its on-disk cache."""

import dataclasses
import pickle
import random

import pytest

from repro.analysis import (
    CampaignJournal,
    ExperimentPreset,
    ParallelSweepRunner,
    PointSpec,
    ResultCache,
    compare_algorithms,
    figure13_mesh_uniform,
    find_saturation,
    find_saturation_many,
    point_spec,
    run_live_points,
    run_sweep,
)
from repro.analysis.runner import (
    make_pattern,
    parse_topology_spec,
    topology_spec,
)
from repro.faults import FaultEvent, FaultPlan
from repro.routing import WestFirst, XY
from repro.simulation import SimulationConfig
from repro.simulation.array_engine import numpy_available
from repro.topology import Hypercube, KAryNCube, Mesh2D
from repro.traffic import UniformPattern

FAST = SimulationConfig(warmup_cycles=200, measure_cycles=800, seed=1)

# Figure 13's harness (16x16 mesh, all four algorithms) at a reduced
# fast preset so the equivalence tests stay in test-suite budget.
TINY_FIG13 = ExperimentPreset(
    warmup_cycles=200,
    measure_cycles=600,
    mesh_loads=(0.3, 0.6),
    cube_loads=(0.5, 1.0),
    seed=3,
)


def _spec(load=0.3, config=FAST, topo="mesh:5x5", alg="xy", pat="uniform"):
    return PointSpec(topo, alg, pat, config.with_load(load))


class TestSpecs:
    def test_topology_spec_round_trips(self):
        for topo in (Mesh2D(5, 3), Hypercube(4), KAryNCube(4, 2)):
            spec = topology_spec(topo)
            rebuilt = parse_topology_spec(spec)
            assert type(rebuilt) is type(topo)
            assert rebuilt.dims == topo.dims

    def test_parse_rejects_bad_specs(self):
        for bad in ("mesh", "ring:5", "mesh:ax2", "cube:"):
            with pytest.raises(ValueError):
                parse_topology_spec(bad)

    def test_make_pattern_dispatches_transpose(self):
        assert (
            type(make_pattern("transpose", Mesh2D(4, 4))).__name__
            == "MeshTransposePattern"
        )
        assert (
            type(make_pattern("transpose", Hypercube(4))).__name__
            == "HypercubeTransposePattern"
        )
        with pytest.raises(ValueError):
            make_pattern("nope", Mesh2D(4, 4))

    def test_point_spec_from_live_objects(self):
        mesh = Mesh2D(5, 5)
        spec = point_spec(WestFirst(mesh), UniformPattern(mesh), FAST)
        assert spec == PointSpec("mesh:5x5", "west-first", "uniform", FAST)
        algorithm, pattern = spec.build()
        assert algorithm.name == "west-first"
        assert pattern.name == "uniform"

    def test_point_spec_rejects_unregistered_algorithm(self):
        mesh = Mesh2D(4, 4)
        rogue = XY(mesh)
        rogue.__class__ = type(
            "Rogue", (XY,), {"name": property(lambda self: "rogue")}
        )
        with pytest.raises(ValueError):
            point_spec(rogue, UniformPattern(mesh), FAST)

    def test_execute_matches_direct_simulation(self):
        from repro.simulation import WormholeSimulator

        mesh = Mesh2D(5, 5)
        spec = _spec()
        direct = WormholeSimulator(
            XY(mesh), UniformPattern(mesh), FAST.with_load(0.3)
        ).run()
        assert spec.execute() == direct


class TestCacheKey:
    def test_key_is_deterministic(self):
        assert _spec().cache_key() == _spec().cache_key()

    def test_every_config_field_is_in_the_key(self):
        base = _spec()
        changed = {
            "channel_bandwidth": 10.0,
            "buffer_depth": 2,
            "virtual_channels": 2,
            "message_lengths": (16,),
            "offered_load": 0.123,
            "warmup_cycles": 201,
            "measure_cycles": 801,
            "seed": 2,
            "input_selection": "random",
            "output_selection": "random",
            "selection_threshold": 3,
            "misroute_limit": 1,
            "deadlock_threshold": 4_999,
            "queue_sample_period": 99,
            "track_channel_load": True,
            "max_queue_per_node": 499,
            "drain_cycles": 100,
            "fault_plan": FaultPlan((FaultEvent.router(0),)),
            "packet_timeout": 700,
            "max_retries": 1,
            "retry_backoff_base": 64,
            "retry_backoff_cap": 4_096,
            "channel_series_period": 100,
            "collect_router_blocked": True,
            "collect_latency_histogram": True,
            "backend": "array",
        }
        assert set(changed) == {
            f.name for f in dataclasses.fields(SimulationConfig)
        }
        for name, value in changed.items():
            config = dataclasses.replace(base.config, **{name: value})
            assert (
                dataclasses.replace(base, config=config).cache_key()
                != base.cache_key()
            ), f"changing {name} should change the cache key"

    def test_topology_algorithm_pattern_in_the_key(self):
        base = _spec()
        assert _spec(topo="mesh:6x5").cache_key() != base.cache_key()
        assert _spec(alg="west-first").cache_key() != base.cache_key()
        assert _spec(pat="transpose").cache_key() != base.cache_key()

    def test_config_stable_serialization_round_trips(self):
        config = FAST.with_load(0.7)
        rebuilt = SimulationConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.canonical_json() == config.canonical_json()
        assert rebuilt.stable_hash() == config.stable_hash()


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec()
        assert cache.get(spec) is None
        result = spec.execute()
        cache.put(spec, result)
        assert cache.get(spec) == result
        assert len(cache) == 1

    def test_distinct_specs_do_not_collide(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec()
        cache.put(spec, spec.execute())
        assert cache.get(_spec(load=0.4)) is None
        assert cache.get(_spec(config=FAST.with_seed(2))) is None

    def test_corrupted_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec()
        stored = spec.execute()
        path = cache.put(spec, stored)
        good = path.read_bytes()
        path.write_bytes(b"not a pickle")
        assert cache.get(spec) is None
        # An entry written before files carried a digest: a bare pickle.
        path.write_bytes(
            pickle.dumps({"point": spec.to_dict(), "result": stored})
        )
        assert cache.get(spec) is None
        # Seeded fuzz — truncations, 1-3 flipped bytes, garbage files:
        # every get is a miss or the stored result, and raises nothing.
        rng = random.Random(20)
        for case in range(5000):
            if case % 3 == 0:
                blob = good[: rng.randrange(len(good))]
            elif case % 3 == 1:
                flipped = bytearray(good)
                for _ in range(rng.randint(1, 3)):
                    flipped[rng.randrange(len(good))] ^= rng.randrange(1, 256)
                blob = bytes(flipped)
            else:
                blob = rng.randbytes(rng.randrange(2 * len(good)))
            path.write_bytes(blob)
            assert cache.get(spec) in (None, stored)
        # The next put repairs the entry.
        cache.put(spec, stored)
        assert cache.get(spec) == stored

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec()
        cache.put(spec, spec.execute())
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_clear_sweeps_orphaned_tmp_files_and_empty_shards(
        self, tmp_path
    ):
        cache = ResultCache(tmp_path)
        spec = _spec()
        path = cache.put(spec, spec.execute())
        # A writer crashing between mkstemp and the atomic rename leaves
        # a *.tmp orphan that __len__ never counts.
        orphan = path.parent / "leftover1234.tmp"
        orphan.write_bytes(b"partial write")
        assert cache.clear() == 1
        assert not orphan.exists()
        # The emptied shard directory is pruned too.
        assert not path.parent.exists()
        assert len(cache) == 0

    def test_truncated_entry_is_a_miss_then_repaired_by_put(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec()
        result = spec.execute()
        path = cache.put(spec, result)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # torn mid-write
        assert cache.get(spec) is None
        cache.put(spec, result)
        assert cache.get(spec) == result

    def test_key_spec_mismatch_is_a_miss_then_overwritten(self, tmp_path):
        # An entry stored under the wrong key (hash collision, or a file
        # copied between shards) must degrade to a miss, never serve the
        # other point's result.
        cache = ResultCache(tmp_path)
        spec_a, spec_b = _spec(load=0.3), _spec(load=0.4)
        result_a, result_b = spec_a.execute(), spec_b.execute()
        path_a = cache.put(spec_a, result_a)
        path_b = cache.path_for(spec_b)
        path_b.parent.mkdir(parents=True, exist_ok=True)
        path_b.write_bytes(path_a.read_bytes())
        assert cache.get(spec_b) is None
        cache.put(spec_b, result_b)
        assert cache.get(spec_b) == result_b
        assert cache.get(spec_a) == result_a

    def test_unreadable_shard_degrades_to_a_miss(self, tmp_path):
        # The shard path existing as a regular file makes every read
        # under it raise (NotADirectoryError, an OSError); the cache
        # treats that as a miss and recovers once the obstruction goes.
        cache = ResultCache(tmp_path)
        spec = _spec()
        result = spec.execute()
        shard = cache.path_for(spec).parent
        shard.write_bytes(b"not a directory")
        assert cache.get(spec) is None
        shard.unlink()
        cache.put(spec, result)
        assert cache.get(spec) == result


class TestRunner:
    def test_parallel_results_bit_identical_to_serial(self):
        mesh = Mesh2D(16, 16)
        loads = TINY_FIG13.mesh_loads
        config = TINY_FIG13.config()
        serial = run_sweep(XY(mesh), UniformPattern(mesh), loads, config)
        runner = ParallelSweepRunner(jobs=2, cache=None)
        parallel = run_sweep(
            XY(mesh), UniformPattern(mesh), loads, config, runner=runner
        )
        assert parallel.results == serial.results
        assert runner.stats.executed == len(loads)

    def test_figure13_harness_parallel_equivalence(self):
        serial = figure13_mesh_uniform(TINY_FIG13)
        runner = ParallelSweepRunner(jobs=2, cache=None)
        parallel = figure13_mesh_uniform(TINY_FIG13, runner=runner)
        assert [s.algorithm for s in parallel] == [
            s.algorithm for s in serial
        ]
        for par, ser in zip(parallel, serial):
            assert par.results == ser.results
        assert runner.stats.executed == 4 * len(TINY_FIG13.mesh_loads)

    def test_second_run_is_served_entirely_from_cache(self, tmp_path):
        runner = ParallelSweepRunner(jobs=2, cache=ResultCache(tmp_path))
        mesh = Mesh2D(6, 6)
        first = run_sweep(
            XY(mesh), UniformPattern(mesh), [0.2, 0.5], FAST, runner=runner
        )
        assert runner.stats.executed == 2

        rerun = ParallelSweepRunner(jobs=2, cache=ResultCache(tmp_path))
        second = run_sweep(
            XY(mesh), UniformPattern(mesh), [0.2, 0.5], FAST, runner=rerun
        )
        assert rerun.stats.executed == 0
        assert rerun.stats.cached == 2
        assert second.results == first.results

    def test_changing_any_knob_misses_the_cache(self, tmp_path):
        mesh = Mesh2D(6, 6)
        runner = ParallelSweepRunner(jobs=1, cache=ResultCache(tmp_path))
        run_sweep(XY(mesh), UniformPattern(mesh), [0.2], FAST, runner=runner)
        # Different seed -> different operating point -> a fresh run.
        run_sweep(
            XY(mesh),
            UniformPattern(mesh),
            [0.2],
            FAST.with_seed(9),
            runner=runner,
        )
        # Different topology -> also a fresh run.
        other = Mesh2D(7, 6)
        run_sweep(
            XY(other), UniformPattern(other), [0.2], FAST, runner=runner
        )
        assert runner.stats.executed == 3
        assert runner.stats.cached == 0

    def test_force_re_executes_and_refreshes(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec()
        runner = ParallelSweepRunner(jobs=1, cache=cache)
        runner.run_point(spec)
        forced = ParallelSweepRunner(jobs=1, cache=cache, force=True)
        forced.run_point(spec)
        assert forced.stats.executed == 1
        assert forced.stats.cached == 0

    def test_progress_fires_for_cached_and_executed(self, tmp_path):
        runner = ParallelSweepRunner(jobs=1, cache=ResultCache(tmp_path))
        seen = []
        runner.run_points([_spec(), _spec(load=0.4)], progress=seen.append)
        runner.run_points([_spec(), _spec(load=0.4)], progress=seen.append)
        assert len(seen) == 4

    def test_compare_algorithms_batches_through_runner(self):
        mesh = Mesh2D(5, 5)
        runner = ParallelSweepRunner(jobs=2, cache=None)
        series = compare_algorithms(
            [XY(mesh), WestFirst(mesh)],
            lambda topo: UniformPattern(topo),
            [0.3],
            FAST,
            runner=runner,
        )
        assert [s.algorithm for s in series] == ["xy", "west-first"]
        assert runner.stats.executed == 2
        baseline = compare_algorithms(
            [XY(mesh), WestFirst(mesh)],
            lambda topo: UniformPattern(topo),
            [0.3],
            FAST,
        )
        for with_runner, serial in zip(series, baseline):
            assert with_runner.results == serial.results

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_array_backend_sweep_batches_and_matches_event(self):
        # An unsupervised batch of backend="array" specs runs as ONE
        # BatchSimulator pass — bit-identical to the event-engine sweep,
        # with every point recorded (stats, cache, progress).
        mesh = Mesh2D(8, 8)
        loads = (0.3, 0.6, 0.9)
        serial = run_sweep(
            XY(mesh), UniformPattern(mesh), loads, FAST
        )
        runner = ParallelSweepRunner(jobs=2, cache=None)
        batched = run_sweep(
            XY(mesh), UniformPattern(mesh), loads,
            FAST.with_backend("array"), runner=runner,
        )
        assert batched.results == serial.results
        assert runner.stats.executed == len(loads)

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_mixed_backend_batch_keeps_input_order(self):
        runner = ParallelSweepRunner(jobs=1, cache=None)
        specs = [
            _spec(load=0.3),
            _spec(load=0.4, config=FAST.with_backend("array")),
            _spec(load=0.5),
            _spec(load=0.6, config=FAST.with_backend("array")),
        ]
        results = runner.run_points(specs)
        assert len(results) == len(specs)
        for spec, result in zip(specs, results):
            assert result == spec.execute()

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_array_batch_populates_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = ParallelSweepRunner(jobs=2, cache=cache)
        specs = [
            _spec(load=load, config=FAST.with_backend("array"))
            for load in (0.3, 0.5)
        ]
        first = runner.run_points(specs)
        assert runner.stats.executed == 2
        again = ParallelSweepRunner(jobs=2, cache=cache)
        second = again.run_points(specs)
        assert second == first
        assert again.stats.executed == 0
        assert again.stats.cached == 2

    def test_unspecable_objects_fall_back_to_serial(self):
        mesh = Mesh2D(5, 5)

        class Anonymous(UniformPattern):
            @property
            def name(self):
                return "anonymous"

        runner = ParallelSweepRunner(jobs=2, cache=None)
        series = run_sweep(
            XY(mesh), Anonymous(mesh), [0.3], FAST, runner=runner
        )
        assert len(series.results) == 1
        assert runner.stats.points == 0  # runner was bypassed

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            ParallelSweepRunner(jobs=0)

    def test_stats_summary_renders(self):
        runner = ParallelSweepRunner(jobs=1, cache=None)
        runner.run_points([_spec()])
        text = runner.stats.summary()
        assert "1 points" in text and "simulated" in text


class TestSaturationThroughRunner:
    def test_find_saturation_matches_serial(self, tmp_path):
        mesh = Mesh2D(6, 6)
        serial = find_saturation(
            XY(mesh), UniformPattern(mesh), FAST, high=16.0, iterations=4
        )
        runner = ParallelSweepRunner(jobs=1, cache=ResultCache(tmp_path))
        routed = find_saturation(
            XY(mesh),
            UniformPattern(mesh),
            FAST,
            high=16.0,
            iterations=4,
            runner=runner,
        )
        assert routed == serial
        assert runner.stats.executed == serial.probes

        # A repeated search is answered entirely from cache.
        rerun = ParallelSweepRunner(jobs=1, cache=ResultCache(tmp_path))
        again = find_saturation(
            XY(mesh),
            UniformPattern(mesh),
            FAST,
            high=16.0,
            iterations=4,
            runner=rerun,
        )
        assert again == serial
        assert rerun.stats.executed == 0

    def test_find_saturation_many_matches_single_searches(self):
        mesh = Mesh2D(5, 5)
        pairs = [
            (XY(mesh), UniformPattern(mesh)),
            (WestFirst(mesh), UniformPattern(mesh)),
        ]
        singles = [
            find_saturation(a, p, FAST, high=16.0, iterations=3)
            for a, p in pairs
        ]
        runner = ParallelSweepRunner(jobs=2, cache=None)
        many = find_saturation_many(
            pairs, FAST, high=16.0, iterations=3, runner=runner
        )
        assert many == singles


class TestArrayBatchMembership:
    """One helper decides which pending points join a batched array
    pass — shared by the inline fast path and supervised sharding."""

    def test_selects_only_real_array_specs_in_pending_order(self):
        from repro.analysis.runner import array_batch_indices

        class DuckSpec:
            config = FAST.with_backend("array")

            def execute(self):  # pragma: no cover - membership only
                return None

            def cache_key(self):  # pragma: no cover - membership only
                return "duck"

        specs = [
            _spec(load=0.3),                                     # event
            _spec(load=0.4, config=FAST.with_backend("array")),  # array
            DuckSpec(),                       # array config but no build()
            _spec(load=0.6, config=FAST.with_backend("array")),  # array
        ]
        assert array_batch_indices(specs, [0, 1, 2, 3]) == [1, 3]
        # Only pending points are considered (cache hits are gone).
        assert array_batch_indices(specs, [3, 0]) == [3]
        assert array_batch_indices(specs, []) == []


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
class TestSupervisedArraySharding:
    """Supervised campaigns shard all-array batches into per-worker
    sub-batches, so crash-tolerant runs keep batched throughput."""

    def test_supervised_array_batch_matches_event_runs(self, tmp_path):
        loads = (0.3, 0.5, 0.7, 0.9, 1.1)
        specs = [
            _spec(load=load, config=FAST.with_backend("array"))
            for load in loads
        ]
        runner = ParallelSweepRunner(
            jobs=2,
            cache=ResultCache(tmp_path / "cache"),
            keep_going=True,  # engages supervision
        )
        report = runner.run_batch(specs)
        assert not report.failures
        assert runner.stats.executed == len(loads)
        event = [
            _spec(load=load).execute() for load in loads
        ]
        assert [r.to_dict() for r in report.results] == [
            r.to_dict() for r in event
        ]
        # Every point landed in the cache individually.
        again = ParallelSweepRunner(
            jobs=2, cache=ResultCache(tmp_path / "cache"), keep_going=True
        )
        second = again.run_batch(specs)
        assert again.stats.executed == 0
        assert again.stats.cached == len(loads)
        assert second.results == report.results

    def test_supervised_mixed_batch_keeps_order_and_journal(
        self, tmp_path
    ):
        specs = [
            _spec(load=0.3),
            _spec(load=0.4, config=FAST.with_backend("array")),
            _spec(load=0.5),
            _spec(load=0.6, config=FAST.with_backend("array")),
        ]
        runner = ParallelSweepRunner(
            jobs=2,
            cache=ResultCache(tmp_path / "cache"),
            journal=tmp_path / "journal.jsonl",
        )
        results = runner.run_points(specs)
        runner.close()
        for spec, result in zip(specs, results):
            assert result.to_dict() == spec.execute().to_dict()
        lines = (tmp_path / "journal.jsonl").read_text().splitlines()
        assert len([ln for ln in lines if '"point"' in ln]) >= len(specs)

    def test_unsupervised_array_batch_is_one_inline_pass(self, monkeypatch):
        from repro.analysis import runner as runner_module

        def no_pool(*args, **kwargs):
            raise AssertionError("an unsupervised array batch used the pool")

        monkeypatch.setattr(runner_module.SupervisedPool, "run", no_pool)
        specs = [
            _spec(load=load, config=FAST.with_backend("array"))
            for load in (0.3, 0.5, 0.7)
        ]
        results = ParallelSweepRunner(jobs=2, cache=None).run_points(specs)
        assert results == [spec.execute() for spec in specs]

    def test_failed_shard_expands_to_per_point_failures(self, tmp_path):
        good = [
            _spec(load=load, config=FAST.with_backend("array"))
            for load in (0.3, 0.5)
        ]
        bad = _spec(
            load=0.4, alg="no-such-algorithm",
            config=FAST.with_backend("array"),
        )
        specs = [good[0], bad, good[1]]
        runner = ParallelSweepRunner(
            jobs=2,  # shards (0, 1) and (2,): the first holds the bad point
            cache=None,
            keep_going=True,
        )
        report = runner.run_batch(specs)
        assert [f.index for f in report.failures] == [1]
        assert report.failures[0].spec == bad
        assert report.results[1] is None
        for i in (0, 2):
            assert (
                report.results[i].to_dict()
                == _spec(load=specs[i].config.offered_load).execute().to_dict()
            )
        assert runner.stats.failed == 1

    def test_failed_shard_fails_only_its_bad_member_with_one_worker(self):
        # jobs=1 puts all three points in one shard; the shard fails,
        # its members rerun alone, and only the bad one fails for good.
        good = [
            _spec(load=load, config=FAST.with_backend("array"))
            for load in (0.3, 0.5)
        ]
        bad = _spec(
            load=0.4, alg="no-such-algorithm",
            config=FAST.with_backend("array"),
        )
        specs = [good[0], bad, good[1]]
        runner = ParallelSweepRunner(jobs=1, cache=None, keep_going=True)
        report = runner.run_batch(specs)
        assert [f.index for f in report.failures] == [1]
        assert report.failures[0].spec == bad
        assert report.results[1] is None
        for i in (0, 2):
            assert report.results[i] == specs[i].execute()
        assert runner.stats.failed == 1
        assert runner.stats.executed == 2

    def test_failfast_shard_failure_names_a_member_point(self):
        from repro.analysis.supervision import PointExecutionError

        bad = _spec(
            load=0.4, alg="no-such-algorithm",
            config=FAST.with_backend("array"),
        )
        specs = [
            _spec(load=0.3, config=FAST.with_backend("array")),
            bad,
        ]
        runner = ParallelSweepRunner(jobs=1, cache=None, max_point_retries=0,
                                     point_timeout=60.0)
        with pytest.raises(PointExecutionError) as excinfo:
            runner.run_batch(specs)
        # The failed shard splits; the healthy point #0 then completes
        # and only the bad point fails for good.
        assert excinfo.value.failure.spec == bad
        assert excinfo.value.failure.index == 1
        assert runner.stats.executed == 1


class TestPlanIndependence:
    """One mixed batch gives the same results, accounting, cache and
    journal under every execution plan the runner has."""

    @staticmethod
    def _points():
        mesh = Mesh2D(5, 5)

        class Anonymous(UniformPattern):
            @property
            def name(self):
                return "anonymous"

        points = [
            (XY(mesh), UniformPattern(mesh), FAST.with_load(0.3)),
            (WestFirst(mesh), UniformPattern(mesh), FAST.with_load(0.5)),
            # Hand-built: no registry spec describes it, so it runs inline.
            (XY(mesh), Anonymous(mesh), FAST.with_load(0.4)),
        ]
        if numpy_available():
            array = FAST.with_backend("array")
            points += [
                (XY(mesh), UniformPattern(mesh), array.with_load(0.2)),
                (WestFirst(mesh), UniformPattern(mesh), array.with_load(0.6)),
                (XY(mesh), UniformPattern(mesh), array.with_load(0.8)),
            ]
        return points

    def test_every_plan_gives_the_same_batch(self, tmp_path):
        points = self._points()
        specs = [
            point_spec(*point) for point in points
            if point[1].name != "anonymous"
        ]
        plans = {
            "inline": dict(jobs=1),
            "pool": dict(jobs=2),
            "supervised": dict(
                jobs=2, keep_going=True, journal=tmp_path / "journal.jsonl"
            ),
            "watchdog": dict(jobs=1, point_timeout=60),
        }
        outcomes = {}
        for name, knobs in plans.items():
            cache = ResultCache(tmp_path / name)
            runner = ParallelSweepRunner(cache=cache, **knobs)
            results = run_live_points(points, runner)
            runner.close()
            outcomes[name] = (
                [r.to_dict() for r in results],
                runner.stats.executed,
                len(cache),
            )
        expected = outcomes.pop("inline")
        assert expected[1:] == (len(specs), len(specs))
        for name, outcome in outcomes.items():
            assert outcome == expected, name
        keys = [
            record["key"]
            for record in CampaignJournal.read(tmp_path / "journal.jsonl")
            if record["kind"] == "point"
        ]
        assert sorted(keys) == sorted(spec.cache_key() for spec in specs)
