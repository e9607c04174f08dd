"""The engine benchmark harness: points, measurement, regression gate."""

import json

import pytest

from repro.analysis.bench import (
    BATCH_POINTS,
    BatchBenchPoint,
    BenchPoint,
    CANONICAL_POINTS,
    FINGERPRINT_FIELDS,
    batch_bench_points,
    bench_points,
    compare_reports,
    load_report,
    run_batch_point,
    run_bench,
    run_point,
    write_report,
)
from repro.simulation.array_engine import numpy_available

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed"
)

TINY = BenchPoint(
    id="tiny", topology="mesh:4x4", algorithm="west-first",
    pattern="uniform", offered_load=1.0, warmup_cycles=50,
    measure_cycles=200, seed=3,
)

TINY_BATCH = BatchBenchPoint(
    id="tiny-batch", topology="mesh:4x4", algorithm="west-first",
    pattern="uniform", offered_load=1.0, batch_size=6,
    warmup_cycles=50, measure_cycles=200, buffer_depth=2,
    event_sample=3,
)


class TestPoints:
    def test_canonical_ids_are_unique(self):
        ids = [p.id for p in CANONICAL_POINTS]
        assert len(ids) == len(set(ids))

    def test_quick_subset_is_nonempty_and_proper(self):
        quick = bench_points(quick=True)
        assert 0 < len(quick) < len(CANONICAL_POINTS)
        assert all(p.quick for p in quick)
        assert bench_points() == list(CANONICAL_POINTS)

    def test_fault_point_config_arms_the_fault_machinery(self):
        point = next(p for p in CANONICAL_POINTS if p.fault_links)
        config = point.config()
        assert not config.fault_plan.is_empty
        assert config.packet_timeout > 0
        assert config.max_retries > 0

    def test_observability_point_switches_collectors_on(self):
        point = next(p for p in CANONICAL_POINTS if p.observability)
        config = point.config()
        assert config.collect_latency_histogram
        assert config.channel_series_period > 0

    def test_array_backend_relabels_points(self):
        points = bench_points(backend="array")
        assert [p.id for p in points] == [
            f"{p.id}@array" for p in CANONICAL_POINTS
        ]
        assert all(p.backend == "array" for p in points)
        assert all(p.config().backend == "array" for p in points)
        assert all(
            p.spec_dict()["backend"] == "array" for p in points
        )

    def test_batch_points_quick_subset(self):
        ids = [p.id for p in BATCH_POINTS]
        assert len(ids) == len(set(ids))
        quick = batch_bench_points(quick=True)
        assert 0 < len(quick) < len(BATCH_POINTS)
        assert all(p.quick for p in quick)
        assert batch_bench_points() == list(BATCH_POINTS)

    def test_batch_point_builds_seed_swept_configs(self):
        built = TINY_BATCH.build("array")
        assert len(built) == TINY_BATCH.batch_size
        seeds = [config.seed for _, _, config in built]
        assert seeds == [
            TINY_BATCH.base_seed + i
            for i in range(TINY_BATCH.batch_size)
        ]
        assert all(c.backend == "array" for _, _, c in built)
        assert all(
            c.buffer_depth == TINY_BATCH.buffer_depth
            for _, _, c in built
        )


class TestMeasurement:
    def test_run_point_measures_and_fingerprints(self):
        m = run_point(TINY, repeats=1)
        assert m.wall_s > 0
        assert m.simulated_cycles == TINY.config().total_cycles
        assert m.cycles_per_s > 0
        assert len(m.fingerprint) == len(FINGERPRINT_FIELDS)
        assert m.fingerprint[0] > 0  # generated packets

    def test_repeats_keep_the_same_fingerprint(self):
        once = run_point(TINY, repeats=1)
        twice = run_point(TINY, repeats=2)
        assert twice.fingerprint == once.fingerprint

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            run_point(TINY, repeats=0)

    def test_report_round_trip_and_baseline_fold(self, tmp_path):
        report = run_bench([TINY], repeats=1, label="before")
        path = tmp_path / "before.json"
        write_report(report, str(path))
        prior = load_report(str(path))
        assert prior["label"] == "before"
        again = run_bench([TINY], repeats=1, baseline=prior, label="after")
        m = again.measurements[0]
        assert m.baseline is not None
        assert m.baseline["label"] == "before"
        assert "speedup" in m.to_dict()
        assert "x" in again.render()  # the speedup column rendered
        # The counted work rides along: in the row, the entry, and the
        # folded baseline (same simulation, so the same counts).
        entry = m.to_dict()
        assert entry["worm_steps"] == m.worm_steps > 0
        assert entry["baseline"]["worm_steps"] == m.worm_steps
        assert entry["baseline"]["bulk_flit_hops"] == m.bulk_flit_hops
        assert "worm-steps" in again.render()
        assert f"{m.worm_steps:>11}" in again.render()

    def test_load_report_rejects_non_reports(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError):
            load_report(str(path))

    @needs_numpy
    def test_run_batch_point_measures_both_backends(self):
        m = run_batch_point(TINY_BATCH, repeats=2)
        assert m.batch_wall_s > 0
        assert m.event_wall_s > 0
        assert m.event_sampled == TINY_BATCH.event_sample
        assert m.points_per_s > 0
        assert m.event_points_per_s > 0
        assert m.speedup == pytest.approx(
            m.points_per_s / m.event_points_per_s
        )
        assert m.bit_identical
        assert len(m.fingerprint) == len(FINGERPRINT_FIELDS)
        assert m.fingerprint[0] > 0  # generated packets, batch-summed
        entry = m.to_dict()
        assert entry["bit_identical"] is True
        assert entry["spec"]["batch_size"] == TINY_BATCH.batch_size

    @needs_numpy
    def test_batch_points_flow_through_run_bench(self):
        report = run_bench([], batch_points=[TINY_BATCH])
        assert report.measurements == []
        assert len(report.batch_measurements) == 1
        payload = report.to_dict()
        assert "tiny-batch" in payload["batch_points"]
        assert "tiny-batch" in report.render()


class TestRegressionGate:
    def _committed(self, m, **overrides):
        entry = m.to_dict()
        entry.update(overrides)
        return {"points": {m.point.id: entry}}

    def test_clean_pass(self):
        report = run_bench([TINY], repeats=1)
        assert compare_reports(report, self._committed(report.measurements[0])) == []

    def test_fingerprint_change_is_fatal(self):
        report = run_bench([TINY], repeats=1)
        m = report.measurements[0]
        bad = list(m.fingerprint)
        bad[0] += 1
        problems = compare_reports(report, self._committed(m, fingerprint=bad))
        assert len(problems) == 1
        assert "fingerprint" in problems[0]

    def test_slowdown_beyond_threshold_is_fatal(self):
        report = run_bench([TINY], repeats=1)
        m = report.measurements[0]
        committed = self._committed(m, cycles_per_s=m.cycles_per_s * 10)
        problems = compare_reports(report, committed, fail_threshold=0.30)
        assert any("regressed" in p for p in problems)
        # A generous threshold absorbs the same gap.
        assert compare_reports(report, committed, fail_threshold=0.95) == []

    def test_unknown_points_are_ignored(self):
        report = run_bench([TINY], repeats=1)
        assert compare_reports(report, {"points": {}}) == []

    @needs_numpy
    def test_batch_point_gate(self):
        report = run_bench([], batch_points=[TINY_BATCH])
        bm = report.batch_measurements[0]
        entry = bm.to_dict()
        committed = {"points": {}, "batch_points": {bm.point.id: entry}}
        assert compare_reports(report, committed) == []
        # Throughput collapse trips the gate...
        slow = dict(entry, points_per_s=bm.points_per_s * 10)
        problems = compare_reports(
            report, {"points": {}, "batch_points": {bm.point.id: slow}}
        )
        assert any("points/s regressed" in p for p in problems)
        # ...and so does a changed batch fingerprint.
        bad = list(bm.fingerprint)
        bad[0] += 1
        problems = compare_reports(
            report,
            {
                "points": {},
                "batch_points": {bm.point.id: dict(entry, fingerprint=bad)},
            },
        )
        assert any("fingerprint" in p for p in problems)
        # A cross-backend mismatch is fatal even with no history.
        bm.bit_identical = False
        problems = compare_reports(report, {"points": {}})
        assert any("bit-for-bit" in p for p in problems)


class TestCommittedTrajectory:
    def test_bench_engine_json_fingerprints_still_hold(self):
        """The committed trajectory's quick points must fingerprint-match
        a fresh run: BENCH_engine.json doubles as a bit-identity pin."""
        from pathlib import Path

        trajectory = Path(__file__).resolve().parents[2] / "BENCH_engine.json"
        committed = load_report(str(trajectory))
        report = run_bench(bench_points(quick=True), repeats=1)
        problems = [
            p
            for p in compare_reports(report, committed, fail_threshold=0.30)
            if "fingerprint" in p
        ]
        assert problems == []

    @needs_numpy
    def test_bench_engine_json_array_fingerprints_still_hold(self):
        """Same pin for the array backend's quick points and the quick
        batched-sweep point (fingerprints are machine-independent)."""
        from pathlib import Path

        trajectory = Path(__file__).resolve().parents[2] / "BENCH_engine.json"
        committed = load_report(str(trajectory))
        report = run_bench(
            bench_points(quick=True, backend="array"),
            repeats=1,
            batch_points=batch_bench_points(quick=True),
        )
        problems = [
            p
            for p in compare_reports(report, committed, fail_threshold=0.30)
            if "fingerprint" in p or "bit-for-bit" in p
        ]
        assert problems == []
