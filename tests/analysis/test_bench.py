"""The pin ledger: points, what a run pins, and the exact gate."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.bench import (
    CANONICAL_POINTS,
    FINGERPRINT_FIELDS,
    PinnedPoint,
    bench_points,
    compare_reports,
    load_report,
    run_point,
    write_report,
)
from repro.simulation.array_engine import numpy_available

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed"
)

LEDGER = Path(__file__).resolve().parents[2] / "BENCH_engine.json"

TINY = PinnedPoint(
    id="tiny", topology="mesh:4x4", algorithm="west-first",
    pattern="uniform", offered_load=1.0, warmup_cycles=50,
    measure_cycles=200, seed=3,
)

TINY_BATCH = PinnedPoint(
    id="tiny-batch", topology="mesh:4x4", algorithm="west-first",
    pattern="uniform", offered_load=1.0, seed=100, batch_size=6,
    backend="array", warmup_cycles=50, measure_cycles=200,
    buffer_depth=2, event_sample=3,
)

HOST_DEPENDENT_KEYS = (
    "wall_s", "cycles_per_s", "flit_hops_per_s", "points_per_s", "speedup",
    "baseline", "generated_at", "platform", "python", "label",
)


def _committed(*pins):
    return {"points": {pin.point.id: pin.to_dict() for pin in pins}}


class TestPoints:
    def test_canonical_ids_are_unique(self):
        ids = [p.id for p in bench_points(backend="both")]
        assert len(ids) == len(set(ids))

    def test_quick_subset_is_nonempty_and_proper(self):
        solo = [p for p in CANONICAL_POINTS if p.backend == "event"]
        quick = bench_points(quick=True)
        assert 0 < len(quick) < len(solo)
        assert all(p.quick for p in quick)
        assert bench_points() == solo

    def test_fault_point_config_arms_the_fault_machinery(self):
        point = next(p for p in bench_points() if p.fault_links)
        config = point.config()
        assert not config.fault_plan.is_empty
        assert config.packet_timeout > 0
        assert config.max_retries > 0

    def test_observability_point_switches_collectors_on(self):
        point = next(p for p in bench_points() if p.observability)
        config = point.config()
        assert config.collect_latency_histogram
        assert config.channel_series_period > 0

    def test_array_backend_relabels_points(self):
        twins = [p for p in bench_points(backend="array") if p.batch_size == 1]
        assert [p.id for p in twins] == [f"{p.id}@array" for p in bench_points()]
        assert all(p.config().backend == "array" for p in twins)
        assert all(p.spec_dict()["backend"] == "array" for p in twins)
        assert all(p.event_sample == 1 for p in twins)

    def test_batch_points_quick_subset(self):
        batches = [p for p in bench_points(backend="array") if p.batch_size > 1]
        quick = [
            p for p in bench_points(quick=True, backend="array")
            if p.batch_size > 1
        ]
        assert 0 < len(quick) < len(batches)
        assert all(p.quick for p in quick)
        assert all(0 < p.event_sample <= p.batch_size for p in batches)
        assert sorted(
            p.id for p in bench_points(backend="both")
        ) == sorted(p.id for p in bench_points() + bench_points(backend="array"))

    def test_batch_point_builds_seed_swept_configs(self):
        built = TINY_BATCH.build()
        assert len(built) == TINY_BATCH.batch_size
        assert [config.seed for _, _, config in built] == [
            TINY_BATCH.seed + i for i in range(TINY_BATCH.batch_size)
        ]
        assert all(c.backend == "array" for _, _, c in built)
        assert all(
            c.buffer_depth == TINY_BATCH.buffer_depth for _, _, c in built
        )

    def test_spec_is_derived_from_the_fields(self):
        assert TINY.spec_dict() == {
            "topology": "mesh:4x4", "algorithm": "west-first",
            "pattern": "uniform", "offered_load": 1.0, "warmup_cycles": 50,
            "measure_cycles": 200, "seed": 3,
        }
        spec = TINY_BATCH.spec_dict()
        assert spec["batch_size"] == 6 and spec["buffer_depth"] == 2
        assert "id" not in spec and "quick" not in spec
        assert replace(TINY, quick=True).spec_dict() == TINY.spec_dict()


class TestMeasurement:
    def test_run_point_measures_and_fingerprints(self):
        pin = run_point(TINY)
        assert len(pin.fingerprint) == len(FINGERPRINT_FIELDS)
        assert pin.fingerprint[0] > 0  # generated packets
        assert pin.worm_steps > 0 and pin.bulk_flit_hops > 0
        entry = pin.to_dict()
        assert entry["worm_steps"] == pin.worm_steps
        assert entry["bulk_flit_hops"] == pin.bulk_flit_hops
        assert entry["quiet_cycles"] == pin.quiet_cycles
        assert entry["spec"] == TINY.spec_dict()

    def test_repeats_keep_the_same_fingerprint(self):
        assert run_point(TINY).to_dict() == run_point(TINY).to_dict()

    def test_a_solo_point_is_a_batch_of_one(self):
        """An event batch pins the sum of its members' solo pins."""
        solos = [run_point(replace(TINY, seed=3 + i)) for i in range(3)]
        batch = run_point(replace(TINY, batch_size=3))
        assert batch.fingerprint == tuple(
            sum(column) for column in zip(*(p.fingerprint for p in solos))
        )
        assert batch.worm_steps == sum(p.worm_steps for p in solos)
        assert batch.quiet_cycles == sum(p.quiet_cycles for p in solos)

    def test_report_round_trip(self, tmp_path):
        pin = run_point(TINY)
        path = tmp_path / "ledger.json"
        write_report([pin], str(path))
        ledger = load_report(str(path))
        assert ledger["points"] == {"tiny": pin.to_dict()}
        assert compare_reports([pin], ledger, canonical_ids={"tiny"}) == []

    def test_load_report_rejects_non_reports(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError):
            load_report(str(path))
        # A schema-2 throughput report is not a pin ledger either.
        path.write_text(json.dumps({"schema": 2, "points": {}}))
        with pytest.raises(ValueError, match="re-record"):
            load_report(str(path))

    @needs_numpy
    def test_run_batch_point_measures_both_backends(self):
        pin = run_point(TINY_BATCH)
        assert pin.bit_identical
        assert pin.worm_steps is None
        # Batch-summed, and equal to the event engine's sum.
        event = run_point(replace(TINY_BATCH, backend="event"))
        assert pin.fingerprint == event.fingerprint
        assert pin.fingerprint[0] > 0
        entry = pin.to_dict()
        assert set(entry) == {"spec", "fingerprint"}
        assert entry["spec"]["batch_size"] == TINY_BATCH.batch_size

    @needs_numpy
    def test_batch_points_flow_through_run_bench(self, tmp_path):
        path = tmp_path / "ledger.json"
        write_report([run_point(TINY), run_point(TINY_BATCH)], str(path))
        assert set(load_report(str(path))["points"]) == {"tiny", "tiny-batch"}


class TestRegressionGate:
    def test_clean_pass(self):
        pin = run_point(TINY)
        assert compare_reports([pin], _committed(pin)) == []
        assert compare_reports([pin]) == []  # nothing to compare against

    def test_fingerprint_change_is_fatal(self):
        pin = run_point(TINY)
        committed = _committed(pin)
        committed["points"]["tiny"]["fingerprint"][0] += 1
        problems = compare_reports([pin], committed)
        assert len(problems) == 1
        assert "tiny: fingerprint changed" in problems[0]

    @pytest.mark.parametrize(
        "counter", ["worm_steps", "bulk_flit_hops", "quiet_cycles"]
    )
    def test_work_counter_change_is_fatal(self, counter):
        pin = run_point(TINY)
        committed = _committed(pin)
        committed["points"]["tiny"][counter] += 1
        problems = compare_reports([pin], committed)
        assert len(problems) == 1
        assert f"tiny: {counter} changed" in problems[0]
        # A committed entry that lost its counters does not pass either.
        del committed["points"]["tiny"][counter]
        assert compare_reports([pin], committed) != []

    def test_missing_and_orphaned_pins_are_reported(self):
        pin = run_point(TINY)
        # Run but not committed: the point would be un-pinned.
        problems = compare_reports([pin], {"points": {}})
        assert problems == ["tiny: not in the committed ledger"]
        # Committed but produced by no canonical point any more.
        committed = _committed(pin)
        committed["points"]["renamed-away"] = pin.to_dict()
        assert compare_reports([pin], committed, canonical_ids={"tiny"}) == [
            "renamed-away: committed, but no canonical point produces it"
        ]
        # A subset run (--quick) does not orphan the ids it skipped.
        assert compare_reports(
            [pin], committed, canonical_ids={"tiny", "renamed-away"}
        ) == []

    @needs_numpy
    def test_batch_point_gate(self):
        pin = run_point(TINY_BATCH)
        assert compare_reports([pin], _committed(pin)) == []
        committed = _committed(pin)
        committed["points"]["tiny-batch"]["fingerprint"][0] += 1
        problems = compare_reports([pin], committed)
        assert any("fingerprint" in p for p in problems)
        # A cross-backend mismatch is fatal even with no history.
        pin.bit_identical = False
        assert any("bit-for-bit" in p for p in compare_reports([pin]))
        assert any(
            "bit-for-bit" in p for p in compare_reports([pin], _committed(pin))
        )


class TestCommittedTrajectory:
    """BENCH_engine.json is the committed pin: a fresh run of the quick
    points must equal it entry for entry, in both directions."""

    def _check(self, backend):
        points = bench_points(quick=True, backend=backend)
        assert points
        return compare_reports(
            [run_point(p) for p in points], load_report(str(LEDGER)),
            canonical_ids={p.id for p in bench_points(backend="both")},
        )

    def test_bench_engine_json_fingerprints_still_hold(self):
        assert self._check("event") == []

    @needs_numpy
    def test_bench_engine_json_array_fingerprints_still_hold(self):
        """The quick ``@array`` twins and the quick batched sweeps."""
        assert self._check("array") == []

    def test_every_canonical_id_is_committed(self):
        committed = load_report(str(LEDGER))["points"]
        assert sorted(committed) == sorted(
            p.id for p in bench_points(backend="both")
        )

    def test_ledger_holds_nothing_host_dependent(self, tmp_path):
        """Two runs serialize to identical bytes, and neither they nor
        the committed file carry a timing or a host description."""
        points = bench_points(quick=True)
        if numpy_available():
            points = bench_points(quick=True, backend="both")
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            write_report([run_point(p) for p in points], str(path))
        assert paths[0].read_bytes() == paths[1].read_bytes()
        for text in (paths[0].read_text(), LEDGER.read_text()):
            for key in HOST_DEPENDENT_KEYS:
                assert f'"{key}"' not in text
