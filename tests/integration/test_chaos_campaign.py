"""Chaos campaigns: the supervision layer under deliberate sabotage.

A chaos campaign wraps real operating points in
:class:`~repro.analysis.chaos.ChaosPointSpec`, whose worker-side
execution deterministically crashes, hangs, or raises on a seeded
fraction of points.  These tests pin the resilience guarantees the CI
``chaos`` job enforces (docs/RESILIENCE.md):

* every healthy point of a chaotic ``keep_going`` campaign is
  bit-identical to a clean serial run of the underlying specs;
* every unhealthy point lands in the failure manifest with the cause
  its injected misbehaviour predicts;
* a campaign SIGKILLed mid-flight and resumed from its journal
  re-executes exactly the not-yet-journaled complement.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.analysis import (
    CampaignJournal,
    ParallelSweepRunner,
    PointSpec,
    ResultCache,
    chaos_batch,
)
from repro.simulation import SimulationConfig

TINY = SimulationConfig(warmup_cycles=50, measure_cycles=200, seed=5)


def campaign_specs(n_points: int):
    """``n_points`` real (tiny) operating points across the four mesh
    algorithms and a ladder of offered loads."""
    algorithms = ("xy", "west-first", "north-last", "negative-first")
    loads = [0.2 + 0.05 * i for i in range((n_points + 3) // 4)]
    specs = [
        PointSpec("mesh:4x4", algorithm, "uniform", TINY.with_load(load))
        for load in loads
        for algorithm in algorithms
    ]
    return specs[:n_points]


@pytest.mark.slow
@pytest.mark.chaos
class TestChaosCampaign:
    def test_200_point_campaign_survives_10pct_chaos(self, tmp_path):
        """The acceptance campaign: >=200 points, ~10% injected
        failures, keep_going — healthy results bit-identical to a clean
        serial run, every casualty diagnosed in the manifest."""
        specs = chaos_batch(
            campaign_specs(200),
            chaos_seed=42,
            failure_rate=0.1,
            fail_attempts=10 ** 9,  # permanently sick: no retry escape
        )
        expected_modes = [spec.chaos_mode() for spec in specs]
        assert any(expected_modes), "chaos seed injected no failures"

        runner = ParallelSweepRunner(
            jobs=4,
            cache=None,
            keep_going=True,
            point_timeout=2.0,
        )
        report = runner.run_batch(specs)

        # Every unhealthy point is in the manifest with the right cause
        # (an injected hang surfaces as the supervisor's timeout kill).
        cause_of = {"crash": "crash", "hang": "timeout",
                    "exception": "exception"}
        expected_failures = {
            i: cause_of[mode]
            for i, mode in enumerate(expected_modes)
            if mode is not None
        }
        assert {f.index: f.cause for f in report.failures} == (
            expected_failures
        )
        assert len(expected_failures) >= 10  # ~10% of 200

        # Every healthy point is bit-identical to a clean serial run.
        for i, spec in enumerate(specs):
            if expected_modes[i] is None:
                assert report.results[i] == spec.clean().execute()
            else:
                assert report.results[i] is None

        # CI uploads the manifest as a build artifact.
        manifest_dir = os.environ.get("CHAOS_MANIFEST_DIR")
        if manifest_dir:
            manifest = os.path.join(manifest_dir, "chaos_manifest.jsonl")
            os.makedirs(manifest_dir, exist_ok=True)
            with open(manifest, "w", encoding="utf-8") as fh:
                fh.write("\n".join(report.manifest_lines()) + "\n")

    def test_retries_cure_transient_chaos(self):
        """fail_attempts=1 makes every chaotic point healthy on its
        second attempt, so with a retry budget the campaign completes
        with zero permanent failures — and still bit-identically."""
        specs = chaos_batch(
            campaign_specs(40),
            chaos_seed=7,
            failure_rate=0.2,
            fail_attempts=1,
        )
        modes = [spec.chaos_mode() for spec in specs]
        assert any(modes), "chaos seed injected no failures"
        runner = ParallelSweepRunner(
            jobs=4,
            cache=None,
            keep_going=True,
            point_timeout=2.0,
            max_point_retries=1,
            retry_backoff_base=0.01,
        )
        report = runner.run_batch(specs)
        assert report.ok
        assert runner.stats.retried == sum(1 for m in modes if m)
        for spec, result in zip(specs, report.results):
            assert result == spec.clean().execute()

    def test_workers_forked_from_a_warm_parent_stay_identical(self, tmp_path):
        """The parent simulates the campaign inline first, so the
        workers it then forks inherit its warm shared routing tables —
        and a SIGKILLed (hung) or crashed worker's replacement, forked
        later still, must produce the very same points."""
        specs = campaign_specs(24)
        serial = ParallelSweepRunner(jobs=1, cache=None).run_points(specs)
        chaotic = chaos_batch(
            specs, chaos_seed=9, failure_rate=0.3, fail_attempts=1
        )
        modes = {spec.chaos_mode() for spec in chaotic}
        assert {"hang", "crash"} <= modes, "seed must kill some workers"
        runner = ParallelSweepRunner(
            jobs=2,
            cache=ResultCache(tmp_path / "cache"),
            journal=CampaignJournal(tmp_path / "campaign.jsonl"),
            keep_going=True,
            point_timeout=2.0,
            max_point_retries=1,
            retry_backoff_base=0.01,
        )
        report = runner.run_batch(chaotic)
        assert report.ok
        assert runner.stats.retried >= 2
        assert report.results == serial

    def test_sigkilled_campaign_resumes_from_the_journal(self, tmp_path):
        """SIGKILL a journaled campaign mid-flight; resuming re-executes
        exactly the complement of what the journal recorded."""
        specs = campaign_specs(40)
        cache_dir = tmp_path / "cache"
        journal_path = tmp_path / "campaign.jsonl"
        script = textwrap.dedent(
            """
            import sys
            from repro.analysis import ParallelSweepRunner, ResultCache
            sys.path.insert(0, sys.argv[1])
            import test_chaos_campaign as camp

            runner = ParallelSweepRunner(
                jobs=2,
                cache=ResultCache(sys.argv[2]),
                journal=sys.argv[3],
            )
            runner.run_points(camp.campaign_specs(40))
            runner.close()
            print("COMPLETED", flush=True)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (
                str(
                    os.path.join(
                        os.path.dirname(os.path.dirname(
                            os.path.dirname(os.path.abspath(__file__))
                        )),
                        "src",
                    )
                ),
                env.get("PYTHONPATH", ""),
            ) if p
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-c", script,
                os.path.dirname(os.path.abspath(__file__)),
                str(cache_dir), str(journal_path),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        # Kill -9 once a few points are durably journaled (but well
        # before all 40 could plausibly finish being written).
        deadline = time.monotonic() + 60
        journaled = 0
        while time.monotonic() < deadline:
            if journal_path.exists():
                journaled = sum(
                    1 for r in CampaignJournal.read(journal_path)
                    if r.get("kind") == "point"
                )
                if journaled >= 4:
                    break
            if proc.poll() is not None:
                break
            time.sleep(0.02)
        if proc.poll() is None:
            os.kill(proc.pid, signal.SIGKILL)
        out, err = proc.communicate(timeout=60)
        completed = b"COMPLETED" in out

        journaled_keys = {
            r["key"] for r in CampaignJournal.read(journal_path)
            if r.get("kind") == "point"
        }
        assert journaled_keys, (completed, err.decode()[-500:])
        all_keys = {spec.cache_key() for spec in specs}
        assert journaled_keys <= all_keys

        # force=True makes the accounting exact: a point the SIGKILL
        # caught between cache.put and the journal fsync is cached but
        # not journaled, and would otherwise surface as an ordinary
        # cache hit. Under force, only journaled points may be served
        # from the cache, so executed/cached counts are deterministic.
        resumed = ParallelSweepRunner(
            jobs=2,
            cache=ResultCache(cache_dir),
            force=True,
            journal=journal_path,
            resume=True,
        )
        results = resumed.run_points(specs)
        resumed.close()

        # Exactly the complement was re-executed; journaled points were
        # served from the cache the first run populated.
        assert resumed.stats.executed == len(all_keys - journaled_keys)
        assert resumed.stats.cached == len(journaled_keys)
        assert all(r is not None for r in results)
        for spec, result in zip(specs[:4], results[:4]):
            assert result == spec.execute()
        final = {
            r["key"] for r in CampaignJournal.read(journal_path)
            if r.get("kind") == "point"
        }
        assert final == all_keys


@pytest.mark.chaos
class TestChaosDeterminism:
    """Fast chaos checks that run in the default (non-slow) suite."""

    def test_chaos_mode_is_a_pure_function_of_the_seed(self):
        specs = chaos_batch(campaign_specs(60), chaos_seed=3)
        assert [s.chaos_mode() for s in specs] == [
            s.chaos_mode() for s in specs
        ]
        reseeded = chaos_batch(campaign_specs(60), chaos_seed=4)
        assert [s.chaos_mode() for s in specs] != [
            s.chaos_mode() for s in reseeded
        ]

    def test_chaos_knobs_enter_the_cache_key(self):
        plain = campaign_specs(1)[0]
        chaotic = chaos_batch([plain], chaos_seed=1)[0]
        other = chaos_batch([plain], chaos_seed=2)[0]
        keys = {plain.cache_key(), chaotic.cache_key(), other.cache_key()}
        assert len(keys) == 3

    def test_manifest_lines_are_json(self):
        specs = chaos_batch(
            campaign_specs(20),
            chaos_seed=11,
            failure_rate=0.5,
            fail_attempts=10 ** 9,
        )
        exceptional = [
            s for s in specs if s.chaos_mode() == "exception"
        ]
        assert exceptional, "seed 11 should inject at least one raise"
        runner = ParallelSweepRunner(jobs=2, cache=None, keep_going=True)
        report = runner.run_batch(exceptional[:2])
        assert not report.ok
        for line in report.manifest_lines():
            record = json.loads(line)
            assert record["cause"] == "exception"
            assert "ChaosError" in record["traceback"]
