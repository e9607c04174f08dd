"""Tests for the supervised pool, campaign journal, and failure records.

The toy specs here script their own misbehaviour per attempt, so every
supervision path — crash detection, hang kill, exception capture, retry
recovery, fail-fast abort, keep-going manifests — is exercised cheaply
and deterministically, without real simulations.
"""

import json
import os
import pickle
import time
from dataclasses import dataclass, field

import pytest

from repro.analysis import (
    BatchReport,
    CampaignJournal,
    ParallelSweepRunner,
    PointExecutionError,
    PointFailure,
    ResultCache,
    SupervisedPool,
)
from repro.analysis.supervision import JOURNAL_SCHEMA


@dataclass(frozen=True)
class ScriptSpec:
    """A spec whose attempts follow a script.

    ``script[a - 1]`` is attempt ``a``'s behaviour — ``"ok"``,
    ``"crash"`` (``os._exit``), ``"hang"`` (sleep far past any test
    timeout), or ``"raise"``; attempts beyond the script succeed.
    """

    value: int
    script: tuple = ()

    def behavior(self, attempt: int) -> str:
        if 1 <= attempt <= len(self.script):
            return self.script[attempt - 1]
        return "ok"

    def execute_attempt(self, attempt: int):
        behavior = self.behavior(attempt)
        if behavior == "crash":
            os._exit(7)
        if behavior == "hang":
            time.sleep(300)
        if behavior == "raise":
            raise RuntimeError(f"scripted failure #{self.value}")
        return ("result", self.value, attempt)

    def execute(self):
        return self.execute_attempt(1)

    def to_dict(self):
        return {"value": self.value, "script": list(self.script)}

    def cache_key(self) -> str:
        return f"script-{self.value}-{'-'.join(self.script) or 'ok'}"


def run_pool(specs, pool=None, keep_going=False, **pool_kwargs):
    """Run ScriptSpecs through a SupervisedPool, collecting outcomes."""
    if pool is None:
        pool = SupervisedPool(workers=2, **pool_kwargs)
    results = {}
    retries = []

    def on_point(index, result, attempts, duration):
        results[index] = (result, attempts, duration)

    failures = pool.run(
        list(enumerate(specs)),
        keep_going=keep_going,
        on_point=on_point,
        on_retry=lambda i, cause, attempt: retries.append((i, cause, attempt)),
    )
    return results, failures, retries


class TestSupervisedPool:
    def test_all_ok_batch_completes(self):
        specs = [ScriptSpec(i) for i in range(5)]
        results, failures, retries = run_pool(specs)
        assert failures == [] and retries == []
        assert {i: r[0] for i, r in results.items()} == {
            i: ("result", i, 1) for i in range(5)
        }

    def test_crash_is_detected_and_retried(self):
        specs = [ScriptSpec(0), ScriptSpec(1, ("crash",)), ScriptSpec(2)]
        results, failures, retries = run_pool(
            specs, max_retries=1, retry_backoff_base=0.01
        )
        assert failures == []
        assert retries == [(1, "crash", 1)]
        result, attempts, _ = results[1]
        assert result == ("result", 1, 2) and attempts == 2

    def test_exception_failure_carries_traceback(self):
        specs = [ScriptSpec(0, ("raise",))]
        _, failures, _ = run_pool(specs, keep_going=True)
        (failure,) = failures
        assert failure.cause == "exception"
        assert failure.attempts == 1
        assert "scripted failure #0" in failure.message
        assert "RuntimeError" in failure.traceback

    def test_hung_worker_is_killed_as_timeout(self):
        specs = [ScriptSpec(0), ScriptSpec(1, ("hang",))]
        started = time.monotonic()
        results, failures, _ = run_pool(
            specs, keep_going=True, point_timeout=1.0
        )
        assert time.monotonic() - started < 60
        assert 0 in results
        (failure,) = failures
        assert failure.index == 1 and failure.cause == "timeout"
        assert "wall-clock" in failure.message

    def test_fail_fast_raises_point_execution_error(self):
        specs = [ScriptSpec(0), ScriptSpec(1, ("crash",)), ScriptSpec(2)]
        with pytest.raises(PointExecutionError) as excinfo:
            run_pool(specs)
        assert excinfo.value.failure.cause == "crash"
        assert excinfo.value.failure.index == 1

    def test_keep_going_runs_everything_and_sorts_failures(self):
        specs = [
            ScriptSpec(0, ("raise", "raise")),
            ScriptSpec(1),
            ScriptSpec(2, ("crash", "crash")),
            ScriptSpec(3),
        ]
        results, failures, _ = run_pool(
            specs, keep_going=True, max_retries=1, retry_backoff_base=0.01
        )
        assert sorted(results) == [1, 3]
        assert [f.index for f in failures] == [0, 2]
        assert [f.cause for f in failures] == ["exception", "crash"]
        assert all(f.attempts == 2 for f in failures)

    def test_recovery_after_mixed_failure_script(self):
        # crash, then raise, then succeed: two retries needed.
        specs = [ScriptSpec(0, ("crash", "raise"))]
        results, failures, retries = run_pool(
            specs, max_retries=2, retry_backoff_base=0.01
        )
        assert failures == []
        assert [cause for _, cause, _ in retries] == ["crash", "exception"]
        assert results[0][0] == ("result", 0, 3)

    def test_backoff_is_bounded_exponential(self):
        pool = SupervisedPool(
            workers=1, retry_backoff_base=0.5, retry_backoff_cap=4.0
        )
        assert [pool.backoff(a) for a in (2, 3, 4, 5, 6)] == [
            0.5,
            1.0,
            2.0,
            4.0,
            4.0,
        ]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SupervisedPool(workers=0)
        with pytest.raises(ValueError):
            SupervisedPool(workers=1, point_timeout=0)
        with pytest.raises(ValueError):
            SupervisedPool(workers=1, max_retries=-1)
        with pytest.raises(ValueError):
            SupervisedPool(workers=1, retry_backoff_base=0)

    def test_results_do_not_depend_on_worker_count(self):
        specs = [ScriptSpec(i) for i in range(8)]
        single, _, _ = run_pool(specs, pool=SupervisedPool(workers=1))
        many, _, _ = run_pool(specs, pool=SupervisedPool(workers=4))
        assert {i: r[0] for i, r in single.items()} == {
            i: r[0] for i, r in many.items()
        }


class TestPointFailure:
    def test_describe_and_to_dict(self):
        failure = PointFailure(
            index=3,
            spec=ScriptSpec(3, ("raise",)),
            cause="exception",
            attempts=2,
            duration=0.5,
            message="RuntimeError: boom",
            traceback="Traceback ...",
        )
        text = failure.describe()
        assert "point #3" in text and "exception" in text
        assert "2 attempt(s)" in text
        payload = failure.to_dict()
        assert payload["spec"] == {"value": 3, "script": ["raise"]}
        assert payload["cause"] == "exception"
        json.dumps(payload)  # JSONL-serializable as-is

    def test_point_execution_error_carries_failure(self):
        failure = PointFailure(
            index=0, spec=None, cause="crash", attempts=1, duration=0.0,
            message="worker exited with code 7 mid-point",
        )
        error = PointExecutionError(failure)
        assert error.failure is failure
        assert "crash" in str(error)


class TestBatchReport:
    def test_complete_report(self):
        report = BatchReport(results=[1, 2, 3])
        assert report.ok and report.completed == 3
        assert report.require_complete() == [1, 2, 3]
        assert report.manifest_lines() == []

    def test_failed_report(self):
        failure = PointFailure(
            index=1, spec=ScriptSpec(1), cause="timeout", attempts=3,
            duration=2.0, message="limit",
        )
        report = BatchReport(results=[1, None, 3], failures=[failure])
        assert not report.ok and report.completed == 2
        with pytest.raises(PointExecutionError):
            report.require_complete()
        (line,) = report.manifest_lines()
        assert json.loads(line)["cause"] == "timeout"


class TestCampaignJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            journal.record_point("aa", attempts=1, duration=0.5)
            journal.record_point("bb", attempts=2, duration=1.0, cached=True)
        records = list(CampaignJournal.read(path))
        assert records[0]["kind"] == "campaign"
        assert records[0]["schema"] == JOURNAL_SCHEMA
        assert [r["key"] for r in records[1:]] == ["aa", "bb"]

        resumed = CampaignJournal(path, resume=True)
        assert resumed.done("aa") and resumed.done("bb")
        assert not resumed.done("cc")
        assert len(resumed) == 2 and resumed.done_keys == {"aa", "bb"}
        resumed.close()

    def test_record_point_is_idempotent(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            journal.record_point("aa")
            journal.record_point("aa")
        point_lines = [
            r for r in CampaignJournal.read(path) if r["kind"] == "point"
        ]
        assert len(point_lines) == 1

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            journal.record_point("aa")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "point", "key": "tr')  # SIGKILL mid-write
        journal = CampaignJournal(path, resume=True)
        assert journal.done("aa")
        assert not journal.done("tr")
        assert journal.torn_lines == 1
        # Appending after a torn line still yields parseable records.
        journal.record_point("bb")
        journal.close()
        resumed = CampaignJournal(path, resume=True)
        assert resumed.done_keys == {"aa", "bb"}
        resumed.close()

    def test_non_object_lines_are_skipped_like_torn_ones(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            journal.record_point("aa")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('null\n[1,2]\n5\n"point"\n{"kind": "point", "key": "bb"}\n')
        journal = CampaignJournal(path, resume=True)
        assert journal.done_keys == {"aa", "bb"}
        assert journal.torn_lines == 4
        journal.close()
        records = list(CampaignJournal.read(path))
        assert [r["kind"] for r in records] == ["campaign", "point", "point"]

    def test_without_resume_truncates(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CampaignJournal(path) as journal:
            journal.record_point("aa")
        with CampaignJournal(path, resume=False) as journal:
            assert not journal.done("aa")
        keys = [
            r["key"] for r in CampaignJournal.read(path)
            if r["kind"] == "point"
        ]
        assert keys == []

    def test_records_failures(self, tmp_path):
        path = tmp_path / "j.jsonl"
        failure = PointFailure(
            index=0, spec=ScriptSpec(0), cause="crash", attempts=1,
            duration=0.1, message="gone",
        )
        with CampaignJournal(path) as journal:
            journal.record_failure(failure)
        (record,) = [
            r for r in CampaignJournal.read(path) if r["kind"] == "failure"
        ]
        assert record["cause"] == "crash" and record["index"] == 0

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "j.jsonl"
        with CampaignJournal(path) as journal:
            journal.record_point("aa")
        assert path.exists()


class TestRunnerSupervision:
    """ParallelSweepRunner routing batches through the supervised pool.

    ScriptSpec quacks enough like a PointSpec (``execute``, ``to_dict``,
    ``cache_key``) to drive every supervision path without simulating.
    """

    def test_keep_going_leaves_holes_and_manifest(self):
        runner = ParallelSweepRunner(jobs=2, cache=None, keep_going=True)
        specs = [
            ScriptSpec(0),
            ScriptSpec(1, ("crash",)),
            ScriptSpec(2),
            ScriptSpec(3, ("raise",)),
        ]
        report = runner.run_batch(specs)
        assert report.results[0] == ("result", 0, 1)
        assert report.results[1] is None
        assert report.results[2] == ("result", 2, 1)
        assert report.results[3] is None
        assert [f.index for f in report.failures] == [1, 3]
        assert [f.cause for f in report.failures] == ["crash", "exception"]
        assert runner.stats.failed == 2
        # runner.failures accumulates in completion order (crash
        # detection can lag a fast exception); the report is index-sorted.
        assert sorted(
            runner.failures, key=lambda f: f.index
        ) == report.failures

    def test_fail_fast_raises_through_runner(self):
        runner = ParallelSweepRunner(jobs=2, cache=None, max_point_retries=0)
        with pytest.raises(PointExecutionError):
            runner.run_points([ScriptSpec(0), ScriptSpec(1, ("raise",))])
        assert runner.stats.failed == 1
        # Wall-clock accounting committed despite the abort.
        assert runner.stats.wall_seconds > 0

    def test_retry_recovers_and_is_counted(self):
        runner = ParallelSweepRunner(
            jobs=2,
            cache=None,
            max_point_retries=2,
            retry_backoff_base=0.01,
        )
        results = runner.run_points(
            [ScriptSpec(0, ("crash",)), ScriptSpec(1, ("raise", "raise"))]
        )
        assert results == [("result", 0, 2), ("result", 1, 3)]
        assert runner.stats.retried == 3
        assert runner.stats.failed == 0
        assert "retried" in runner.stats.summary()

    def test_journal_checkpoints_and_resume_skips(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        journal_path = tmp_path / "campaign.jsonl"
        specs = [ScriptSpec(i) for i in range(4)]

        first = ParallelSweepRunner(
            jobs=2, cache=cache, journal=journal_path
        )
        results = first.run_points(specs)
        first.close()
        assert first.stats.executed == 4
        done = {
            r["key"] for r in CampaignJournal.read(journal_path)
            if r["kind"] == "point"
        }
        assert done == {spec.cache_key() for spec in specs}

        # Resume (even with force=True) re-executes nothing.
        second = ParallelSweepRunner(
            jobs=2,
            cache=ResultCache(tmp_path / "cache"),
            force=True,
            journal=journal_path,
            resume=True,
        )
        resumed = second.run_points(specs)
        second.close()
        assert second.stats.executed == 0
        assert second.stats.cached == 4
        assert resumed == results

    def test_resume_executes_only_the_complement(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        journal_path = tmp_path / "campaign.jsonl"
        specs = [ScriptSpec(i) for i in range(6)]

        first = ParallelSweepRunner(
            jobs=2, cache=cache, journal=journal_path
        )
        first.run_points(specs[:2])  # the campaign dies after 2 points
        first.close()

        second = ParallelSweepRunner(
            jobs=2,
            cache=ResultCache(tmp_path / "cache"),
            journal=journal_path,
            resume=True,
        )
        results = second.run_points(specs)
        second.close()
        assert second.stats.executed == 4
        assert second.stats.cached == 2
        assert results == [("result", i, 1) for i in range(6)]

    def test_resume_requires_journal_and_cache(self, tmp_path):
        with pytest.raises(ValueError):
            ParallelSweepRunner(jobs=1, resume=True)
        with pytest.raises(ValueError):
            ParallelSweepRunner(
                jobs=1,
                cache=None,
                journal=tmp_path / "j.jsonl",
                resume=True,
            )
        # Neither error may leave a journal file behind.
        assert not (tmp_path / "j.jsonl").exists()

    def test_unsupervised_default_stays_inline(self):
        """No supervision knob -> jobs=1 batches never fork workers."""
        runner = ParallelSweepRunner(jobs=1, cache=None)
        assert not runner.supervised
        pid_spec = PidSpec()
        (result,) = runner.run_points([pid_spec])
        assert result == os.getpid()

    def test_supervision_forces_worker_even_for_jobs_1(self):
        runner = ParallelSweepRunner(jobs=1, cache=None, keep_going=True)
        assert runner.supervised
        (result,) = runner.run_points([PidSpec()])
        assert result != os.getpid()

    def test_progress_callback_raising_never_loses_the_point(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = ParallelSweepRunner(jobs=1, cache=cache)
        spec = ScriptSpec(0)
        with pytest.raises(RuntimeError):
            runner.run_points(
                [spec], progress=lambda r: (_ for _ in ()).throw(
                    RuntimeError("observer broke")
                )
            )
        # The completed point was counted and cached before the callback.
        assert runner.stats.executed == 1
        assert runner.stats.wall_seconds > 0
        assert cache.get(spec) == ("result", 0, 1)


@dataclass(frozen=True)
class PidSpec:
    """Reports which process executed it."""

    marker: int = 0
    extra: tuple = field(default_factory=tuple)

    def execute(self):
        return os.getpid()

    def to_dict(self):
        return {"marker": self.marker}

    def cache_key(self) -> str:
        return f"pid-{self.marker}"


class TestScriptSpecPlumbing:
    def test_script_spec_pickles(self):
        spec = ScriptSpec(3, ("crash", "raise"))
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_behavior_past_script_is_ok(self):
        spec = ScriptSpec(0, ("crash",))
        assert spec.behavior(1) == "crash"
        assert spec.behavior(2) == "ok"
