"""Property-based tests for the supervised pool's batch guarantees.

Over arbitrary per-point misbehaviour scripts and retry budgets, a
``keep_going`` batch must account for every spec exactly once — either a
spec-ordered result or a manifest entry with the cause the script
predicts — and journal-resume over any completed prefix must re-execute
exactly the complement — also when the journal was cut at any byte or
had garbage or non-object lines inserted.
"""

import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    CampaignJournal,
    ParallelSweepRunner,
    ResultCache,
    SupervisedPool,
)


@dataclass(frozen=True)
class ScriptSpec:
    """Attempt ``a`` follows ``script[a - 1]``; later attempts succeed."""

    value: int
    script: tuple = ()

    def behavior(self, attempt: int) -> str:
        if 1 <= attempt <= len(self.script):
            return self.script[attempt - 1]
        return "ok"

    def execute_attempt(self, attempt: int):
        behavior = self.behavior(attempt)
        if behavior == "crash":
            os._exit(9)
        if behavior == "hang":
            time.sleep(300)
        if behavior == "raise":
            raise ValueError(f"scripted #{self.value}")
        return ("result", self.value)

    def execute(self):
        return self.execute_attempt(1)

    def to_dict(self):
        return {"value": self.value, "script": list(self.script)}

    def cache_key(self) -> str:
        return f"prop-{self.value}-{'.'.join(self.script) or 'ok'}"


CAUSE_OF = {"crash": "crash", "raise": "exception", "hang": "timeout"}

# "hang" is deliberately rare (and the scripts short): each hang costs a
# point_timeout kill, so a pathological draw stays inside the example
# budget.
scripts = st.lists(
    st.sampled_from(["crash", "raise", "ok", "ok", "hang"]),
    min_size=0,
    max_size=2,
).map(tuple)


def predict(spec: ScriptSpec, max_retries: int):
    """(outcome, detail): what the supervisor must conclude."""
    for attempt in range(1, max_retries + 2):
        if spec.behavior(attempt) == "ok":
            return "ok", attempt
    return "failed", CAUSE_OF[spec.behavior(max_retries + 1)]


class TestBatchAccounting:
    @settings(max_examples=10, deadline=None)
    @given(
        scripts_list=st.lists(scripts, min_size=1, max_size=5),
        max_retries=st.integers(0, 2),
        workers=st.integers(1, 3),
    )
    def test_every_spec_is_accounted_exactly_once(
        self, scripts_list, max_retries, workers
    ):
        specs = [
            ScriptSpec(i, script) for i, script in enumerate(scripts_list)
        ]
        pool = SupervisedPool(
            workers=workers,
            point_timeout=1.0,
            max_retries=max_retries,
            retry_backoff_base=0.01,
        )
        results = {}
        failures = pool.run(
            list(enumerate(specs)),
            keep_going=True,
            on_point=lambda i, r, attempts, d: results.__setitem__(
                i, (r, attempts)
            ),
        )

        # Results ∪ failures partition the batch: every index exactly
        # once, never both, never neither.
        failed_indices = [f.index for f in failures]
        assert set(results) | set(failed_indices) == set(range(len(specs)))
        assert not (set(results) & set(failed_indices))
        assert failed_indices == sorted(failed_indices)

        for i, spec in enumerate(specs):
            outcome, detail = predict(spec, max_retries)
            if outcome == "ok":
                result, attempts = results[i]
                assert result == ("result", i)
                assert attempts == detail
            else:
                (failure,) = [f for f in failures if f.index == i]
                assert failure.cause == detail
                assert failure.attempts == max_retries + 1


class TestJournalResume:
    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(1, 6),
        data=st.data(),
    )
    def test_resume_executes_exactly_the_complement(self, n, data):
        prefix = data.draw(st.integers(0, n))
        specs = [ScriptSpec(i) for i in range(n)]
        with tempfile.TemporaryDirectory() as tmp:
            cache_dir = os.path.join(tmp, "cache")
            journal_path = os.path.join(tmp, "journal.jsonl")

            first = ParallelSweepRunner(
                jobs=2,
                cache=ResultCache(cache_dir),
                journal=journal_path,
            )
            first.run_points(specs[:prefix])
            first.close()
            journaled = {
                r["key"] for r in CampaignJournal.read(journal_path)
                if r["kind"] == "point"
            }
            assert journaled == {s.cache_key() for s in specs[:prefix]}

            second = ParallelSweepRunner(
                jobs=2,
                cache=ResultCache(cache_dir),
                journal=journal_path,
                resume=True,
            )
            results = second.run_points(specs)
            second.close()

            assert second.stats.executed == n - prefix
            assert second.stats.cached == prefix
            assert results == [("result", i) for i in range(n)]
            final = {
                r["key"] for r in CampaignJournal.read(journal_path)
                if r["kind"] == "point"
            }
            assert final == {s.cache_key() for s in specs}


# Lines a damaged journal may hold: valid JSON that is not an object,
# and arbitrary bytes (no line breaks, so each stays one line).
junk_lines = st.sampled_from(
    [b"null", b"[1,2]", b"5", b'"point"', b"true", b"{", b"{}", b"\xff\xfe"]
) | st.binary(max_size=40).filter(lambda b: b"\n" not in b and b"\r" not in b)


@pytest.mark.chaos
class TestDamagedJournal:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 5), data=st.data())
    def test_damaged_journal_resumes_exactly_the_complement(self, n, data):
        specs = [ScriptSpec(i) for i in range(n)]
        intact = {spec.cache_key() for spec in specs}
        with tempfile.TemporaryDirectory() as tmp:
            cache_dir = os.path.join(tmp, "cache")
            journal_path = Path(tmp) / "journal.jsonl"
            cache = ResultCache(cache_dir)
            with CampaignJournal(journal_path) as journal:
                for spec in specs:
                    cache.put(spec, spec.execute())
                    journal.record_point(spec.cache_key())

            blob = journal_path.read_bytes()
            if data.draw(st.booleans(), label="cut"):
                # A fraction, not a byte offset: the header's timestamp
                # makes the length differ between runs.
                at = data.draw(st.floats(0, 1), label="at fraction")
                blob = blob[: round(at * len(blob))]
                damaged = 1
            else:
                lines = blob.split(b"\n")
                damaged = data.draw(st.integers(1, 3), label="inserted")
                for _ in range(damaged):
                    at = data.draw(st.integers(0, len(lines)), label="at")
                    lines.insert(at, data.draw(junk_lines, label="junk"))
                blob = b"\n".join(lines)
            journal_path.write_bytes(blob)

            journal = CampaignJournal(journal_path, resume=True)
            done, torn = journal.done_keys, journal.torn_lines
            journal.close()
            assert done <= intact
            assert torn <= damaged
            assert all(
                isinstance(r, dict) for r in CampaignJournal.read(journal_path)
            )

            # force=True: only journaled points may be served from the
            # (complete) cache; everything else must execute.
            resumed = ParallelSweepRunner(
                jobs=2,
                cache=ResultCache(cache_dir),
                force=True,
                journal=journal_path,
                resume=True,
            )
            results = resumed.run_points(specs)
            resumed.close()
            assert resumed.stats.executed == n - len(done)
            assert resumed.stats.cached == len(done)
            assert results == [("result", i) for i in range(n)]
            final = CampaignJournal(journal_path, resume=True)
            assert final.done_keys == intact
            final.close()
