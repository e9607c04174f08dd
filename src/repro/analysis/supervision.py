"""Supervised, crash-tolerant execution of experiment batches.

PR 2 made the *simulated network* fault tolerant; this module does the
same for the harness that runs it.  A bare ``multiprocessing.Pool``
dies with its worst worker: one OOM-killed process, one hung point, or
one raising simulation aborts a multi-hour campaign and discards every
completed result.  The supervised pool here treats worker failures the
way the engine treats link failures — detect, diagnose, retry, and
account, without losing the healthy work:

* :class:`SupervisedPool` — a pool of single-task worker processes the
  parent actively supervises.  Each worker gets one point at a time
  over its own pipe, so the parent always knows *which* point a dead or
  hung worker was running.  It enforces a per-point wall-clock timeout
  (kill + respawn), detects crashes (worker exits without reporting),
  converts worker exceptions into structured records, and retries
  failed points with bounded exponential backoff.
* :class:`PointFailure` — the structured post-mortem of one point that
  exhausted its attempts: cause (``crash``/``timeout``/``exception``),
  attempt count, traceback text, and the final attempt's duration.
* :class:`BatchReport` — what a supervised batch returns: spec-ordered
  results (``None`` where a point permanently failed) plus the failure
  manifest.  ``keep_going`` mode delivers every healthy point;
  ``fail_fast`` (the default) aborts on the first permanent failure
  like the historical pool did.
* :class:`CampaignJournal` — an append-only JSONL checkpoint of
  completed points (by result-cache key).  Each record is flushed and
  fsynced before the campaign moves on, so a SIGKILL loses nothing
  already journaled; rerunning with ``resume`` skips every journaled
  point whose result the cache still holds.

SIGINT drains gracefully: the first Ctrl-C stops dispatching new
points and lets in-flight ones finish (and be journaled); a second
Ctrl-C kills the workers and aborts immediately.

The pool is deliberately generic: a "spec" is anything picklable with
an ``execute()`` method (optionally ``execute_attempt(attempt)`` — the
chaos harness in :mod:`repro.analysis.chaos` uses it to misbehave on
early attempts).  Results never depend on which worker ran a point or
in what order, so supervised execution is bit-identical to a clean
serial run.  See docs/RESILIENCE.md.
"""

from __future__ import annotations

import heapq
import json
import multiprocessing
import os
import signal
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

FAILURE_CAUSES = ("crash", "timeout", "exception")

JOURNAL_SCHEMA = 1
"""Version stamped into every journal header record."""

#: How long (seconds) the parent waits on worker pipes per supervision
#: loop iteration when nothing earlier (deadline, retry) is due.
_POLL_INTERVAL = 0.25

#: Grace period for joining a worker we just killed or asked to exit.
_JOIN_TIMEOUT = 5.0


class PointExecutionError(RuntimeError):
    """A point permanently failed under ``fail_fast``.

    Carries the :class:`PointFailure` post-mortem as ``.failure``.
    """

    def __init__(self, failure: "PointFailure") -> None:
        super().__init__(failure.describe())
        self.failure = failure


@dataclass
class PointFailure:
    """One point that exhausted its attempts, diagnosed."""

    index: int
    """Position of the point in its batch (spec order)."""

    spec: object
    """The spec that failed (a :class:`~repro.analysis.runner.PointSpec`
    for runner batches)."""

    cause: str
    """``crash`` (worker exited without reporting), ``timeout`` (point
    exceeded the wall-clock limit and the worker was killed), or
    ``exception`` (the point raised; see ``traceback``)."""

    attempts: int
    """Total attempts made (1 = no retries)."""

    duration: float
    """Wall-clock seconds spent on the final attempt."""

    message: str = ""
    """One-line diagnosis (exception repr, exit code, timeout limit)."""

    traceback: str = ""
    """Full worker-side traceback for ``exception`` failures."""

    def describe(self) -> str:
        return (
            f"point #{self.index} failed ({self.cause}) after "
            f"{self.attempts} attempt(s), {self.duration:.2f}s on the "
            f"last: {self.message}"
        )

    def to_dict(self) -> Dict[str, object]:
        spec_dict = self.spec
        to_dict = getattr(self.spec, "to_dict", None)
        if callable(to_dict):
            spec_dict = to_dict()
        return {
            "index": self.index,
            "spec": spec_dict,
            "cause": self.cause,
            "attempts": self.attempts,
            "duration": self.duration,
            "message": self.message,
            "traceback": self.traceback,
        }


@dataclass
class BatchReport:
    """Outcome of one supervised batch, in spec order.

    ``results[i]`` is the i-th spec's result, or ``None`` when that
    point permanently failed (possible only under ``keep_going``);
    ``failures`` is the manifest of those permanent failures, ordered
    by spec index.
    """

    results: List[Optional[object]]
    failures: List[PointFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def completed(self) -> int:
        return sum(1 for r in self.results if r is not None)

    def require_complete(self) -> List[object]:
        """The results list, raising if any point failed."""
        if self.failures:
            raise PointExecutionError(self.failures[0])
        return self.results

    def manifest_lines(self) -> List[str]:
        """The failure manifest as JSONL lines (one per failure)."""
        return [
            json.dumps(f.to_dict(), sort_keys=True, default=str)
            for f in self.failures
        ]


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _run_spec(spec, attempt: int):
    """Execute a spec, preferring the attempt-aware entry point (the
    chaos harness keys its misbehaviour on the attempt number)."""
    execute_attempt = getattr(spec, "execute_attempt", None)
    if callable(execute_attempt):
        return execute_attempt(attempt)
    return spec.execute()


def _worker_loop(conn, parent_conn=None) -> None:
    """Body of one supervised worker process.

    Receives ``(index, spec, attempt)`` tasks one at a time, replies
    ``("ok", index, result, duration)`` or ``("exception", index,
    message, traceback, duration)``.  A ``None`` task is the shutdown
    sentinel.  SIGINT is ignored so a Ctrl-C in the parent drains
    cleanly instead of killing every in-flight point.
    """
    if parent_conn is not None:
        # Under fork the child inherits a copy of its own pipe's parent
        # end; holding it open would keep ``recv`` from ever raising
        # EOFError after the parent dies (e.g. SIGKILL), orphaning the
        # worker forever.  Close it so parent death unblocks us.
        parent_conn.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        index, spec, attempt = task
        started = time.perf_counter()
        try:
            result = _run_spec(spec, attempt)
        except BaseException as exc:  # noqa: BLE001 — post-mortem, not flow
            conn.send(
                (
                    "exception",
                    index,
                    f"{type(exc).__name__}: {exc}",
                    traceback.format_exc(),
                    time.perf_counter() - started,
                )
            )
        else:
            conn.send(("ok", index, result, time.perf_counter() - started))


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


@dataclass
class _Task:
    index: int
    spec: object
    attempt: int = 1

    def __lt__(self, other: "_Task") -> bool:  # heapq tie-breaker
        return self.index < other.index


class _Worker:
    """One supervised worker process and its task pipe."""

    def __init__(self, ctx) -> None:
        self.conn, child_conn = multiprocessing.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_worker_loop, args=(child_conn, self.conn), daemon=True
        )
        self.proc.start()
        child_conn.close()
        self.task: Optional[_Task] = None
        self.started = 0.0
        self.deadline: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.task is not None

    def dispatch(self, task: _Task, timeout: Optional[float]) -> None:
        self.task = task
        self.started = time.monotonic()
        self.deadline = (
            self.started + timeout if timeout is not None else None
        )
        self.conn.send((task.index, task.spec, task.attempt))

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def shutdown(self) -> None:
        """Ask the worker to exit and reap it."""
        try:
            self.conn.send(None)
        except (OSError, ValueError):
            pass
        self.conn.close()
        self.proc.join(timeout=_JOIN_TIMEOUT)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join(timeout=_JOIN_TIMEOUT)
        self.proc.close()

    def kill(self) -> Optional[int]:
        """SIGKILL the worker (hung or already dead), reap it, and
        return its exit code (negative = killed by that signal)."""
        try:
            self.conn.close()
        except OSError:
            pass
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join(timeout=_JOIN_TIMEOUT)
        exitcode = self.proc.exitcode
        try:
            self.proc.close()
        except ValueError:
            pass
        return exitcode


#: ``on_point(index, result, attempts, duration)`` — a point completed.
PointCallback = Callable[[int, object, int, float], None]
#: ``on_failure(failure)`` — a point permanently failed (keep_going).
FailureCallback = Callable[[PointFailure], None]
#: ``on_retry(task_index, cause, attempt)`` — an attempt failed and the
#: point will be retried.
RetryCallback = Callable[[int, str, int], None]


class SupervisedPool:
    """A worker pool that survives crashes, hangs, and exceptions.

    Parameters
    ----------
    workers:
        Worker processes to run (each executes one point at a time).
    point_timeout:
        Per-point wall-clock limit in seconds; a worker past it is
        SIGKILLed and respawned, and the point counts as a ``timeout``
        attempt.  ``None`` disables the watchdog.
    max_retries:
        Extra attempts granted to a failed point before it becomes a
        :class:`PointFailure` (0 = first failure is final).
    retry_backoff_base / retry_backoff_cap:
        A point's n-th retry is delayed ``min(cap, base * 2**(n-1))``
        seconds — bounded exponential backoff, so a transiently sick
        machine (OOM pressure, a filling disk) gets time to recover.
    """

    def __init__(
        self,
        workers: int,
        point_timeout: Optional[float] = None,
        max_retries: int = 0,
        retry_backoff_base: float = 0.5,
        retry_backoff_cap: float = 30.0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if point_timeout is not None and point_timeout <= 0:
            raise ValueError("point_timeout must be positive (or None)")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if retry_backoff_base <= 0 or retry_backoff_cap <= 0:
            raise ValueError("retry backoff values must be positive")
        self.workers = workers
        self.point_timeout = point_timeout
        self.max_retries = max_retries
        self.retry_backoff_base = retry_backoff_base
        self.retry_backoff_cap = retry_backoff_cap
        self._ctx = multiprocessing.get_context()

    def backoff(self, attempt: int) -> float:
        """Delay before retry number ``attempt - 1`` (attempt >= 2)."""
        return min(
            self.retry_backoff_cap,
            self.retry_backoff_base * 2 ** max(0, attempt - 2),
        )

    def run(
        self,
        items: Sequence[Tuple[int, object]],
        keep_going: bool = False,
        on_point: Optional[PointCallback] = None,
        on_failure: Optional[FailureCallback] = None,
        on_retry: Optional[RetryCallback] = None,
    ) -> List[PointFailure]:
        """Execute ``(index, spec)`` items, invoking ``on_point`` as
        each completes (in completion order, in the parent process).

        Returns the permanent-failure manifest, ordered by index.
        Under ``fail_fast`` (the default) the first permanent failure
        kills the remaining work and raises
        :class:`PointExecutionError`; under ``keep_going`` every other
        point still runs and the failures are returned/streamed.

        The first KeyboardInterrupt drains in-flight points (no new
        dispatch) and then re-raises; a second aborts immediately.
        """
        pending: deque = deque(_Task(i, spec) for i, spec in items)
        retry_heap: List[Tuple[float, _Task]] = []
        failures: List[PointFailure] = []
        fleet: List[_Worker] = []
        draining = False
        interrupted = False
        abort: Optional[PointExecutionError] = None

        def _attempt_failed(
            task: _Task,
            cause: str,
            duration: float,
            message: str,
            tb: str = "",
        ) -> None:
            nonlocal abort
            if task.attempt <= self.max_retries and not draining:
                if on_retry is not None:
                    on_retry(task.index, cause, task.attempt)
                delay = self.backoff(task.attempt + 1)
                task.attempt += 1
                heapq.heappush(
                    retry_heap, (time.monotonic() + delay, task)
                )
                return
            failure = PointFailure(
                index=task.index,
                spec=task.spec,
                cause=cause,
                attempts=task.attempt,
                duration=duration,
                message=message,
                traceback=tb,
            )
            failures.append(failure)
            if on_failure is not None:
                on_failure(failure)
            if not keep_going and abort is None:
                abort = PointExecutionError(failure)

        try:
            while True:
                try:
                    now = time.monotonic()
                    while retry_heap and retry_heap[0][0] <= now:
                        pending.append(heapq.heappop(retry_heap)[1])

                    busy = [w for w in fleet if w.busy]
                    if abort is not None or (draining and not busy):
                        break
                    if not pending and not retry_heap and not busy:
                        break

                    if not draining:
                        idle = [w for w in fleet if not w.busy]
                        while pending and idle:
                            idle.pop().dispatch(
                                pending.popleft(), self.point_timeout
                            )
                        while pending and len(fleet) < self.workers:
                            worker = _Worker(self._ctx)
                            fleet.append(worker)
                            worker.dispatch(
                                pending.popleft(), self.point_timeout
                            )
                        busy = [w for w in fleet if w.busy]

                    timeout = _POLL_INTERVAL
                    for worker in busy:
                        if worker.deadline is not None:
                            timeout = min(timeout, worker.deadline - now)
                    if retry_heap:
                        timeout = min(timeout, retry_heap[0][0] - now)
                    timeout = max(0.0, timeout)

                    if busy:
                        ready = _connection_wait(
                            [w.conn for w in busy], timeout=timeout
                        )
                    else:
                        if timeout:
                            time.sleep(timeout)
                        ready = []

                    for worker in [w for w in busy if w.conn in ready]:
                        task = worker.task
                        assert task is not None
                        try:
                            reply = worker.conn.recv()
                        except (EOFError, OSError):
                            # The worker died without reporting: crash.
                            duration = worker.elapsed()
                            exitcode = self._reap(fleet, worker)
                            _attempt_failed(
                                task,
                                "crash",
                                duration,
                                f"worker exited with code {exitcode} "
                                f"mid-point",
                            )
                            continue
                        worker.task = None
                        worker.deadline = None
                        if reply[0] == "ok":
                            _, index, result, duration = reply
                            if on_point is not None:
                                on_point(
                                    index, result, task.attempt, duration
                                )
                        else:
                            _, index, message, tb, duration = reply
                            _attempt_failed(
                                task,
                                "exception",
                                duration,
                                message,
                                tb,
                            )

                    now = time.monotonic()
                    for worker in [w for w in fleet if w.busy]:
                        if (
                            worker.deadline is not None
                            and now >= worker.deadline
                        ):
                            task = worker.task
                            assert task is not None
                            duration = worker.elapsed()
                            self._reap(fleet, worker)
                            _attempt_failed(
                                task,
                                "timeout",
                                duration,
                                f"point exceeded the "
                                f"{self.point_timeout:.3g}s wall-clock "
                                f"limit; worker killed",
                            )
                except KeyboardInterrupt:
                    if draining:
                        raise
                    draining = True
                    interrupted = True
                    pending.clear()
                    retry_heap.clear()
        finally:
            for worker in list(fleet):
                if worker.busy:
                    worker.kill()
                else:
                    worker.shutdown()

        if abort is not None:
            raise abort
        if interrupted:
            raise KeyboardInterrupt
        failures.sort(key=lambda f: f.index)
        return failures

    @staticmethod
    def _reap(fleet: List[_Worker], worker: _Worker) -> Optional[int]:
        """Kill a dead or hung worker and remove it from the fleet,
        returning its exit code."""
        exitcode = worker.kill()
        fleet.remove(worker)
        return exitcode


# ---------------------------------------------------------------------------
# The campaign journal
# ---------------------------------------------------------------------------


class CampaignJournal:
    """Append-only JSONL checkpoint of a campaign's completed points.

    Line 1 is a header record (``kind: "campaign"``, schema version,
    creation time).  Every completed point appends a ``kind: "point"``
    record carrying its result-cache key, attempts, duration, and
    whether it was served from cache; permanent failures append
    ``kind: "failure"`` records with the full post-mortem.  Each append
    is flushed and fsynced before the campaign proceeds, so a SIGKILL
    at any moment loses at most the point currently in flight — never
    one already journaled.

    Opened with ``resume=True`` the journal loads the set of completed
    keys (skipping, and counting in :attr:`torn_lines`, a torn final
    line from a previous hard kill or any line that is not a JSON
    object) and
    appends to the same file; without ``resume`` an existing file is
    truncated and the campaign starts clean.
    """

    def __init__(self, path: os.PathLike, resume: bool = False) -> None:
        self.path = Path(path)
        self._done: Set[str] = set()
        self.torn_lines = 0
        if resume and self.path.exists():
            self._load()
            self._fh = open(self.path, "a", encoding="utf-8")
            # A hard kill can leave a torn, newline-less final line;
            # terminate it so appended records start on a fresh line
            # instead of gluing onto the fragment (losing both).
            if self.path.stat().st_size and not self._ends_with_newline():
                self._fh.write("\n")
                self._fh.flush()
                os.fsync(self._fh.fileno())
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "w", encoding="utf-8")
            self._append(
                {
                    "kind": "campaign",
                    "schema": JOURNAL_SCHEMA,
                    "created": time.time(),
                }
            )

    def _ends_with_newline(self) -> bool:
        with open(self.path, "rb") as fh:
            fh.seek(-1, os.SEEK_END)
            return fh.read(1) == b"\n"

    def _load(self) -> None:
        for record in self._records(self.path):
            if record is None:
                # A SIGKILL can tear the final line mid-write; the
                # point it described was not durably completed.
                self.torn_lines += 1
            elif record.get("kind") == "point":
                key = record.get("key")
                if isinstance(key, str):
                    self._done.add(key)

    @staticmethod
    def _records(path: os.PathLike) -> Iterator[Optional[Dict[str, object]]]:
        """Each non-blank line's record, or ``None`` for a line that is
        not a JSON object (torn, garbage, or a bare ``null``/list/number
        that no writer of this class produces)."""
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    record = None
                yield record if isinstance(record, dict) else None

    def _append(self, record: Dict[str, object]) -> None:
        self._fh.write(json.dumps(record, sort_keys=True, default=str))
        self._fh.write("\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def done(self, key: str) -> bool:
        return key in self._done

    @property
    def done_keys(self) -> Set[str]:
        return set(self._done)

    def __len__(self) -> int:
        return len(self._done)

    def record_point(
        self,
        key: str,
        attempts: int = 1,
        duration: float = 0.0,
        cached: bool = False,
    ) -> None:
        """Checkpoint a completed point (idempotent per key)."""
        if key in self._done:
            return
        self._done.add(key)
        self._append(
            {
                "kind": "point",
                "key": key,
                "attempts": attempts,
                "duration": duration,
                "cached": cached,
            }
        )

    def record_failure(self, failure: PointFailure) -> None:
        record = failure.to_dict()
        record["kind"] = "failure"
        self._append(record)

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def read(path: os.PathLike) -> Iterator[Dict[str, object]]:
        """Yield every intact record (a JSON object) in a journal file."""
        for record in CampaignJournal._records(path):
            if record is not None:
                yield record
