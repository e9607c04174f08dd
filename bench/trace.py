"""Span recorder the traced run wraps around the program's public
entry points, from outside.

A span is ``(id, parent, root, name, start, end)`` in host seconds
(``time.perf_counter``, one clock for every process on Linux).  Spans
and the counters taken at the same boundaries stay in memory and are
written once, when the benchmark ends.  A layer's *self time* is its
span's duration minus the part of that interval its child spans cover.

Forked pool workers inherit the wrappers and the open-span stack, so a
worker's spans hang off the ``SupervisedPool.run`` span that spawned
it.  A worker cannot hand its memory back, so it writes its spans to
``spill_dir`` when it exits and the parent folds them in
(:meth:`Recorder.collect_spills`).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from contextlib import contextmanager
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

Span = Tuple[int, Optional[int], int, str, float, float]
ID, PARENT, ROOT, NAME, START, END = range(6)


class Recorder:
    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = spill_dir
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._root = 0
        self._next = 1
        self._pid = os.getpid()
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _in_forked_worker(self) -> None:
        """First span in a forked worker: drop the parent's copy of the
        spans, keep the open-span stack (it names our parent), take a
        disjoint id range, and arrange the spill at worker exit."""
        self._pid = os.getpid()
        self.spans = []
        self.counts = {}
        self._next = self._pid << 32
        mp_util.Finalize(None, self._spill, exitpriority=0)

    @contextmanager
    def span(self, name: str):
        if os.getpid() != self._pid:
            self._in_forked_worker()
        span_id = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self._root = span_id
        root = self._root
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, root, name, start, end))

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrapping ------------------------------------------------------------

    def wrap_method(
        self,
        owner: type,
        attr: str,
        name: Optional[Callable[..., str]] = None,
        after: Optional[Callable[["Recorder", tuple, dict, object], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name(*args, **kwargs)`` may refine the span name from the call;
        ``after(recorder, args, kwargs, result)`` takes counts at the
        boundary once the call has returned."""
        raw = owner.__dict__[attr]
        func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        wrapped = self._wrapper(func, f"{owner.__name__}.{attr}", name, after)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(wrapped)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, raw))

    def wrap_function(
        self,
        func: Callable,
        name: Optional[Callable[..., str]] = None,
        after: Optional[Callable[["Recorder", tuple, dict, object], None]] = None,
    ) -> None:
        """Rebind every ``repro`` module attribute that *is* ``func`` (a
        ``from x import f`` copies the binding, so one module is not
        enough) to a span-recording wrapper."""
        wrapped = self._wrapper(func, func.__name__, name, after)
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] != "repro":
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    setattr(module, attr, wrapped)
                    self._undo.append((module, attr, func))

    def _wrapper(self, func, default_name, name, after):
        recorder = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if name is not None else default_name
            with recorder.span(label):
                result = func(*args, **kwargs)
            if after is not None:
                after(recorder, args, kwargs, result)
            return result

        return wrapper

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- worker spill --------------------------------------------------------

    def _spill(self) -> None:
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        path = self.spill_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}))

    def collect_spills(self) -> None:
        """Fold in what exited workers wrote (call after the pool has
        joined them)."""
        if not self.spill_dir.is_dir():
            return
        for path in sorted(self.spill_dir.glob("spans-*.json")):
            data = json.loads(path.read_text())
            self.spans.extend(tuple(span) for span in data["spans"])
            for name, amount in data["counts"].items():
                self.count(name, amount)
            path.unlink()

    # -- output --------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "fields": ["id", "parent", "root", "name", "start", "end"],
            "spans": self.spans,
            "counts": self.counts,
        }


# -- analysis ----------------------------------------------------------------


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    edge = lo
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children: Dict[Optional[int], List[Tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span[PARENT], []).append((span[START], span[END]))
    return {
        span[ID]: (span[END] - span[START])
        - _covered(children.get(span[ID], ()), span[START], span[END])
        for span in spans
    }


def coverage(
    spans: List[Span], inner: Iterable[str], outer: Iterable[str]
) -> Tuple[float, float]:
    """``(outer seconds, seconds of them covered by inner spans)``:
    summed over every span named in ``outer``, how much of it the union
    of the ``inner``-named spans of the same root covers."""
    by_root: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[NAME] in inner:
            by_root.setdefault(span[ROOT], []).append((span[START], span[END]))
    total = covered = 0.0
    for span in spans:
        if span[NAME] in outer:
            total += span[END] - span[START]
            covered += _covered(
                by_root.get(span[ROOT], ()), span[START], span[END]
            )
    return total, covered
