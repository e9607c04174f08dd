"""Lightweight wall-clock profiling of the engine's hot phases.

Python-level simulation cost is dominated by a handful of inner loops;
:class:`PhaseProfiler` times them with ``time.perf_counter`` pairs and
near-zero bookkeeping so a profiled run stays representative:

* ``generate`` — message generation (interarrival draws, queueing);
* ``inject`` — source-queue heads claiming injection channels;
* ``route`` — the routing decision: candidate-channel computation,
  including escape candidates (nested inside ``allocate``);
* ``allocate`` — switch allocation: arbitration of contending headers
  and channel grants (*includes* ``route``; the report subtracts);
* ``advance`` — flit movement: every worm shifting one buffer forward;
* ``faults``/``retries``/``watchdog`` — fault-plan application, retry
  requeueing, and per-packet timeout scans, when those subsystems are
  active;
* ``collect`` — the streaming collectors' end-of-cycle pass (array
  backend only; the event engine's collector hooks are inlined into the
  stages above);
* ``quiet`` — the event engine's quiet-cycle jumps in ``run()``: one
  call per jump over cycles on which no stage could act (those cycles
  run none of the phases above).  A jump that a due watchdog or
  deadlock bound cuts to zero cycles still counts as a call.

The array backend (``backend="array"``) reports the same phases per
batched kernel pass, with ``route`` folded into ``allocate`` (the LUT
gathers happen inside the arbitration kernel) and no
``faults``/``retries``/``watchdog`` (a point that needs them runs on
the event engine).  Profiling only observes
the clock around each pass, so profiled runs stay bit-identical on both
backends.

The profiler is engine-agnostic: ``add(phase, seconds)`` accumulates,
``report()`` renders.  It attaches only when the caller passes one to
:class:`~repro.simulation.engine.WormholeSimulator` (the CLI's
``--profile`` flag); an unprofiled run never touches the clock.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

ENGINE_PHASES = (
    "faults",
    "retries",
    "generate",
    "inject",
    "route",
    "allocate",
    "advance",
    "watchdog",
    "collect",
    "quiet",
)
"""Phase names the wormhole engine reports, in pipeline order."""


class PhaseProfiler:
    """Accumulates (calls, seconds) per named phase."""

    __slots__ = ("seconds", "calls")

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    def add(self, phase: str, seconds: float) -> None:
        """Fold one timed interval into ``phase``."""
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
        self.calls[phase] = self.calls.get(phase, 0) + 1

    @property
    def total_seconds(self) -> float:
        """Sum of all *top-level* phase times.

        ``route`` is nested inside ``allocate`` (the routing decision
        happens during arbitration), so it is excluded from the total to
        avoid double counting.
        """
        return sum(
            seconds for phase, seconds in self.seconds.items() if phase != "route"
        )

    def exclusive_seconds(self, phase: str) -> float:
        """Time in ``phase`` minus its nested sub-phase (``allocate``
        excludes ``route``)."""
        seconds = self.seconds.get(phase, 0.0)
        if phase == "allocate":
            seconds -= self.seconds.get("route", 0.0)
        return max(seconds, 0.0)

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        """Per-phase ``{"seconds": ..., "calls": ...}`` (JSON-ready)."""
        return {
            phase: {
                "seconds": self.seconds[phase],
                "calls": self.calls.get(phase, 0),
            }
            for phase in sorted(self.seconds)
        }

    def report(self, order: Optional[List[str]] = None) -> str:
        """A fixed-width text table, hottest phases first by default."""
        phases = order or sorted(
            self.seconds, key=lambda p: self.exclusive_seconds(p), reverse=True
        )
        total = self.total_seconds
        lines = ["phase       seconds    share      calls    us/call"]
        for phase in phases:
            if phase not in self.seconds:
                continue
            exclusive = self.exclusive_seconds(phase)
            calls = self.calls.get(phase, 0)
            share = exclusive / total if total > 0 else 0.0
            per_call = 1e6 * exclusive / calls if calls else 0.0
            nested = "  (within allocate)" if phase == "route" else ""
            lines.append(
                f"{phase:10s} {exclusive:8.3f}   {share:6.1%} "
                f"{calls:10d} {per_call:10.2f}{nested}"
            )
        lines.append(f"{'total':10s} {total:8.3f}")
        return "\n".join(lines)


def timed(
    phase: str, call: Callable, profilers: Sequence[PhaseProfiler]
) -> Callable:
    """``call`` (one argument) with a ``perf_counter`` pair around it,
    charged to ``phase`` on every one of ``profilers`` — how the engines
    derive their profiled cycle from their one stage list."""
    perf = time.perf_counter

    def run(arg):
        started = perf()
        out = call(arg)
        elapsed = perf() - started
        for profiler in profilers:
            profiler.add(phase, elapsed)
        return out

    return run
