"""One workload in one fresh interpreter (spawned by ``run.py``).

Untraced (``--trace 0``): import, ``prepare(seed)``, one cold pass of
the body, then timed repetitions until ``--seconds`` of body time have
been measured.  ``setup_s`` runs from the moment the driver spawned
this process to the first timed repetition.  Every repetition's results
are compared (untimed) with the cold pass.

Traced (``--trace 1``): cold pass, then two untraced repetitions
alternating with two under the span recorder, then the phase split, the
event-engine sample and the layer probes.  Traced results must hash equal to
untraced ones.

Prints one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

TRACED_REPETITIONS = 2
MIN_REPETITIONS = 2
SAMPLE = 8
"""Points re-run on the event engine, inline, to check the outputs."""


def digest(result) -> str:
    """64 bits of the SHA-256 of a result's canonical JSON."""
    if result is None:
        return "failed"
    blob = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def cpu_seconds() -> float:
    """User + system CPU of this process and the children it has
    waited for (the pool joins its workers before ``run`` returns)."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in map(
            resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        )
    )


def timed(state) -> Tuple[list, float, float]:
    """One body repetition: ``(results, wall seconds, cpu seconds)``."""
    if state.reset is not None:
        state.reset()
    cpu, start = cpu_seconds(), time.perf_counter()
    results = state.run()
    wall = time.perf_counter() - start
    return results, wall, cpu_seconds() - cpu


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", choices=("full", "quick"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--check", type=int, choices=(0, 1), required=True,
                        help="re-run the event-engine sample (a traced "
                        "run always does)")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="driver's perf_counter() when it spawned us")
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args(argv)

    import layers
    import workloads

    size = workloads.SIZES[args.size][args.workload]
    state = workloads.WORKLOADS[args.workload].prepare(
        args.seed, size, args.scratch
    )
    points = len(state.specs)
    cold_results, cold_wall, _ = timed(state)
    pinned = state.reference if state.reference is not None else cold_results
    pinned = pinned[:points]
    digests = [digest(r) for r in pinned]
    # A body may serve the points several times over (rerun-warm).
    expected = pinned * (len(cold_results) // points)

    attempted = failed = mismatches = 0

    def check(results: list) -> None:
        nonlocal attempted, failed, mismatches
        attempted += len(results)
        failed += sum(1 for r in results if r is None or r.deadlock)
        mismatches += sum(
            1 for r, want in zip(results, expected)
            if r is not None and r != want
        ) + abs(len(results) - len(expected))

    check(cold_results)
    out: Dict[str, object] = {
        "workload": args.workload,
        "size": size,
        "points": len(cold_results),
        "sim_cycles": sum(
            layers.simulated_cycles(state.specs[i % points], r)
            for i, r in enumerate(cold_results) if r is not None
        ),
        "flit_hops": sum(
            layers.flit_hops(r) for r in cold_results if r is not None
        ),
        "cold_wall_s": cold_wall,
        "digests": digests,
    }

    if not args.trace:
        out["setup_s"] = time.perf_counter() - args.spawned_at
        walls: List[float] = []
        cpus: List[float] = []
        while len(walls) < MIN_REPETITIONS or sum(walls) < args.seconds:
            results, wall, cpu = timed(state)
            walls.append(wall)
            cpus.append(cpu)
            check(results)
        out["wall_s"], out["cpu_s"] = walls, cpus
    else:
        import trace as tracing

        # Untraced and traced repetitions alternate, so slow drift of the
        # host lands on both sides of the overhead ratio.
        recorder = tracing.Recorder(args.scratch / "spill")
        untraced: List[float] = []
        traced: List[float] = []
        for _ in range(TRACED_REPETITIONS):
            results, wall, _ = timed(state)
            untraced.append(wall)
            check(results)
            layers.install(recorder)
            try:
                with recorder.span("repetition"):
                    results, wall, _ = timed(state)
            finally:
                recorder.unwrap_all()
            recorder.collect_spills()
            traced.append(wall)
            check(results)
        warm = statistics.median(untraced)
        metrics = layers.from_trace(recorder, len(traced))
        metrics["trace_overhead_ratio"] = statistics.median(traced) / warm
        metrics.update(layers.phase_split(state.profile))
        metrics.update(layers.probes(args.scratch, args.size == "quick"))
        on_array = any(s.config.backend == "array" for s in state.specs)
        metrics["array.cold_extra_s"] = (cold_wall - warm) if on_array else 0.0
        out["metrics"] = metrics
        if args.spans_out is not None:
            args.spans_out.write_text(json.dumps(recorder.to_dict()))

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Largest waited-for worker (0 without a pool): the campaign's
    # footprint is the driver process plus one worker of each.
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_mb"] = usage / 1024.0

    if args.check or args.trace:
        # Untimed: a seeded sample of points re-run alone on the event
        # engine.  Checks array-vs-event on the array workloads, and that
        # the harness, pool, cache and journal hand back the right point
        # in the right place on the others.
        indices = workloads.sample(range(points), args.seed, SAMPLE)
        start = time.perf_counter()
        fresh = [layers.as_event(state.specs[i]).execute() for i in indices]
        event_seconds = time.perf_counter() - start
        mismatches += sum(
            1 for i, r in zip(indices, fresh) if digest(r) != digests[i]
        )
        out["sample_checked"] = len(indices)
        if args.trace:
            # Meaningful only where the body ran on the array backend.
            event_rate = len(indices) / event_seconds
            body_rate = len(cold_results) / warm
            metrics["array.event_sample_points_per_s"] = (
                event_rate if on_array else 0.0
            )
            metrics["array.speedup_vs_event"] = (
                body_rate / event_rate if on_array else 0.0
            )

    out.update(attempted=attempted, failed=failed, mismatches=mismatches)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
