#!/usr/bin/env python3
"""The repo benchmark: ``python bench/run.py [--seed S] [--workload W]
[--trace] [--quick]``.

Closed loop, one driver process.  Workloads run one after another; each
is measured in fresh child interpreters (``child.py``), ``SETUPS`` of
them in a row, so ``setup_s`` and ``peak_rss_mb`` are per workload and
set-up is itself sampled more than once.  A timing metric is the median
over every timed repetition of every child, reported with quartiles and
the sample count.  All timing metrics are **host** time; cycle and
flit-hop counts are **simulated**.

Untraced runs print the end-to-end metrics and write
``bench/out/result-<seed>.json``; ``--trace`` runs print the per-layer
metrics and write ``bench/out/result-<seed>-traced.json`` plus one
``bench/out/trace-<workload>.json`` of spans.  Metric names, units and
bounds come from ``BENCHMARK.json``.  With exactly one ``--workload``
the last line of stdout is the result as one JSON object.

Simulated statistics are pinned by digest; model accuracy against the
paper is not evaluated here (EXPERIMENTS.md owns that).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDEN = HERE / "golden"

DEFAULT_SEED = 7
"""Has pinned digests under ``golden/``, as does the held-out seed 1998."""

SETUPS = 3
"""Fresh interpreters per untraced run: ``setup_s`` is their median."""

CHILD_TIMEOUT = 170.0
RESULT_SCHEMA = 1


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- environment -------------------------------------------------------------


def host_calibration() -> float:
    """Host seconds for a fixed pure-Python + numpy loop: lets a reader
    tell a slow machine from a slow commit."""
    import numpy

    start = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += (i * i) % 7
    values = numpy.arange(400_000, dtype=numpy.int64)
    for _ in range(20):
        values = numpy.cumsum(values[::-1] % 1_000_003)
    return time.perf_counter() - start


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True, timeout=10,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_commit": git_commit(),
        "load_1m_start": os.getloadavg()[0],
        "host_calibration_s": host_calibration(),
    }


# -- running a child ---------------------------------------------------------


def run_child(
    workload: str, seed: int, seconds: float, quick: bool, trace: int,
    check: bool, tag: str,
) -> dict:
    """Spawn one fresh interpreter for ``workload`` and return what it
    printed.  The scratch directory is inside the checkout and removed
    afterwards; the child's whole process group is stopped on timeout."""
    scratch = OUT / "tmp" / f"{workload}-{os.getpid()}-{tag}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--size", "quick" if quick else "full",
        "--trace", str(trace), "--check", str(int(check)),
        "--scratch", str(scratch),
    ]
    if trace:
        command += ["--spans-out", str(OUT / f"trace-{workload}.json")]
    command += ["--spawned-at", repr(time.perf_counter())]
    child = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise SystemExit(f"{workload}: child exceeded {CHILD_TIMEOUT:.0f}s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if child.returncode != 0:
        raise SystemExit(f"{workload}: child exited with {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


# -- aggregation -------------------------------------------------------------


def summarize(samples: Sequence[float], unit: str) -> Dict[str, object]:
    """Median with quartiles and the sample count.  With fewer than 20
    samples no percentile has ten samples beyond it, so none is
    reported."""
    samples = list(samples)
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "value": statistics.median(samples), "unit": unit,
        "q1": q1, "q3": q3, "n": len(samples), "samples": samples,
    }


def check_golden(workload: str, seed: int, size: dict, digests: List[str],
                 update: bool) -> Tuple[str, int]:
    """Compare per-point digests with the pinned file for this seed, if
    one exists for these sizes; ``update`` (re)writes it.  Returns
    ``(status, mismatching points)``."""
    path = GOLDEN / f"{workload}-seed{seed}.json"
    if update:
        GOLDEN.mkdir(exist_ok=True)
        path.write_text(json.dumps(
            {"workload": workload, "seed": seed, "size": size,
             "digests": digests}, indent=1) + "\n")
        return "updated", 0
    if not path.exists():
        return "absent", 0
    pinned = json.loads(path.read_text())
    if pinned["size"] != size:
        return "other-size", 0
    wrong = sum(a != b for a, b in zip(pinned["digests"], digests))
    wrong += abs(len(pinned["digests"]) - len(digests))
    return ("MISMATCH" if wrong else "matched"), wrong


def measure(workload: str, args, units: Dict[str, str]) -> Dict[str, object]:
    """Run one workload and fold its children into one record."""
    if args.trace:
        children = [run_child(
            workload, args.seed, args.seconds, args.quick, 1, True, "traced"
        )]
    else:
        setups = 1 if args.quick else SETUPS
        children = [
            run_child(
                workload, args.seed, args.seconds / setups, args.quick, 0,
                check=(k == 0), tag=str(k),
            )
            for k in range(setups)
        ]
    first = children[0]
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    # Every child simulated the same inputs: their digests must agree.
    mismatches = sum(c["mismatches"] for c in children) + sum(
        a != b for c in children[1:] for a, b in zip(first["digests"], c["digests"])
    )
    golden, wrong = check_golden(
        workload, args.seed, first["size"], first["digests"], args.update_golden
    )
    mismatches += wrong

    if args.trace:
        metrics = {
            name: {"value": value, "unit": units[name]}
            for name, value in first["metrics"].items()
        }
    else:
        walls = [w for c in children for w in c["wall_s"]]
        metrics = {
            "wall_s": walls,
            "cpu_s": [s for c in children for s in c["cpu_s"]],
            "setup_s": [c["setup_s"] for c in children],
            "peak_rss_mb": [c["peak_rss_mb"] for c in children],
        }
        # rerun-warm simulates nothing: there sim_cycles_per_s reads as
        # simulated cycles *served* per host second.
        for name, key in (("points_per_s", "points"),
                          ("sim_cycles_per_s", "sim_cycles")):
            metrics[name] = [first[key] / w for w in walls]
        metrics = {
            name: summarize(samples, units[name])
            for name, samples in metrics.items()
        }
    return {
        "correct": failed == 0 and mismatches == 0,
        "attempted": attempted,
        "failed": failed + mismatches,
        "failed_fraction": failed / attempted,
        "result_mismatches": mismatches,
        "golden": golden,
        "sample_checked": first.get("sample_checked", 0),
        "size": first["size"],
        # Simulated work of one repetition (the same on every seed-equal run).
        "points": first["points"],
        "sim_cycles": first["sim_cycles"],
        "flit_hops": first["flit_hops"],
        "metrics": metrics,
    }


def report(workload: str, record: Dict[str, object]) -> None:
    print(f"== {workload}  ({record['points']} points/repetition, "
          f"size {json.dumps(record['size'])})")
    for name, metric in record["metrics"].items():
        line = f"  {name:42s} {metric['value']:16.6f} {metric['unit']}"
        if "n" in metric:
            line += (f"   q1 {metric['q1']:.6f}  q3 {metric['q3']:.6f}"
                     f"  n={metric['n']}")
        print(line)
    print(f"  {'failed_fraction':42s} {record['failed_fraction']:16.6f} ratio"
          f"   ({record['attempted']} points attempted)")
    print(f"  {'result_mismatches':42s} {record['result_mismatches']:16d} count"
          f"   (golden digests: {record['golden']}; "
          f"{record['sample_checked']} points re-run on the event engine)")


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workload", action="append", choices=names,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seconds", type=float,
                        default=float(benchmark["run_seconds"]),
                        help="timed body seconds per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="traced run: per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="toy sizes, one set-up (self-tests)")
    parser.add_argument("--update-golden", action="store_true",
                        help="rewrite bench/golden/ for this seed")
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = min(args.seconds, 0.2)
    selected = args.workload or names

    units = {
        m["name"]: m["unit"]
        for m in benchmark["per_layer" if args.trace else "end_to_end"]
    }
    OUT.mkdir(exist_ok=True)
    env = environment()
    workloads = {}
    for workload in selected:
        workloads[workload] = measure(workload, args, units)
        if set(workloads[workload]["metrics"]) != set(units):
            raise SystemExit(
                f"{workload}: metrics emitted and BENCHMARK.json disagree: "
                f"{sorted(set(workloads[workload]['metrics']) ^ set(units))}"
            )
        report(workload, workloads[workload])
    env["load_1m_end"] = os.getloadavg()[0]
    env["noisy"] = max(env["load_1m_start"], env["load_1m_end"]) > env["nproc"]

    result = {
        "schema": RESULT_SCHEMA,
        "seed": args.seed,
        "quick": args.quick,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "workloads": workloads,
    }
    path = OUT / f"result-{args.seed}{'-traced' if args.trace else ''}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print("simulated statistics pinned by digest, model accuracy not evaluated")
    print(f"environment: {json.dumps(env)}")
    if env["noisy"]:
        print("NOISY: 1-minute load average exceeded nproc; compare.py "
              "will not judge this run")
    print(f"wrote {path.relative_to(ROOT)}")
    for workload, record in workloads.items():
        if not record["correct"]:
            print(f"INCORRECT: {workload}: {record['failed']} failed or "
                  f"mismatching point(s)")
    if len(selected) == 1:
        record = workloads[selected[0]]
        print(json.dumps({
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": metric["value"], "unit": metric["unit"]}
                for name, metric in record["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
