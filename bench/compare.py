#!/usr/bin/env python3
"""Compare two benchmark result files: ``python bench/compare.py A.json B.json``.

A is the baseline, B the candidate (both written by an untraced
``run.py``).  Per workload and end-to-end metric it prints both sides'
median and quartiles and a verdict against the bound in
``BENCHMARK.json``:

* ``ok`` — B's median is no worse than A's by more than the bound;
* ``regressed`` — it is worse by more than the bound;
* ``unresolved`` — either side's own spread (quartile distance over
  median) is wider than the bound, so the comparison cannot tell —
  unless every B sample reads better than every A sample (``ok``);
* ``noisy`` — a side ran with the load average above ``nproc``; no
  ``ok``/``regressed`` is issued from such a run.

Exit status is non-zero on any ``regressed``, any rise in
``failed_fraction``, or any ``result_mismatches``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent


def relative_spread(metric: dict) -> float:
    return (metric["q3"] - metric["q1"]) / metric["value"]


def verdict(a: dict, b: dict, better: str, bound: float, noisy: bool) -> str:
    if noisy:
        return "noisy"
    sign = 1.0 if better == "lower" else -1.0
    if max(relative_spread(a), relative_spread(b)) > bound:
        b_worst = max(sign * s for s in b["samples"])
        a_best = min(sign * s for s in a["samples"])
        return "ok" if b_worst < a_best else "unresolved"
    worse_by = sign * (b["value"] - a["value"]) / a["value"]
    return "regressed" if worse_by > bound else "ok"


def compare(a: dict, b: dict, benchmark: dict) -> List[Dict[str, object]]:
    """One row per workload x end-to-end metric present on both sides,
    plus one ``correctness`` row per workload."""
    noisy = bool(a["environment"]["noisy"] or b["environment"]["noisy"])
    rows: List[Dict[str, object]] = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for spec in benchmark["end_to_end"]:
            ma, mb = wa["metrics"][spec["name"]], wb["metrics"][spec["name"]]
            rows.append({
                "workload": workload, "metric": spec["name"],
                "a": ma, "b": mb, "bound": spec["bound"],
                "verdict": verdict(ma, mb, spec["better"], spec["bound"], noisy),
            })
        broken = (
            wb["failed_fraction"] > wa["failed_fraction"]
            or wb["result_mismatches"] > 0
            or wa["result_mismatches"] > 0
        )
        rows.append({
            "workload": workload, "metric": "correctness",
            "verdict": "BROKEN" if broken else "ok",
            "detail": (
                f"failed_fraction {wa['failed_fraction']:g} -> "
                f"{wb['failed_fraction']:g}, result_mismatches "
                f"{wa['result_mismatches']} -> {wb['result_mismatches']}"
            ),
        })
    return rows


def _side(metric: dict) -> str:
    return (f"{metric['value']:.5g} [{metric['q1']:.5g}, "
            f"{metric['q3']:.5g}] n={metric['n']}")


def render(rows: List[Dict[str, object]]) -> str:
    lines = [
        f"{'workload':20s} {'metric':18s} {'A median [q1, q3]':>38s} "
        f"{'B median [q1, q3]':>38s} {'change':>8s} {'bound':>6s}  verdict"
    ]
    for row in rows:
        if row["metric"] == "correctness":
            lines.append(
                f"{row['workload']:20s} {'correctness':18s} {row['detail']}"
                f"  {row['verdict']}"
            )
            continue
        a, b = row["a"], row["b"]
        change = (b["value"] - a["value"]) / a["value"]
        lines.append(
            f"{row['workload']:20s} {row['metric']:18s} {_side(a):>38s} "
            f"{_side(b):>38s} {change:+8.1%} {row['bound']:6.0%}  "
            f"{row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="baseline result file")
    parser.add_argument("b", type=Path, help="candidate result file")
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    a, b = (json.loads(path.read_text()) for path in (args.a, args.b))
    for side, name in ((a, args.a), (b, args.b)):
        if side["trace"]:
            parser.error(f"{name} is a traced run; compare untraced results")
    rows = compare(a, b, json.loads(args.benchmark.read_text()))
    print(render(rows))
    bad = [r for r in rows if r["verdict"] in ("regressed", "BROKEN")]
    open_rows = [r for r in rows if r["verdict"] in ("unresolved", "noisy")]
    print(f"{len(rows)} rows: {len(bad)} regressed or broken, "
          f"{len(open_rows)} unresolved or noisy")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
