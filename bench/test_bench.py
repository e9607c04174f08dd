"""Self-tests of the benchmark (``python -m pytest bench/test_bench.py``).

Outside tier-1 ``testpaths``: they check the yardstick, not the program.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import trace as tracing  # noqa: E402  (bench/trace.py, not the stdlib module)
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TEST_SEED = 424242
"""Not a seed anyone benchmarks with: the quick runs below write
``bench/out/result-424242*.json`` and must not clobber a real result."""

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_benchmark_json_stays_within_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in BENCHMARK[key]
    ]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"
    ).items()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.fixture(scope="module", params=[0, 1], ids=["untraced", "traced"])
def quick_run(request):
    """``run.py --quick`` over all six workloads, once per trace mode."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick",
         "--seed", str(TEST_SEED), "--trace", str(request.param)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout
    suffix = "-traced" if request.param else ""
    path = HERE / "out" / f"result-{TEST_SEED}{suffix}.json"
    result = json.loads(path.read_text())
    path.unlink()
    return request.param, result, done.stdout


def test_run_emits_exactly_the_declared_metrics(quick_run):
    traced, result, stdout = quick_run
    declared = {
        m["name"]: m["unit"]
        for m in BENCHMARK["per_layer" if traced else "end_to_end"]
    }
    assert set(result["workloads"]) == set(workloads.WORKLOADS)
    for workload, record in result["workloads"].items():
        emitted = {n: m["unit"] for n, m in record["metrics"].items()}
        assert emitted == declared, workload
        assert record["correct"], workload
        assert record["failed_fraction"] == 0 and record["result_mismatches"] == 0
        # Printed by name, with its unit.
        for name, unit in declared.items():
            assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}\b",
                             stdout, re.M), name
    for key in ("nproc", "python", "numpy", "git_commit", "load_1m_start",
                "load_1m_end", "host_calibration_s", "noisy"):
        assert key in result["environment"]


def test_traced_layer_shares_match_the_design(quick_run):
    traced, result, _ = quick_run
    if not traced:
        pytest.skip("per-layer metrics come from the traced run")
    value = lambda w, m: result["workloads"][w]["metrics"][m]["value"]  # noqa: E731
    for workload in ("seedsweep-array", "vcsweep-array", "solo-array"):
        assert value(workload, "array.vectorized_fraction") == 1.0
        assert value(workload, "trace.share.engine") == 0.0
    assert value("fig-event", "trace.share.array") == 0.0
    assert value("fig-event", "trace.share.engine") > 0.5
    for share in ("trace.share.engine", "trace.share.array"):
        assert value("rerun-warm", share) == 0.0
    assert value("rerun-warm", "runner.cache_hit_ratio") == 1.0
    # Worker-side spans made it back: the engine ran only in the pool.
    assert value("campaign-supervised", "engine.run_s") > 0.0
    for workload in result["workloads"]:
        assert value(workload, "trace.coverage") > 0.9


def test_spans_of_a_traced_run_nest(quick_run):
    traced, _, _ = quick_run
    if not traced:
        pytest.skip("spans come from the traced run")
    for workload in workloads.WORKLOADS:
        data = json.loads((HERE / "out" / f"trace-{workload}.json").read_text())
        spans = [tuple(s) for s in data["spans"]]
        by_id = {s[tracing.ID]: s for s in spans}
        roots = [s for s in spans if s[tracing.PARENT] is None]
        assert [s[tracing.NAME] for s in roots] == ["repetition"] * len(roots)
        for span in spans:
            parent = by_id.get(span[tracing.PARENT])
            if parent is not None:
                assert parent[tracing.START] <= span[tracing.START]
                assert span[tracing.END] <= parent[tracing.END]
                assert span[tracing.ROOT] == parent[tracing.ROOT]
        assert all(t >= -1e-9 for t in tracing.self_times(spans).values())


def test_recorder_self_time_is_duration_minus_child_coverage(tmp_path):
    recorder = tracing.Recorder(tmp_path)
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
        with recorder.span("inner"):
            pass
    outer = next(s for s in recorder.spans if s[tracing.NAME] == "outer")
    inner = [s for s in recorder.spans if s[tracing.NAME] == "inner"]
    selfs = tracing.self_times(recorder.spans)
    covered = sum(s[tracing.END] - s[tracing.START] for s in inner)
    duration = outer[tracing.END] - outer[tracing.START]
    assert selfs[outer[tracing.ID]] == pytest.approx(duration - covered)
    assert all(s[tracing.PARENT] == outer[tracing.ID] for s in inner)
    # Overlapping children (two pool workers) are covered once.
    assert tracing._covered([(0.0, 2.0), (1.0, 3.0)], 0.0, 4.0) == 3.0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_inputs_follow_the_seed(name, tmp_path):
    size = workloads.SIZES["quick"][name]

    def keys(seed: int, tag: str):
        scratch = tmp_path / tag
        scratch.mkdir()
        state = workloads.WORKLOADS[name].prepare(seed, size, scratch)
        return [spec.cache_key() for spec in state.specs]

    assert keys(1, "a") == keys(1, "b")
    assert keys(1, "c") != keys(2, "d")


def _synthetic_result(scale: float) -> dict:
    def metric(value: float) -> dict:
        samples = [value * f for f in (0.99, 1.0, 1.0, 1.01)]
        return {"value": value, "unit": "", "q1": samples[0], "q3": samples[-1],
                "n": len(samples), "samples": samples}

    metrics = {
        m["name"]: metric(10.0 * (scale if m["better"] == "lower" else 1 / scale))
        for m in BENCHMARK["end_to_end"]
    }
    return {
        "trace": 0,
        "environment": {"noisy": False},
        "workloads": {"fig-event": {
            "metrics": metrics, "failed_fraction": 0.0, "result_mismatches": 0,
        }},
    }


def test_compare_passes_an_identical_pair_and_flags_a_slowdown():
    base = _synthetic_result(1.0)
    same = compare.compare(base, copy.deepcopy(base), BENCHMARK)
    assert {row["verdict"] for row in same} == {"ok"}

    worst_bound = max(m["bound"] for m in BENCHMARK["end_to_end"])
    slow = compare.compare(base, _synthetic_result(1 + 2 * worst_bound), BENCHMARK)
    timing = [row for row in slow if row["metric"] != "correctness"]
    assert {row["verdict"] for row in timing} == {"regressed"}

    noisy = _synthetic_result(1 + 2 * worst_bound)
    noisy["environment"]["noisy"] = True
    refused = compare.compare(base, noisy, BENCHMARK)
    assert {r["verdict"] for r in refused if r["metric"] != "correctness"} == {"noisy"}

    broken = copy.deepcopy(base)
    broken["workloads"]["fig-event"]["result_mismatches"] = 1
    assert compare.compare(base, broken, BENCHMARK)[-1]["verdict"] == "BROKEN"
