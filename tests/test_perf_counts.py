"""The ``ledger`` and ``cold-pass`` blocks of docs/PERFORMANCE.md are
what ``scripts/perf_counts.py`` computes now (about 3 s, nearly all of
it the cold pass).  A hand edit, a re-recorded ``BENCH_engine.json`` or
a change in how many questions a cold routing table asks fails here.
The ``decision-keys`` block, about 7 s, is checked in
``tests/routing/wide_decision_keys.py``.  Regenerate with ``python
scripts/perf_counts.py``.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.analysis.claims import splice

REPO = Path(__file__).resolve().parents[1]
DOC = REPO / "docs" / "PERFORMANCE.md"


@pytest.fixture(scope="module")
def script():
    path = REPO / "scripts" / "perf_counts.py"
    spec = importlib.util.spec_from_file_location("perf_counts_script", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_current(script, name):
    text = DOC.read_text(encoding="utf-8")
    assert splice(text, {name: script.BLOCKS[name]()}) == text, (
        f"the {name} block is stale: run python scripts/perf_counts.py"
    )


def test_the_ledger_block_is_current(script):
    assert_current(script, "ledger")


def test_the_cold_pass_block_is_current(script):
    pytest.importorskip("numpy")  # three workloads run on the array backend
    assert_current(script, "cold-pass")

