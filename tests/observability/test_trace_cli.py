"""The ``repro trace`` subcommand, ``--version``, and ``--profile``."""

import json

import pytest

from repro.cli import main
from repro.observability import read_trace, summarize_trace


def _trace_argv(tmp_path, *extra):
    return [
        "trace", "west-first",
        "--topology", "mesh:4x4",
        "--pattern", "uniform",
        "--load", "0.8",
        "--warmup", "100",
        "--cycles", "800",
        "--seed", "1",  # seed 0 generates nothing in so short a window
        "--out", str(tmp_path / "trace.jsonl"),
        *extra,
    ]


class TestTraceCommand:
    def test_writes_a_valid_trace_and_summary(self, tmp_path, capsys):
        assert main(_trace_argv(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "trace:" in out and "events" in out
        assert "delivered" in out

        header, events = read_trace(tmp_path / "trace.jsonl")
        assert header["schema"] == 1
        assert header["topology"] == "mesh:4x4"
        assert header["algorithm"] == "west-first"
        assert "config_hash" in header
        summary = summarize_trace(events)
        assert summary.counts_by_kind["injected"] > 0
        assert summary.counts_by_kind["delivered"] > 0

    def test_json_output_carries_run_and_trace(self, tmp_path, capsys):
        assert main(_trace_argv(tmp_path, "--json")) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["point"]["algorithm"] == "west-first"
        assert payload["result"]["delivered_packets"] > 0
        assert payload["result"]["latency_histogram"]
        assert payload["trace"]["counts_by_kind"]["injected"] > 0
        assert payload["trace_file"].endswith("trace.jsonl")

    def test_event_filter_keeps_only_named_kinds(self, tmp_path):
        argv = _trace_argv(tmp_path, "--events", "injected,delivered")
        assert main(argv) == 0
        _, events = read_trace(tmp_path / "trace.jsonl")
        kinds = {event.kind for event in events}
        assert kinds == {"injected", "delivered"}

    def test_unknown_event_kind_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(_trace_argv(tmp_path, "--events", "teleported"))

    def test_heatmap_file_renders_all_directions(self, tmp_path, capsys):
        heatmap = tmp_path / "heat.txt"
        argv = _trace_argv(tmp_path, "--heatmap", str(heatmap))
        assert main(argv) == 0
        text = heatmap.read_text()
        for compass in ("west", "east", "south", "north"):
            assert compass in text

    def test_heatmap_requires_a_2d_mesh(self, tmp_path):
        argv = [
            "trace", "p-cube",
            "--topology", "cube:4",
            "--load", "0.5",
            "--warmup", "100",
            "--cycles", "300",
            "--out", str(tmp_path / "t.jsonl"),
            "--heatmap", "-",
        ]
        with pytest.raises(SystemExit):
            main(argv)

    def test_profile_prints_phase_table(self, tmp_path, capsys):
        assert main(_trace_argv(tmp_path, "--profile")) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "allocate" in out

    def test_profile_in_json_payload(self, tmp_path, capsys):
        assert main(_trace_argv(tmp_path, "--json", "--profile")) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["profile"]["allocate"]["calls"] > 0

    def test_series_period_must_be_positive(self, tmp_path):
        with pytest.raises(SystemExit):
            main(_trace_argv(tmp_path, "--series-period", "0"))


class TestVersionFlag:
    def test_version_prints_and_exits(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_simulate_profile_flag(self, capsys):
        def profile(load):
            code = main(
                [
                    "simulate", "xy",
                    "--topology", "mesh:4x4",
                    "--load", load,
                    "--warmup", "100",
                    "--cycles", "300",
                    "--profile",
                ]
            )
            assert code == 0
            return capsys.readouterr().out

        # No message arrives in this short window: every cycle is quiet.
        out = profile("0.5")
        assert "phase" in out and "quiet" in out
        out = profile("4.0")  # moves flits: the stages run
        assert "phase" in out and "advance" in out
