"""Tests for the command-line interface."""

import json

import pytest

from repro.analysis.runner import make_pattern, parse_topology_spec
from repro.cli import main
from repro.topology import Hypercube, KAryNCube, Mesh2D


class TestParsers:
    """The CLI parses specs with the runner's functions; a bad spec or
    name is a usage error."""

    def test_mesh_spec(self):
        topo = parse_topology_spec("mesh:5x3")
        assert isinstance(topo, Mesh2D)
        assert topo.dims == (5, 3)

    def test_mesh_3d_spec(self):
        assert parse_topology_spec("mesh:3x3x3").n_dims == 3

    def test_cube_spec(self):
        topo = parse_topology_spec("cube:6")
        assert isinstance(topo, Hypercube)
        assert topo.order == 6

    def test_torus_spec(self):
        topo = parse_topology_spec("torus:8x2")
        assert isinstance(topo, KAryNCube)
        assert topo.k == 8 and topo.n_dims == 2

    def test_bad_specs_exit(self, capsys):
        for bad in ("mesh", "ring:5", "mesh:ax2", "cube:"):
            with pytest.raises(SystemExit) as excinfo:
                main(["verify", "xy", "--topology", bad])
            assert excinfo.value.code == 2
            assert "bad topology spec" in capsys.readouterr().err

    def test_mesh_algorithm_on_torus_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "west-first", "--topology", "torus:6x2"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "wraparound" in err and "negative-first+wrap1" in err

    def test_pattern_transpose_dispatches_on_topology(self):
        mesh_pat = make_pattern("transpose", Mesh2D(4, 4))
        cube_pat = make_pattern("transpose", Hypercube(4))
        assert type(mesh_pat).__name__ == "MeshTransposePattern"
        assert type(cube_pat).__name__ == "HypercubeTransposePattern"

    def test_unknown_pattern_exits(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "xy", "--topology", "mesh:4x4", "--pattern", "nope"])
        assert excinfo.value.code == 2
        assert "unknown pattern 'nope'" in capsys.readouterr().err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "west-first" in out and "uniform" in out and "fig13" in out

    def test_verify_good_algorithm(self, capsys):
        code = main(
            ["verify", "west-first", "--topology", "mesh:4x4", "--connectivity"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "deadlock free = True" in out
        assert "240/240" in out

    def test_turns(self, capsys):
        assert main(["turns", "negative-first"]) == 0
        assert "prohibited" in capsys.readouterr().out

    def test_turns_unknown_model(self):
        with pytest.raises(SystemExit):
            main(["turns", "mystery"])

    def test_simulate(self, capsys):
        code = main(
            [
                "simulate", "xy",
                "--topology", "mesh:4x4",
                "--pattern", "uniform",
                "--load", "0.5",
                "--warmup", "100",
                "--cycles", "500",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "xy" in out and "uniform" in out

    def test_sweep(self, capsys):
        code = main(
            [
                "sweep", "negative-first",
                "--topology", "mesh:4x4",
                "--loads", "0.3,0.6",
                "--warmup", "100",
                "--cycles", "400",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "max sustainable throughput" in out

    def test_simulate_array_backend_matches_event(self, capsys):
        pytest.importorskip("numpy")
        outputs = []
        for backend in ("event", "array"):
            code = main(
                [
                    "simulate", "west-first",
                    "--topology", "mesh:4x4",
                    "--load", "0.8",
                    "--warmup", "100",
                    "--cycles", "500",
                    "--backend", backend,
                ]
            )
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]  # bit-identical backends

    def test_sweep_array_backend(self, capsys):
        pytest.importorskip("numpy")
        code = main(
            [
                "sweep", "west-first",
                "--topology", "mesh:4x4",
                "--loads", "0.3,0.6",
                "--warmup", "100",
                "--cycles", "400",
                "--backend", "array",
                "--no-cache",
            ]
        )
        assert code == 0
        assert "max sustainable throughput" in capsys.readouterr().out

    def test_sweep_array_backend_prints_vectorized_coverage(self, capsys):
        pytest.importorskip("numpy")
        code = main(
            [
                "sweep", "west-first",
                "--topology", "mesh:4x4",
                "--loads", "0.3",
                "--warmup", "100",
                "--cycles", "400",
                "--backend", "array",
                "--no-cache",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[array backend: 1/1 point(s) vectorized (100%)]" in out

    def test_sweep_array_backend_prints_demotion_reasons(self, capsys):
        pytest.importorskip("numpy")
        code = main(
            [
                "sweep", "west-first",
                "--topology", "mesh:4x4",
                "--loads", "0.3",
                "--warmup", "100",
                "--cycles", "400",
                "--selection", "random",
                "--backend", "array",
                "--no-cache",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0/1 point(s) vectorized (0%)" in out
        assert "demoted by output-selection x1" in out

    def test_faults_array_coverage_counts_the_campaign_points(self, capsys):
        # 2 fault counts x 1 trial x 2 algorithms: the coverage line
        # covers those four configs — each with its own fault plan —
        # not the plan-free base config.
        pytest.importorskip("numpy")
        code = main(
            [
                "faults",
                "--topology", "mesh:4x4",
                "--algorithms", "xy,west-first",
                "--faults", "0,1",
                "--trials", "1",
                "--warmup", "50",
                "--cycles", "200",
                "--backend", "array",
                "--no-cache",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "[array backend: 0/4 point(s) vectorized (0%)" in out
        assert "demoted by faults x2, watchdog x4]" in out

    def test_backend_flag_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "simulate", "xy",
                    "--topology", "mesh:4x4",
                    "--load", "0.5",
                    "--backend", "gpu",
                ]
            )

    def test_figure_unknown_exits(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    def test_figure_runs_harness(self, capsys, monkeypatch):
        from repro.analysis.sweep import SweepSeries
        import repro.cli as cli

        def fake_harness(preset, progress=None, runner=None):
            return [SweepSeries("xy", "uniform", [])]

        monkeypatch.setitem(cli.FIGURE_HARNESSES, "fig13", fake_harness)
        assert main(["figure", "fig13"]) == 0
        out = capsys.readouterr().out
        assert "fig13" in out and "xy" in out

    def test_figure_accepts_bare_paper_number(self, capsys, monkeypatch):
        from repro.analysis.sweep import SweepSeries
        import repro.cli as cli

        seen = {}

        def fake_harness(preset, progress=None, runner=None):
            seen["preset"] = preset
            seen["runner"] = runner
            return [SweepSeries("xy", "uniform", [])]

        monkeypatch.setitem(cli.FIGURE_HARNESSES, "fig13", fake_harness)
        assert main(["figure", "13", "--no-cache", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "fig13" in out
        assert seen["runner"].jobs == 2
        assert seen["runner"].cache is None

    def test_figure_applies_every_config_flag(self, capsys, monkeypatch):
        from repro.analysis.sweep import SweepSeries
        import repro.cli as cli

        seen = {}

        def fake_harness(preset, progress=None, runner=None):
            seen["config"] = preset.config()
            return [SweepSeries("xy", "uniform", [])]

        monkeypatch.setitem(cli.FIGURE_HARNESSES, "fig13", fake_harness)
        argv = ["figure", "13", "--no-cache", "--max-retries", "2"]
        argv += ["--retry-backoff-base", "64", "--retry-backoff-cap", "128"]
        assert main(argv) == 0
        config = seen["config"]
        assert config.max_retries == 2
        assert config.retry_backoff_base == 64
        assert config.retry_backoff_cap == 128
        assert config.warmup_cycles == 1_500  # the preset's window stays

    def test_figure_preset_full(self, capsys, monkeypatch):
        from repro.analysis import FULL
        from repro.analysis.sweep import SweepSeries
        import repro.cli as cli

        seen = {}

        def fake_harness(preset, progress=None, runner=None):
            seen["preset"] = preset
            return [SweepSeries("xy", "uniform", [])]

        monkeypatch.setitem(cli.FIGURE_HARNESSES, "fig13", fake_harness)
        assert main(["figure", "13", "--preset", "full", "--no-cache"]) == 0
        assert seen["preset"] is FULL

    def test_sweep_parallel_with_cache_dir(self, capsys, tmp_path):
        argv = [
            "sweep", "xy",
            "--topology", "mesh:4x4",
            "--loads", "0.3,0.6",
            "--warmup", "100",
            "--cycles", "400",
            "--jobs", "2",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "2 simulated, 0 cached" in first

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 simulated, 2 cached" in second

        # The cached table rows are byte-identical to the simulated ones
        # (progress lines are excluded: with --jobs 2 they print in
        # completion order, which is not deterministic).
        import re

        table = lambda out: [  # noqa: E731
            line
            for line in out.splitlines()
            if re.match(r"^\s+\d", line)
        ]
        assert table(first) == table(second)
        assert len(table(first)) == 2

    def test_verify_reports_cycle_for_unsafe_relation(self, capsys):
        # The torus classified-NF is safe; spot-check the exit code of a
        # safe verify equals 0 (the unsafe path is covered by unit tests
        # of verify_turn_set; the CLI only exposes registered safe
        # algorithms).
        code = main(["verify", "p-cube", "--topology", "cube:4"])
        assert code == 0

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_simulate_with_virtual_channels(self, capsys):
        code = main(
            [
                "simulate", "dateline",
                "--topology", "torus:5x2",
                "--vc", "2",
                "--load", "0.5",
                "--warmup", "100",
                "--cycles", "600",
            ]
        )
        assert code == 0
        assert "dateline" in capsys.readouterr().out


class TestFaultsCommand:
    def test_faults_text_report(self, capsys):
        code = main(
            [
                "faults",
                "--topology", "mesh:5x5",
                "--algorithms", "xy,west-first",
                "--faults", "0,2",
                "--trials", "1",
                "--warmup", "200",
                "--cycles", "800",
                "--drain", "800",
                "--no-cache",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fault campaign: mesh:5x5" in out
        assert "xy" in out and "west-first" in out
        assert "ratio" in out

    def test_faults_json_report(self, capsys):
        import json

        code = main(
            [
                "faults",
                "--topology", "mesh:4x4",
                "--algorithms", "xy",
                "--faults", "1",
                "--trials", "1",
                "--warmup", "100",
                "--cycles", "400",
                "--drain", "400",
                "--no-cache",
                "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["topology"] == "mesh:4x4"
        assert data["cells"][0]["algorithm"] == "xy"
        assert "overall" in data

    def test_faults_bad_fault_list_exits(self):
        with pytest.raises(SystemExit):
            main(["faults", "--faults", "1,x", "--no-cache"])

    def test_faults_empty_algorithms_exits(self):
        with pytest.raises(SystemExit):
            main(["faults", "--algorithms", ",", "--no-cache"])

    def test_faults_unknown_algorithm_exits(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "faults",
                    "--topology", "mesh:4x4",
                    "--algorithms", "mystery",
                    "--faults", "1",
                    "--trials", "1",
                    "--cycles", "200",
                    "--no-cache",
                ]
            )


class TestRobustnessFlagValidation:
    def test_non_positive_deadlock_threshold_exits(self):
        with pytest.raises(SystemExit):
            main(["sweep", "xy", "--deadlock-threshold", "0"])

    def test_negative_packet_timeout_exits(self):
        with pytest.raises(SystemExit):
            main(["simulate", "xy", "--packet-timeout", "-5"])

    def test_negative_max_retries_exits(self):
        with pytest.raises(SystemExit):
            main(["faults", "--max-retries", "-1"])

    def test_non_positive_backoff_exits(self):
        with pytest.raises(SystemExit):
            main(["simulate", "xy", "--retry-backoff-base", "0"])
        with pytest.raises(SystemExit):
            main(["simulate", "xy", "--retry-backoff-cap", "-3"])

    def test_non_integer_threshold_exits(self):
        with pytest.raises(SystemExit):
            main(["sweep", "xy", "--deadlock-threshold", "many"])

    def test_simulate_accepts_watchdog_knobs(self, capsys):
        code = main(
            [
                "simulate", "xy",
                "--topology", "mesh:4x4",
                "--load", "0.5",
                "--warmup", "100",
                "--cycles", "400",
                "--packet-timeout", "500",
                "--max-retries", "1",
                "--deadlock-threshold", "2000",
            ]
        )
        assert code == 0
        assert "xy" in capsys.readouterr().out


class TestSelectionFlags:
    def test_unknown_policy_rejected_with_valid_list(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "xy", "--selection", "bogus"])
        assert excinfo.value.code == 2  # argparse usage error
        err = capsys.readouterr().err
        assert "invalid choice" in err and "bogus" in err
        # The error names every valid policy.
        for name in ("max-credits", "round-robin", "threshold", "xy"):
            assert name in err

    def test_help_documents_the_selection_flag(self, capsys):
        for command in ("simulate", "sweep", "figure", "faults", "trace"):
            with pytest.raises(SystemExit) as excinfo:
                main([command, "--help"])
            assert excinfo.value.code == 0
            out = capsys.readouterr().out
            assert "--selection" in out, f"{command} --help lacks --selection"
            assert "--selection-threshold" in out

    def test_negative_selection_threshold_exits(self):
        with pytest.raises(SystemExit):
            main(["simulate", "xy", "--selection-threshold", "-1"])

    def test_simulate_with_congestion_policy(self, capsys):
        code = main(
            [
                "simulate", "west-first",
                "--topology", "mesh:4x4",
                "--pattern", "transpose",
                "--load", "1.0",
                "--warmup", "100",
                "--cycles", "400",
                "--selection", "max-credits",
            ]
        )
        assert code == 0
        assert "west-first" in capsys.readouterr().out

    def test_list_shows_selection_policies(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "selection" in out and "max-credits" in out


class TestSelectionCommand:
    TINY = [
        "selection",
        "--topology", "mesh:4x4",
        "--algorithms", "west-first",
        "--patterns", "uniform",
        "--policies", "xy,max-credits",
        "--loads", "0.5,1.5",
        "--warmup", "50",
        "--cycles", "200",
        "--fault-links", "0",
        "--no-cache",
    ]

    def test_text_report(self, capsys):
        assert main(list(self.TINY)) == 0
        out = capsys.readouterr().out
        assert "selection-policy comparison: mesh:4x4" in out
        assert "max-credits" in out and "vs xy" in out

    def test_json_report(self, capsys):
        assert main(list(self.TINY) + ["--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["topology"] == "mesh:4x4"
        assert data["fault_links"] == 0
        assert {s["policy"] for s in data["series"]} == {"xy", "max-credits"}
        assert data["deltas_vs_xy"][0]["policy"] == "max-credits"

    def test_unknown_policy_exits_listing_known(self, capsys):
        argv = list(self.TINY)
        argv[argv.index("xy,max-credits")] = "xy,mystery"
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "mystery" in err
        assert "round-robin" in err

    def test_bad_loads_exits(self):
        argv = list(self.TINY)
        argv[argv.index("0.5,1.5")] = "0.5,x"
        with pytest.raises(SystemExit):
            main(argv)


class TestBenchCommand:
    def _patch_tiny_points(self, monkeypatch):
        import repro.cli as cli
        from repro.analysis.bench import PinnedPoint

        tiny = [
            PinnedPoint(
                id="tiny", topology="mesh:4x4", algorithm="west-first",
                pattern="uniform", offered_load=1.0, warmup_cycles=50,
                measure_cycles=200, seed=3, quick=True,
            )
        ]
        monkeypatch.setattr(
            cli, "bench_points", lambda quick=False, backend="event": tiny
        )

    def test_bench_writes_report(self, capsys, monkeypatch, tmp_path):
        self._patch_tiny_points(monkeypatch)
        out = tmp_path / "bench.json"
        assert main(["bench", "--quick", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "tiny" in text and "worm-steps" in text
        assert "/s" not in text  # pins, not rates
        report = json.loads(out.read_text())
        assert set(report) == {"schema", "points"}
        assert set(report["points"]["tiny"]) == {
            "spec", "fingerprint", "worm_steps", "bulk_flit_hops",
            "quiet_cycles",
        }

    def test_bench_gate_passes_against_itself(self, capsys, monkeypatch, tmp_path):
        self._patch_tiny_points(monkeypatch)
        committed = tmp_path / "committed.json"
        assert main(["bench", "--out", str(committed)]) == 0
        capsys.readouterr()
        assert main(["bench", "--check-against", str(committed)]) == 0
        assert "every pin equals" in capsys.readouterr().out

    def _tamper_and_check(self, capsys, monkeypatch, tmp_path, tamper):
        self._patch_tiny_points(monkeypatch)
        committed = tmp_path / "committed.json"
        assert main(["bench", "--out", str(committed)]) == 0
        data = json.loads(committed.read_text())
        tamper(data["points"]["tiny"])
        committed.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["bench", "--check-against", str(committed)]) == 1
        return capsys.readouterr().err

    def test_bench_gate_fails_on_fingerprint_change(
        self, capsys, monkeypatch, tmp_path
    ):
        def tamper(entry):
            entry["fingerprint"][0] += 1

        err = self._tamper_and_check(capsys, monkeypatch, tmp_path, tamper)
        assert "tiny: fingerprint changed" in err

    def test_bench_gate_fails_on_work_counter_change(
        self, capsys, monkeypatch, tmp_path
    ):
        def tamper(entry):
            entry["worm_steps"] += 1

        err = self._tamper_and_check(capsys, monkeypatch, tmp_path, tamper)
        assert "tiny: worm_steps changed" in err

    def test_bench_gate_fails_on_missing_and_orphaned_ids(
        self, capsys, monkeypatch, tmp_path
    ):
        self._patch_tiny_points(monkeypatch)
        committed = tmp_path / "committed.json"
        assert main(["bench", "--out", str(committed)]) == 0
        data = json.loads(committed.read_text())
        data["points"]["old-name"] = data["points"].pop("tiny")
        committed.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["bench", "--check-against", str(committed)]) == 1
        err = capsys.readouterr().err
        assert "tiny: not in the committed ledger" in err
        assert "old-name: committed, but no canonical point" in err

    def test_bench_exposes_only_the_ledger_flags(self):
        for flag in ("--repeats", "--label", "--no-batch"):
            with pytest.raises(SystemExit):
                main(["bench", flag, "1"])


class TestSupervisionFlags:
    """The crash-tolerance knobs threaded through the batch commands
    (docs/RESILIENCE.md)."""

    SWEEP = [
        "sweep", "xy",
        "--topology", "mesh:4x4",
        "--loads", "0.3,0.6",
        "--warmup", "100",
        "--cycles", "400",
    ]

    def test_journal_then_resume_skips_done_points(self, capsys, tmp_path):
        argv = self.SWEEP + [
            "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--journal", str(tmp_path / "campaign.jsonl"),
        ]
        assert main(argv) == 0
        assert "2 simulated, 0 cached" in capsys.readouterr().out

        # --force normally re-simulates; journaled points are exempt.
        assert main(argv + ["--resume", "--force"]) == 0
        assert "0 simulated, 2 cached" in capsys.readouterr().out

    def test_resume_without_journal_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(self.SWEEP + ["--resume"])

    def test_keep_going_failure_exits_3_with_manifest(
        self, capsys, tmp_path, monkeypatch
    ):
        import repro.cli as cli
        from repro.analysis import chaos_batch

        # Wrap every spec the sweep submits in a permanently raising
        # chaos harness, so the command exercises the failure path.
        original = cli.ParallelSweepRunner.run_batch

        def sabotaged(self, specs, progress=None):
            return original(
                self,
                chaos_batch(
                    specs,
                    chaos_seed=0,
                    failure_rate=1.1,
                    fail_attempts=10 ** 9,
                ),
                progress=progress,
            )

        monkeypatch.setattr(
            cli.ParallelSweepRunner, "run_batch", sabotaged
        )
        manifest = tmp_path / "manifest.jsonl"
        code = main(
            self.SWEEP + [
                "--no-cache",
                "--keep-going",
                "--point-timeout", "5",
                "--failure-manifest", str(manifest),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "permanently failed" in err
        lines = manifest.read_text().strip().splitlines()
        assert len(lines) == 2
        assert all(
            json.loads(line)["cause"] in ("crash", "timeout", "exception")
            for line in lines
        )

    def test_bad_supervision_values_exit(self):
        with pytest.raises(SystemExit):
            main(self.SWEEP + ["--point-timeout", "0"])
        with pytest.raises(SystemExit):
            main(self.SWEEP + ["--max-point-retries", "-1"])

    def test_saturation_command(self, capsys):
        code = main(
            [
                "saturation",
                "--topology", "mesh:4x4",
                "--algorithms", "xy,west-first",
                "--warmup", "100",
                "--cycles", "400",
                "--iterations", "2",
                "--high", "4.0",
                "--jobs", "2",
                "--no-cache",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "xy" in out and "west-first" in out

    def test_saturation_json(self, capsys):
        code = main(
            [
                "saturation",
                "--topology", "mesh:4x4",
                "--algorithms", "xy",
                "--warmup", "100",
                "--cycles", "400",
                "--iterations", "1",
                "--high", "4.0",
                "--no-cache",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["points"][0]["algorithm"] == "xy"
