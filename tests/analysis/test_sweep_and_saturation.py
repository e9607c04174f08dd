"""Tests for the sweep and saturation harness (small, fast runs)."""

import pytest

from repro.analysis import (
    SweepSeries,
    compare_algorithms,
    find_saturation,
    find_saturation_many,
    format_figure,
    format_saturation_points,
    format_saturation_summary,
    paper_hop_counts,
    run_sweep,
)
from repro.routing import WestFirst, XY
from repro.simulation import SimulationConfig
from repro.simulation.array_engine import (
    ArrayWormholeSimulator,
    BatchSimulator,
    numpy_available,
)
from repro.topology import Mesh2D
from repro.traffic import UniformPattern


FAST = SimulationConfig(warmup_cycles=200, measure_cycles=800, seed=1)


class TestSweep:
    def test_run_sweep_collects_one_result_per_load(self):
        mesh = Mesh2D(6, 6)
        series = run_sweep(
            XY(mesh), UniformPattern(mesh), [0.2, 0.5], FAST
        )
        assert len(series.results) == 2
        assert [r.offered_load for r in series.results] == [0.2, 0.5]
        assert series.algorithm == "xy"

    def test_points_and_rows(self):
        mesh = Mesh2D(6, 6)
        series = run_sweep(XY(mesh), UniformPattern(mesh), [0.3], FAST)
        (thr, lat), = series.points()
        assert thr >= 0
        rows = series.rows()
        assert any("xy" in r for r in rows)

    def test_rows_distinguish_close_low_loads(self):
        # Regression: a one-decimal offered-load column collapsed 0.02
        # and 0.04 flits/us/node into identical rows on small networks.
        mesh = Mesh2D(4, 4)
        series = run_sweep(
            XY(mesh), UniformPattern(mesh), [0.002, 0.004], FAST
        )
        offered_cells = [
            row.split()[0] for row in series.rows()[1:]
        ]
        assert len(set(offered_cells)) == 2, (
            f"rows collapsed distinct offered loads: {offered_cells}"
        )

    def test_max_sustainable_picks_sustainable_points_only(self):
        results = run_sweep(
            XY(Mesh2D(5, 5)), UniformPattern(Mesh2D(5, 5)), [0.2], FAST
        ).results
        series = SweepSeries("xy", "uniform", results)
        assert series.max_sustainable_throughput() >= 0

    def test_compare_algorithms_builds_per_algorithm_series(self):
        mesh = Mesh2D(5, 5)
        series = compare_algorithms(
            [XY(mesh), WestFirst(mesh)],
            lambda topo: UniformPattern(topo),
            [0.3],
            FAST,
        )
        assert [s.algorithm for s in series] == ["xy", "west-first"]

    def test_progress_callback_invoked(self):
        mesh = Mesh2D(5, 5)
        seen = []
        run_sweep(
            XY(mesh), UniformPattern(mesh), [0.2, 0.4], FAST,
            progress=seen.append,
        )
        assert len(seen) == 2


class TestSaturation:
    def test_bisection_brackets_the_knee(self):
        mesh = Mesh2D(6, 6)
        point = find_saturation(
            XY(mesh),
            UniformPattern(mesh),
            FAST,
            low=0.0,
            high=16.0,
            iterations=4,
        )
        assert 0.0 < point.max_sustainable_load < 16.0
        assert point.probes >= 4

    def test_sustainable_ceiling_is_reported(self):
        mesh = Mesh2D(4, 4)
        point = find_saturation(
            XY(mesh),
            UniformPattern(mesh),
            FAST,
            low=0.0,
            high=0.01,  # trivially sustainable
            iterations=2,
        )
        assert point.max_sustainable_load >= 0.01


class TestClaimsHelpers:
    def test_paper_hop_counts_match_section6(self):
        hops = paper_hop_counts()
        assert float(hops["mesh-transpose"]) == pytest.approx(11.34, abs=0.01)
        assert float(hops["cube-uniform"]) == pytest.approx(4.01, abs=0.01)
        assert float(hops["cube-reverse-flip"]) == pytest.approx(4.27, abs=0.01)
        assert float(hops["mesh-uniform"]) == pytest.approx(10.67, abs=0.01)

    def test_formatters_render(self):
        mesh = Mesh2D(5, 5)
        series = compare_algorithms(
            [XY(mesh), WestFirst(mesh)],
            lambda topo: UniformPattern(topo),
            [0.3],
            FAST,
        )
        text = format_figure("Figure X", series)
        assert "Figure X" in text and "west-first" in text
        summary = format_saturation_summary(series)
        assert "max sustainable" in summary

    def test_format_saturation_points(self):
        mesh = Mesh2D(4, 4)
        point = find_saturation(
            XY(mesh), UniformPattern(mesh), FAST, high=8.0, iterations=2
        )
        text = format_saturation_points([point])
        assert "xy" in text


class TestLatencyChart:
    def test_chart_renders_markers_and_legend(self):
        from repro.analysis import render_latency_chart

        mesh = Mesh2D(5, 5)
        series = compare_algorithms(
            [XY(mesh), WestFirst(mesh)],
            lambda topo: UniformPattern(topo),
            [0.3, 0.6],
            FAST,
        )
        chart = render_latency_chart(series)
        assert "x=xy" in chart and "o=west-first" in chart
        assert "flits/us delivered" in chart
        assert "x" in chart.splitlines()[2] or any(
            "x" in line for line in chart.splitlines()
        )

    def test_chart_handles_empty_series(self):
        from repro.analysis import render_latency_chart
        from repro.analysis.sweep import SweepSeries

        chart = render_latency_chart([SweepSeries("xy", "uniform", [])])
        assert "no delivered traffic" in chart

    def test_figure_includes_chart(self):
        mesh = Mesh2D(5, 5)
        series = compare_algorithms(
            [XY(mesh)], lambda topo: UniformPattern(topo), [0.3], FAST
        )
        text = format_figure("F", series)
        assert "legend:" in text
        plain = format_figure("F", series, chart=False)
        assert "legend:" not in plain


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
class TestArrayBackendWithoutRunner:
    """``config.backend`` reaches the engine when no runner is given."""

    @staticmethod
    def _count_runs(monkeypatch, *classes):
        calls = []
        for cls in classes:
            def spy(self, run=cls.run):
                calls.append(type(self).__name__)
                return run(self)

            monkeypatch.setattr(cls, "run", spy)
        return calls

    def test_run_sweep_batches_array_points(self, monkeypatch):
        mesh = Mesh2D(6, 6)
        calls = self._count_runs(monkeypatch, BatchSimulator)
        array = run_sweep(
            XY(mesh), UniformPattern(mesh), [0.2, 0.5],
            FAST.with_backend("array"),
        )
        assert calls == ["BatchSimulator"]
        event = run_sweep(XY(mesh), UniformPattern(mesh), [0.2, 0.5], FAST)
        assert array.results == event.results

    def test_find_saturation_probes_on_the_array_engine(self, monkeypatch):
        mesh = Mesh2D(4, 4)
        # A lone probe is a one-point task (ArrayWormholeSimulator, the
        # array engine's batch of one); two searches' probes batch.
        calls = self._count_runs(
            monkeypatch, BatchSimulator, ArrayWormholeSimulator
        )
        pairs = [
            (XY(mesh), UniformPattern(mesh)),
            (WestFirst(mesh), UniformPattern(mesh)),
        ]
        array = FAST.with_backend("array")
        single = find_saturation(
            *pairs[0], array, high=8.0, iterations=2, runner=None
        )
        assert calls.count("ArrayWormholeSimulator") == single.probes
        many = find_saturation_many(pairs, array, high=8.0, iterations=2)
        assert "BatchSimulator" in calls
        assert single == find_saturation(
            *pairs[0], FAST, high=8.0, iterations=2
        )
        assert many == find_saturation_many(
            pairs, FAST, high=8.0, iterations=2
        )
