"""Tests for the per-figure experiment harnesses (tiny presets)."""

from repro.analysis import (
    FIGURE_HARNESSES,
    ExperimentPreset,
    figure14_mesh_transpose,
    section5_pcube_table,
)
from repro.routing import TurnRestrictedMinimal


TINY = ExperimentPreset(
    warmup_cycles=100,
    measure_cycles=400,
    mesh_loads=(0.3,),
    cube_loads=(0.5,),
)


class TestFigureHarnesses:
    def test_registry_contains_every_figure(self):
        assert set(FIGURE_HARNESSES) == {"fig13", "fig14", "fig15", "fig16"}

    def test_fig13_runs_the_mesh_lineup(self):
        series = FIGURE_HARNESSES["fig13"](TINY)
        assert [s.algorithm for s in series] == [
            "xy", "west-first", "north-last", "negative-first",
        ]
        assert all(s.pattern == "uniform" for s in series)

    def test_fig14_uses_transpose(self):
        series = FIGURE_HARNESSES["fig14"](TINY)
        assert all(s.pattern == "transpose" for s in series)

    def test_fig15_runs_the_cube_lineup(self):
        series = FIGURE_HARNESSES["fig15"](TINY)
        assert [s.algorithm for s in series] == [
            "e-cube", "abonf", "abopl", "p-cube",
        ]
        assert all(s.pattern == "transpose" for s in series)

    def test_fig16_uses_reverse_flip(self):
        series = FIGURE_HARNESSES["fig16"](TINY)
        assert all(s.pattern == "reverse-flip" for s in series)

    def test_every_series_has_one_result_per_load(self):
        for name, harness in FIGURE_HARNESSES.items():
            for s in harness(TINY):
                assert len(s.results) == 1, name


class TestSection5Harness:
    def test_table_matches_paper(self):
        rows = section5_pcube_table()
        assert [r.minimal_choices for r in rows] == [3, 2, 1, 3, 2, 1, 0]
        assert [r.nonminimal_extra for r in rows] == [2, 2, 2, 0, 0, 0, 0]
        assert rows[0].address == "1011010100"
        assert rows[-1].address == "0010111001"


def test_a_repeated_figure_reuses_the_shared_network_objects(monkeypatch):
    """The harnesses build their algorithms through the process-wide
    memos, so a second figure builds no algorithm object (west-first,
    north-last and negative-first are turn-restricted tables)."""
    figure14_mesh_transpose(TINY)
    built = []
    original = TurnRestrictedMinimal.__init__

    def counting(self, *args, **kwargs):
        built.append(type(self).__name__)
        original(self, *args, **kwargs)

    monkeypatch.setattr(TurnRestrictedMinimal, "__init__", counting)
    figure14_mesh_transpose(TINY)
    assert built == []
