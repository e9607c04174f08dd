"""Section 6's claims, evaluated over the committed experiment data.

``scripts/collect_experiments.py`` runs Figures 13-16 and the
cube-uniform reference once per seed and writes
``docs/data/experiments.json`` (:func:`format_experiments`): each
operating point's delivered throughput, latency, sustainability and
mean hops, plus the exact quantities of :func:`exact_quantities`.

Each claim in :data:`CLAIMS` is a per-seed *paired* ratio, oriented so
that the paper predicts ``ratio >= F``.  Its interval is [min, max] over
the seeds: with eight seeds it covers the median with probability
``1 - 2**-7``, whatever the distribution.  :func:`verdict` reads it.
The paper's figure shapes are per-seed floors, and
:func:`floor_findings` lists each seed that breaks one.
:func:`render_blocks` renders the tables that :func:`splice` writes
between EXPERIMENTS.md's generated-block markers.
"""

from __future__ import annotations

import json
import math
import re
from collections import namedtuple
from fractions import Fraction
from typing import Dict, List, Sequence

SCHEMA = 1

MESH = ("xy", "west-first", "north-last", "negative-first")
CUBE = ("e-cube", "abonf", "abopl", "p-cube")
XY, NF, ECUBE = ("xy",), ("negative-first",), ("e-cube",)

# figure id -> (title, algorithm lineup, key of its analytic mean hops)
FIGURES = {
    "fig13": ("Figure 13: uniform, 16x16 mesh", MESH, "mesh-uniform"),
    "fig14": ("Figure 14: transpose, 16x16 mesh", MESH, "mesh-transpose"),
    "fig15": ("Figure 15: transpose, 8-cube", CUBE, "cube-transpose"),
    "fig16": ("Figure 16: reverse-flip, 8-cube", CUBE, "cube-reverse-flip"),
    "cube-uniform": ("Reference: uniform, 8-cube", CUBE, "cube-uniform"),
}

# Section 6's quoted mean path lengths and the tolerance that calls ours
# exact (the paper's 10.61 is a measured mean; the exact one is 32/3).
PAPER_HOPS = {
    "mesh-uniform": (10.61, 0.08),
    "mesh-transpose": (11.34, 0.01),
    "cube-uniform": (4.01, 0.01),
    "cube-reverse-flip": (4.27, 0.01),
}

# One simulated operating point, one line of the data file: offered load
# in flits/us/node, delivered throughput in flits/us, latency in us (None
# when nothing was delivered), sustainable, mean hops.
Row = namedtuple(
    "Row", "figure algorithm seed load throughput latency sustainable hops"
)
COLUMNS = list(Row._fields)


class Experiments:
    """A checked data file, indexed by (figure, algorithm, seed)."""

    def __init__(self, seeds, loads, rows, exact):
        self.seeds, self.loads, self.rows, self.exact = seeds, loads, rows, exact
        self._series: Dict[tuple, List[Row]] = {}
        for row in sorted(rows, key=lambda row: row.load):
            key = (row.figure, row.algorithm, row.seed)
            self._series.setdefault(key, []).append(row)

    def series(self, figure: str, algorithm: str, seed: int) -> List[Row]:
        """One sweep, in load order."""
        return self._series[figure, algorithm, seed]

    def best(self, figure: str, algorithm: str, seed: int) -> float:
        """Max sustainable throughput: the highest delivered throughput
        of a sustainable point (0 when none is)."""
        series = self.series(figure, algorithm, seed)
        return max((r.throughput for r in series if r.sustainable), default=0.0)

    def top(self, figure: str, algorithm: str, seed: int) -> Row:
        """The point at the top load of the figure's grid."""
        return self.series(figure, algorithm, seed)[-1]


def format_experiments(seeds, loads, rows, exact, preset) -> str:
    """The data file: one JSON document with one row per line, rows in
    (figure, lineup, seed, load) order whatever order they ran in."""
    order = [(f, a) for f, (_, lineup, _) in FIGURES.items() for a in lineup]
    rows = sorted(rows, key=lambda r: (order.index(r[:2]), r.seed, r.load))
    head = {
        "schema": SCHEMA,
        "seeds": list(seeds),
        "preset": preset,
        "loads": loads,
        "exact": {
            group: {name: str(value) for name, value in values.items()}
            for group, values in exact.items()
        },
        "columns": COLUMNS,
        "rows": None,
    }
    lines = ",\n".join(json.dumps(r) for r in rows)
    return json.dumps(head)[: -len("null}")] + "[\n" + lines + "\n]}\n"


def load_experiments(path) -> Experiments:
    """Read and check a data file.  Every problem is a ``ValueError``
    naming it: the schema, a field, a figure, an algorithm or a seed."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
        if doc["schema"] != SCHEMA:
            raise ValueError(f"schema {doc['schema']!r}; this reader needs {SCHEMA}")
        if doc["columns"] != COLUMNS:
            raise ValueError(f"columns {doc['columns']}; expected {COLUMNS}")
        rows = [Row(*values) for values in doc["rows"]]
        exact = {
            group: {name: Fraction(value) for name, value in values.items()}
            for group, values in doc["exact"].items()
        }
        seeds, loads = tuple(doc["seeds"]), dict(doc["loads"])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValueError(f"{path}: bad experiment data: {exc!r}") from None
    for group in {"hops", "adaptiveness", "single-path"} - set(exact):
        raise ValueError(f"{path}: experiment data is missing exact {group}")
    grids: Dict[tuple, list] = {}
    for r in rows:
        grids.setdefault((r.figure, r.algorithm, r.seed), []).append(r.load)
    for figure, (_, lineup, _) in FIGURES.items():
        for algorithm in lineup:
            for seed in seeds:
                grid = sorted(grids.get((figure, algorithm, seed), ()))
                if grid == loads.get(figure):
                    continue
                if not any(key[0] == figure for key in grids):
                    missing = f"figure {figure}"
                elif not any(key[:2] == (figure, algorithm) for key in grids):
                    missing = f"algorithm {algorithm} in {figure}"
                else:
                    missing = f"seed {seed} of {algorithm} in {figure} (or a load)"
                raise ValueError(f"{path}: experiment data is missing {missing}")
    return Experiments(seeds, loads, rows, exact)


def paper_hop_counts() -> Dict[str, Fraction]:
    """Section 6's exact mean path lengths on the paper's networks: mesh
    uniform (the paper's 10.61; exactly 32/3), mesh transpose (11.34),
    cube uniform (4.01), cube reverse-flip (4.27), cube transpose."""
    from ..topology import Hypercube, Mesh2D
    from ..traffic.patterns import (
        HypercubeTransposePattern,
        MeshTransposePattern,
        ReverseFlipPattern,
        uniform_average_hops,
    )

    mesh, cube = Mesh2D(16, 16), Hypercube(8)
    return {
        "mesh-uniform": uniform_average_hops(mesh),
        "mesh-transpose": MeshTransposePattern(mesh).average_hops(),
        "cube-uniform": uniform_average_hops(cube),
        "cube-reverse-flip": ReverseFlipPattern(cube).average_hops(),
        "cube-transpose": HypercubeTransposePattern(cube).average_hops(),
    }


def exact_quantities() -> Dict[str, Dict[str, Fraction]]:
    """The data file's exact part: :func:`paper_hop_counts`, and on the
    16x16 mesh each 2D algorithm's mean S_p/S_f and share of pairs with
    one shortest path (Section 3.4)."""
    from ..core import adaptiveness
    from ..topology import Mesh2D

    mesh = Mesh2D(16, 16)
    pairs = [(s, d) for s in mesh.nodes() for d in mesh.nodes() if s != d]
    formulas = {
        "west-first": adaptiveness.s_west_first,
        "north-last": adaptiveness.s_north_last,
        "negative-first": adaptiveness.s_negative_first,
    }
    return {
        "hops": paper_hop_counts(),
        "adaptiveness": {
            name: adaptiveness.average_adaptiveness_ratio(mesh, s)
            for name, s in formulas.items()
        },
        "single-path": {
            name: Fraction(sum(s(mesh, a, b) == 1 for a, b in pairs), len(pairs))
            for name, s in formulas.items()
        },
    }


class Claim(namedtuple("Claim", "label factor floor num den")):
    """The paper predicts ``num / den >= factor``, where a term is
    (figure, algorithms) and stands for the best max sustainable
    throughput among them.  The figure's shape needs ``>= floor`` on
    every seed (``None``: no floor)."""

    def ratio(self, data: Experiments, seed: int) -> float:
        num, den = (
            max(data.best(figure, a, seed) for a in algorithms)
            for figure, algorithms in (self.num, self.den)
        )
        return num / den if den else math.inf

    def ratio_text(self) -> str:
        """E.g. ``best adaptive / xy``; each side names its figure when
        the two differ."""

        def side(figure, algorithms):
            names = "/".join(algorithms)
            if algorithms == FIGURES[figure][1][1:]:
                names = "best adaptive"
            elif len(algorithms) > 1:
                names = f"best of {names}"
            return names if self.num[0] == self.den[0] else f"{names} ({figure})"

        return f"{side(*self.num)} / {side(*self.den)}"


CLAIMS = (
    Claim("Fig. 13", 1, 0.8, ("fig13", XY), ("fig13", MESH[1:])),
    Claim("Fig. 14", 2, 1, ("fig14", MESH[1:]), ("fig14", XY)),
    Claim('Fig. 14, "NF best"', 1, None, ("fig14", NF), ("fig14", MESH[:3])),
    Claim("Fig. 15", 2, 1.3, ("fig15", CUBE[1:]), ("fig15", ECUBE)),
    Claim("Fig. 16", 4, 1.5, ("fig16", CUBE[1:]), ("fig16", ECUBE)),
    Claim("cube best point", 1.5, None, ("fig16", CUBE[1:]), ("cube-uniform", ECUBE)),
    Claim("mesh best point", 1.3, None, ("fig14", NF), ("fig13", XY)),
)

# (figure, algorithms, baseline, column): at the top load each algorithm
# beats the baseline, by lower latency or by higher delivered throughput.
TOP_LOAD_FLOORS = (
    ("fig14", ("west-first", "north-last"), "xy", "latency"),
    ("fig15", ("abonf", "p-cube"), "e-cube", "latency"),
    ("fig16", CUBE[1:], "e-cube", "latency"),
    ("fig16", CUBE[1:], "e-cube", "throughput"),
)


def verdict(lo: float, hi: float, factor: float) -> str:
    """The interval must clear 1 to show the paper's direction, and
    reach its factor to reproduce it."""
    if lo > 1:
        return "reproduced" if hi >= factor else "direction-only"
    return "not-reproduced"


def evaluate(data: Experiments) -> list:
    """(claim, per-seed ratios, verdict) for each claim."""
    out = []
    for claim in CLAIMS:
        values = [claim.ratio(data, seed) for seed in data.seeds]
        out.append((claim, values, verdict(min(values), max(values), claim.factor)))
    return out


def _broken_floors(data: Experiments, seed: int):
    """The text of each per-seed floor this seed breaks."""
    for claim in CLAIMS:
        if claim.floor is not None and claim.ratio(data, seed) < claim.floor:
            yield f"{claim.label}: {claim.ratio_text()} >= {claim.floor:g}"
    for figure, algorithms, baseline, column in TOP_LOAD_FLOORS:
        sign = -1 if column == "latency" else 1
        score = {
            a: getattr(data.top(figure, a, seed), column)
            for a in (*algorithms, baseline)
        }
        score = {a: -math.inf if v is None else sign * v for a, v in score.items()}
        if not all(score[a] > score[baseline] for a in algorithms):
            who = "/".join(algorithms)
            yield f"{figure}: {who} beat {baseline}'s {column} at the top load"
    lowest = [
        (data.series(figure, a, seed)[0], float(data.exact["hops"][hops]))
        for figure, (_, lineup, hops) in FIGURES.items()
        for a in lineup
    ]
    if not all(r.throughput > 0 for r, _ in lowest):
        yield "every series delivers traffic at its lowest load"
    r, hops = max(lowest, key=lambda pair: abs(pair[0].hops / pair[1] - 1))
    if abs(r.hops / hops - 1) > 0.05:
        yield (
            "mean hops at the lowest load are within 5% of the analytic mean "
            f"(worst: {r.figure} {r.algorithm} {r.hops:.2f} vs {hops:.2f})"
        )
    wf, nl = (data.series("fig14", a, seed) for a in ("west-first", "north-last"))
    if [r[3:] for r in wf] != [r[3:] for r in nl]:
        yield "fig14: west-first and north-last rows are equal at every load"


def _exact_rows(data: Experiments):
    """(quantity, paper, ours, verdict) for each exact quantity."""
    for name, value in data.exact["hops"].items():
        paper, tolerance = PAPER_HOPS.get(name, ("—", math.inf))
        ok = paper == "—" or abs(float(value) - paper) <= tolerance
        ours = f"{value} = {float(value):.4f}"
        yield f"mean hops, {name}", paper, ours, "exact" if ok else "not-reproduced"
    for group, quantity, paper, holds in (
        ("adaptiveness", "mean S_p/S_f", "> 1/2", lambda v: Fraction(1, 2) < v <= 1),
        ("single-path", "share of pairs with S_p = 1", "≥ 1/2", lambda v: v > 0.45),
    ):
        for name, value in data.exact[group].items():
            result = "reproduced" if holds(value) else "not-reproduced"
            yield f"{quantity}, {name} (16x16)", paper, f"{float(value):.4f}", result


def floor_findings(data: Experiments) -> List[str]:
    """Each broken floor, seed by seed, then each exact quantity off the
    paper.  Empty when the data has the paper's shapes."""
    findings = [
        f"seed {seed} breaks: {text}"
        for seed in data.seeds
        for text in _broken_floors(data, seed)
    ]
    for quantity, _, _, result in _exact_rows(data):
        if result == "not-reproduced":
            findings.append(f"{quantity} is off the paper")
    return findings


def _spread(values: Sequence[float], digits: int) -> str:
    """``mean [min, max]``."""
    mean, lo, hi = sum(values) / len(values), min(values), max(values)
    return f"{mean:.{digits}f} [{lo:.{digits}f}, {hi:.{digits}f}]"


def render_scoreboard(data: Experiments) -> str:
    seeds = f"seeds {data.seeds[0]}–{data.seeds[-1]}"
    lines = [
        f"| Claim | Paired ratio | Paper | Mean [min, max], {seeds} | > 1 on "
        "| Verdict |",
        "|---|---|---|---|---|---|",
    ]
    for claim, values, result in evaluate(data):
        lines.append(
            f"| {claim.label} | {claim.ratio_text()} | ≥ {claim.factor:g} "
            f"| {_spread(values, 3)} | {sum(v > 1 for v in values)}/{len(values)} "
            f"| **{result}** |"
        )
    for quantity, paper, ours, result in _exact_rows(data):
        lines.append(f"| {quantity} | exact | {paper} | {ours} | | **{result}** |")
    findings = floor_findings(data)
    lines.append("")
    lines.append(f"Per-seed shape floors broken: {len(findings)}.")
    lines.extend(f"- {finding}" for finding in findings)
    return "\n".join(lines)


def render_figure(data: Experiments, figure: str) -> str:
    title, lineup, _ = FIGURES[figure]
    top = data.loads[figure][-1]
    lines = [
        f"{title}; mean [min, max] over {len(data.seeds)} seeds.",
        "",
        f"| Algorithm | Max sustainable (fl/us) | Paired ratio / {lineup[0]} "
        f"| Latency at load {top:g} (us) | Delivered at load {top:g} (fl/us) |",
        "|---|---|---|---|---|",
    ]
    base = [data.best(figure, lineup[0], s) for s in data.seeds]
    for algorithm in lineup:
        best = [data.best(figure, algorithm, s) for s in data.seeds]
        ratios = [b / a if a else math.inf for a, b in zip(base, best)]
        tops = [data.top(figure, algorithm, s) for s in data.seeds]
        latency = [r.latency for r in tops if r.latency is not None]
        lines.append(
            f"| {algorithm} | {_spread(best, 1)} "
            f"| {'—' if algorithm == lineup[0] else _spread(ratios, 3)} "
            f"| {_spread(latency, 2) if len(latency) == len(tops) else 'n/a'} "
            f"| {_spread([r.throughput for r in tops], 1)} |"
        )
    return "\n".join(lines)


BLOCKS = ("scoreboard", *FIGURES)


def render_blocks(data: Experiments) -> Dict[str, str]:
    """Every generated block of EXPERIMENTS.md, by marker name."""
    blocks = {figure: render_figure(data, figure) for figure in FIGURES}
    return {"scoreboard": render_scoreboard(data), **blocks}


def splice(text: str, blocks: Dict[str, str]) -> str:
    """Replace each named block between its markers
    (``<!-- generated: NAME -->`` ... ``<!-- end generated: NAME -->``).
    A block without exactly one marker pair is a ``ValueError``."""
    for name, body in blocks.items():
        begin, end = f"<!-- generated: {name} -->", f"<!-- end generated: {name} -->"
        pattern = re.compile(f"{re.escape(begin)}\n.*?{re.escape(end)}", re.S)
        if len(pattern.findall(text)) != 1:
            raise ValueError(f"expected one generated block {begin} ... {end}")
        text = pattern.sub(lambda _: f"{begin}\n{body}\n{end}", text)
    return text
