"""Paper-style text output for sweeps and saturation summaries.

The paper's figures are latency-vs-throughput curves; these helpers print
them as aligned text tables (one series per algorithm) so ``repro figure``
reproduces the figure as rows rather than pixels.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from .saturation import SaturationPoint
from .sweep import SweepSeries


def format_figure(
    title: str,
    series: Sequence[SweepSeries],
    chart: bool = True,
) -> str:
    """Render one figure's series as a text block (tables + ASCII chart)."""
    lines: List[str] = [f"== {title} =="]
    for s in series:
        lines.append("")
        lines.extend(s.rows())
    lines.append("")
    if chart:
        lines.append(render_latency_chart(series))
        lines.append("")
    lines.append(format_saturation_summary(series))
    return "\n".join(lines)


def format_saturation_summary(series: Sequence[SweepSeries]) -> str:
    """The per-algorithm maximum sustainable throughput table."""
    lines = ["-- max sustainable throughput (flits/us, from sweep) --"]
    baseline = None
    for s in series:
        best = s.max_sustainable_throughput()
        if baseline is None:
            baseline = best
        ratio = f"  ({best / baseline:4.2f}x vs {series[0].algorithm})" if baseline else ""
        lines.append(f"{s.algorithm:18s} {best:8.1f}{ratio}")
    return "\n".join(lines)


def render_latency_chart(
    series: Sequence[SweepSeries],
    width: int = 64,
    height: int = 18,
    max_latency: Optional[float] = None,
) -> str:
    """ASCII latency-vs-throughput scatter, one marker per algorithm.

    The visual analogue of Figures 13-16: x is delivered throughput
    (flits/us), y is average latency (us).  Each series gets the marker
    shown in the legend; overlapping points show the later series'
    marker.
    """
    markers = "xo*+#@%&"
    points = []
    for index, s in enumerate(series):
        marker = markers[index % len(markers)]
        for result in s.results:
            latency = result.avg_latency_us
            if latency is not None:
                points.append(
                    (result.throughput_flits_per_us, latency, marker)
                )
    if not points:
        return "(no delivered traffic to chart)"
    max_thr = max(p[0] for p in points) or 1.0
    if max_latency is None:
        max_latency = max(p[1] for p in points)
    max_latency = max(max_latency, 1e-9)
    grid = [[" "] * (width + 1) for _ in range(height + 1)]
    for thr, lat, marker in points:
        col = min(width, int(round(thr / max_thr * width)))
        row = min(height, int(round(min(lat, max_latency) / max_latency * height)))
        grid[height - row][col] = marker
    lines = []
    for i, row in enumerate(grid):
        label = ""
        if i == 0:
            label = f"{max_latency:7.1f}us "
        elif i == height:
            label = f"{0.0:7.1f}us "
        else:
            label = " " * 10
        lines.append(label + "|" + "".join(row).rstrip())
    lines.append(" " * 10 + "+" + "-" * width)
    lines.append(
        " " * 11 + f"0 .. {max_thr:.0f} flits/us delivered"
    )
    legend = "   legend: " + "  ".join(
        f"{markers[i % len(markers)]}={s.algorithm}"
        for i, s in enumerate(series)
    )
    lines.append(legend)
    return "\n".join(lines)


def format_saturation_points(points: Iterable[SaturationPoint]) -> str:
    lines = [
        "algorithm          pattern            load(fl/us/node)  "
        "throughput(fl/us)  latency(us)"
    ]
    for p in points:
        lat = f"{p.latency_us:10.2f}" if p.latency_us is not None else "       n/a"
        lines.append(
            f"{p.algorithm:18s} {p.pattern:18s} {p.max_sustainable_load:16.3f}  "
            f"{p.throughput_flits_per_us:17.1f}  {lat}"
        )
    return "\n".join(lines)
