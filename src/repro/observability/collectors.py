"""Streaming metrics collectors folded into the simulation result.

Three collectors, each individually enabled by a
:class:`~repro.simulation.config.SimulationConfig` knob and each
streaming — they accumulate as the simulation runs, never buffering the
raw event firehose:

* **per-channel utilization time series**
  (``config.channel_series_period > 0``): flits crossed per channel per
  fixed-width bucket of the measurement window, so saturation studies
  can see *where and when* load concentrates, not just end-of-run
  totals;
* **per-router blocked-cycle counters**
  (``config.collect_router_blocked``): cycles each router spent hosting
  a header that was waiting for an output grant or the ejection port —
  the paper's "blocked messages" made measurable per router;
* **exact latency histogram** (``config.collect_latency_histogram``):
  creation-to-delivery latency in cycles, exact counts per value, so
  percentiles are exact (nearest-rank), not estimates.

The event engine drives the two per-cycle collectors through one
:class:`MetricsCollectors` bundle (:meth:`MetricsCollectors.on_cycle_end`,
:meth:`MetricsCollectors.finish`, plus direct increments of
:attr:`MetricsCollectors.channel_counts` on the flit-advance hot path);
with both knobs off it holds ``None`` instead of a bundle and skips all
of it.  The latency histogram is per *delivery*, so it is kept with the
rest of the delivery accounting, in
:class:`~repro.simulation.lifecycle.PacketLifecycle`, for both backends;
the percentile helpers below read it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence


class MetricsCollectors:
    """The engine-side bundle of enabled collectors for one run."""

    __slots__ = (
        "period",
        "channel_counts",
        "channel_series",
        "router_blocked",
        "_cycles_in_bucket",
    )

    def __init__(
        self,
        num_channels: int,
        num_nodes: int,
        channel_series_period: int = 0,
        collect_router_blocked: bool = False,
    ) -> None:
        self.period = channel_series_period
        self.channel_counts: Optional[List[int]] = (
            [0] * num_channels if channel_series_period > 0 else None
        )
        self.channel_series: List[List[int]] = []
        self.router_blocked: Optional[List[int]] = (
            [0] * num_nodes if collect_router_blocked else None
        )
        self._cycles_in_bucket = 0

    @property
    def any_enabled(self) -> bool:
        return (
            self.channel_counts is not None or self.router_blocked is not None
        )

    def on_cycle_end(self, waiting) -> None:
        """Account one *measured* cycle (engine calls this only inside
        the measurement window, after arbitration and movement).

        ``waiting`` is the engine's live ordered mapping of headers that
        still need a grant: every one of them spent this cycle blocked
        at its ``head_node``.
        """
        blocked = self.router_blocked
        if blocked is not None:
            for packet in waiting:
                blocked[packet.head_node] += 1
        counts = self.channel_counts
        if counts is not None:
            self._cycles_in_bucket += 1
            if self._cycles_in_bucket >= self.period:
                self.channel_series.append(counts.copy())
                for i in range(len(counts)):
                    counts[i] = 0
                self._cycles_in_bucket = 0

    def finish(self, result) -> None:
        """Fold everything collected into a
        :class:`~repro.simulation.metrics.SimulationResult`."""
        counts = self.channel_counts
        if counts is not None:
            if self._cycles_in_bucket > 0:
                self.channel_series.append(counts.copy())
                self._cycles_in_bucket = 0
            result.channel_util_series = self.channel_series
            result.channel_series_period = self.period
        if self.router_blocked is not None:
            result.router_blocked_cycles = self.router_blocked


# ---------------------------------------------------------------------------
# Exact percentiles over integer histograms
# ---------------------------------------------------------------------------


def exact_percentile(histogram: Dict[int, int], percentile: float) -> Optional[int]:
    """The nearest-rank percentile of an integer-valued histogram.

    Exact by construction: the histogram holds every observation, so the
    value returned is an actual observed latency, and
    ``exact_percentile(h, 100)`` is the true maximum.  Returns ``None``
    for an empty histogram.
    """
    if not 0 < percentile <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {percentile}")
    total = sum(histogram.values())
    if total == 0:
        return None
    rank = math.ceil(percentile / 100.0 * total)
    seen = 0
    for value in sorted(histogram):
        seen += histogram[value]
        if seen >= rank:
            return value
    raise AssertionError("unreachable: rank exceeds histogram mass")


def latency_percentiles(
    histogram: Dict[int, int],
    percentiles: Sequence[float] = (50, 90, 99, 100),
) -> Dict[str, Optional[int]]:
    """Named exact percentiles (``{"p50": ..., "p99": ...}``)."""
    out: Dict[str, Optional[int]] = {}
    for p in percentiles:
        label = f"p{p:g}"
        out[label] = exact_percentile(histogram, p)
    return out
