"""Streaming collectors and exact histogram percentiles."""

from types import SimpleNamespace

import pytest

from repro.observability import exact_percentile, latency_percentiles
from repro.observability.collectors import MetricsCollectors


def _waiting(*nodes):
    return [SimpleNamespace(head_node=node) for node in nodes]


class TestMetricsCollectors:
    def test_nothing_enabled_collects_nothing(self):
        bundle = MetricsCollectors(num_channels=4, num_nodes=4)
        assert not bundle.any_enabled
        bundle.on_cycle_end(_waiting(0, 1))
        result = SimpleNamespace(
            channel_util_series=None,
            channel_series_period=None,
            router_blocked_cycles=None,
            latency_histogram=None,
        )
        bundle.finish(result)
        assert result.channel_util_series is None
        assert result.router_blocked_cycles is None
        assert result.latency_histogram is None

    def test_series_buckets_roll_at_period(self):
        bundle = MetricsCollectors(num_channels=2, num_nodes=1, channel_series_period=3)
        for cycle in range(7):
            bundle.channel_counts[0] += 1  # one flit on channel 0 per cycle
            bundle.on_cycle_end([])
        result = SimpleNamespace(channel_util_series=None, channel_series_period=None)
        bundle.finish(result)
        # 7 cycles at period 3: two full buckets plus a partial flush.
        assert result.channel_util_series == [[3, 0], [3, 0], [1, 0]]
        assert result.channel_series_period == 3

    def test_partial_bucket_not_flushed_twice(self):
        bundle = MetricsCollectors(num_channels=1, num_nodes=1, channel_series_period=5)
        bundle.channel_counts[0] += 1
        bundle.on_cycle_end([])
        result = SimpleNamespace(channel_util_series=None, channel_series_period=None)
        bundle.finish(result)
        bundle.finish(result)
        assert result.channel_util_series == [[1]]

    def test_router_blocked_counts_waiting_heads_per_cycle(self):
        bundle = MetricsCollectors(num_channels=1, num_nodes=4, collect_router_blocked=True)
        bundle.on_cycle_end(_waiting(2, 2, 3))
        bundle.on_cycle_end(_waiting(2))
        result = SimpleNamespace(router_blocked_cycles=None)
        bundle.finish(result)
        assert result.router_blocked_cycles == [0, 0, 3, 1]


class TestExactPercentile:
    def test_known_values(self):
        histogram = {10: 2, 12: 1, 30: 1}
        assert exact_percentile(histogram, 50) == 10
        assert exact_percentile(histogram, 75) == 12
        assert exact_percentile(histogram, 100) == 30

    def test_p100_is_the_true_maximum(self):
        histogram = {1: 1000, 999: 1}
        assert exact_percentile(histogram, 100) == 999

    def test_empty_histogram_is_none(self):
        assert exact_percentile({}, 50) is None

    def test_out_of_range_percentile_rejected(self):
        for bad in (0, -1, 101):
            with pytest.raises(ValueError, match="percentile"):
                exact_percentile({1: 1}, bad)

    def test_single_observation(self):
        assert exact_percentile({42: 1}, 1) == 42
        assert exact_percentile({42: 1}, 100) == 42

    def test_matches_sorted_list_nearest_rank(self):
        import math

        observations = [3, 7, 7, 9, 14, 14, 14, 21, 30, 95]
        histogram = {}
        for value in observations:
            histogram[value] = histogram.get(value, 0) + 1
        for p in (1, 10, 25, 50, 75, 90, 99, 100):
            rank = math.ceil(p / 100 * len(observations))
            assert exact_percentile(histogram, p) == sorted(observations)[rank - 1]

    def test_named_percentiles(self):
        out = latency_percentiles({10: 2, 12: 1, 30: 1})
        assert out == {"p50": 10, "p90": 30, "p99": 30, "p100": 30}
        assert latency_percentiles({1: 1}, percentiles=(99.9,)) == {"p99.9": 1}
