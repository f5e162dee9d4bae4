"""ServiceStats — plain counters read at scrape time, bounded latency memory."""

from __future__ import annotations

import numpy as np

from repro.serving import ServiceStats
from repro.serving.stats import RESERVOIR_CAPACITY
from repro.telemetry import parse_text, render_text


class TestCounterAttributes:
    def test_augmented_assignment_and_reset(self):
        stats = ServiceStats()
        stats.messages += 1
        stats.messages += 2
        assert stats.messages == 3
        assert isinstance(stats.messages, int)
        stats.messages = 0  # a reset is a plain assignment
        assert stats.messages == 0
        stats.messages += 5
        assert stats.messages == 5

    def test_counters_land_in_the_registry(self):
        stats = ServiceStats()
        stats.alerts += 4
        stats.cache_hits += 1
        stats.cache_misses += 1
        samples = {(s.name, s.labels): s.value
                   for s in parse_text(render_text(stats.registry))}
        assert samples[("service_alerts_total", ())] == 4
        assert samples[("service_cache_lookups_total",
                        (("result", "hit"),))] == 1
        assert samples[("service_cache_lookups_total",
                        (("result", "miss"),))] == 1
        # Read at scrape time: a counter that never fired exports 0.
        assert samples[("service_messages_total", ())] == 0
        stats.alerts += 1
        assert ("service_alerts_total", (), 5.0) in {
            (s.name, s.labels, s.value)
            for s in parse_text(render_text(stats.registry))}

    def test_exposition_order_and_types(self):
        text = render_text(ServiceStats().registry)
        families = [line.split()[2:] for line in text.splitlines()
                    if line.startswith("# TYPE ")]
        assert families == [
            ["service_messages_total", "counter"],
            ["service_pump_messages_total", "counter"],
            ["service_sessions_closed_total", "counter"],
            ["service_announcements_total", "counter"],
            ["service_duplicate_releases_total", "counter"],
            ["service_alerts_total", "counter"],
            ["service_unknown_channels_total", "counter"],
            ["service_no_candidates_total", "counter"],
            ["service_forward_passes_total", "counter"],
            ["service_scored_rows_total", "counter"],
            ["service_cache_lookups_total", "counter"],
            ["rank_latency_seconds", "histogram"],
            ["service_wall_seconds", "gauge"],
            ["service_cache_hit_ratio", "gauge"],
        ]

    def test_private_registries_do_not_merge(self):
        a, b = ServiceStats(), ServiceStats()
        a.alerts += 7
        assert b.alerts == 0

    def test_summary_keys_and_types(self):
        stats = ServiceStats()
        stats.messages += 10
        stats.alerts += 2
        stats.forward_passes += 1
        stats.record_latency(1.5, model="snn")
        summary = stats.summary()
        assert summary["messages"] == 10
        assert summary["alerts"] == 2
        assert summary["mean_batch_size"] == 2.0
        assert summary["latency_p50_ms"] == 1.5
        assert set(summary) == {
            "messages", "pump_messages", "sessions_closed", "announcements",
            "duplicate_releases", "alerts", "unknown_channels",
            "no_candidates", "forward_passes", "scored_rows",
            "mean_batch_size", "cache_hits", "cache_misses",
            "cache_hit_rate", "latency_p50_ms", "latency_p99_ms",
            "throughput_msg_per_s", "wall_seconds",
        }


class TestLatencyMemory:
    def test_exact_percentiles_within_reservoir(self):
        stats = ServiceStats()
        values = list(np.linspace(0.1, 50.0, 500))
        for v in values:
            stats.record_latency(v, model="snn")
        assert stats.latency_ms(50) == float(np.percentile(values, 50))
        assert stats.latency_ms(99) == float(np.percentile(values, 99))

    def test_million_recordings_stay_bounded(self):
        """The O(1)-memory regression: a long-running service must not
        accumulate one float per alert (the old ``_latencies_ms`` list)."""
        stats = ServiceStats()
        n = 1_000_000
        for _ in range(n):
            stats.record_latency(2.0, model="snn")
        assert len(stats._reservoir) == RESERVOIR_CAPACITY
        assert stats._reservoir.maxlen == RESERVOIR_CAPACITY
        assert stats._latency.count == n
        assert stats.latency_ms(99) == 2.0

    def test_percentiles_cover_the_most_recent_recordings(self):
        stats = ServiceStats()
        for _ in range(RESERVOIR_CAPACITY):
            stats.record_latency(100.0)
        recent = list(np.linspace(1.0, 9.0, RESERVOIR_CAPACITY))
        for v in recent:
            stats.record_latency(v)
        assert stats.latency_ms(50) == float(np.percentile(recent, 50))
        assert stats.latency_ms(99) == float(np.percentile(recent, 99))

    def test_histogram_series_labelled_by_model(self):
        stats = ServiceStats()
        stats.record_latency(3.0, model="DNNRanker")
        names = {(s.name, s.labels) for s in
                 parse_text(render_text(stats.registry))}
        assert ("rank_latency_seconds_count",
                (("model", "DNNRanker"),)) in names

    def test_no_recordings_is_zero(self):
        stats = ServiceStats()
        assert stats.latency_ms(50) == 0.0
        assert stats.latency_ms(99) == 0.0
