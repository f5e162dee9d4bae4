"""repro.telemetry.metrics — instruments, labels, thread-safety."""

from __future__ import annotations

import threading

import pytest

from repro.telemetry import (
    DEFAULT_BUCKETS,
    MetricError,
    MetricsRegistry,
    default_registry,
    set_default_registry,
)


@pytest.fixture
def registry() -> MetricsRegistry:
    return MetricsRegistry()


class TestCounter:
    def test_unlabelled_inc(self, registry):
        c = registry.counter("jobs_total", "help")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_raises(self, registry):
        c = registry.counter("jobs_total")
        with pytest.raises(MetricError, match="cannot decrease"):
            c.inc(-1)

    def test_labelled_children_are_independent(self, registry):
        c = registry.counter("requests_total", "", ("endpoint", "status"))
        c.labels(endpoint="/v1/rank", status="200").inc(3)
        c.labels(endpoint="/v1/rank", status="422").inc()
        assert c.labels(endpoint="/v1/rank", status="200").value() == 3
        assert c.labels(endpoint="/v1/rank", status="422").value() == 1
        assert c.labels(endpoint="/v1/rank", status="500").value() == 0

    def test_wrong_label_set_raises(self, registry):
        c = registry.counter("requests_total", "", ("endpoint",))
        with pytest.raises(MetricError, match="expects labels"):
            c.labels(status="200")
        with pytest.raises(MetricError):
            c.inc()  # labelled metric needs .labels()

    def test_label_values_coerced_to_str(self, registry):
        c = registry.counter("codes_total", "", ("code",))
        c.labels(code=404).inc()
        assert c.labels(code="404").value() == 1


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("queue_depth")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13

    def test_callback_gauge(self, registry):
        state = {"v": 0.25}
        g = registry.gauge_fn("hit_ratio", "", lambda: state["v"])
        assert g.samples() == [((), 0.25)]
        state["v"] = 0.75
        assert g.samples() == [((), 0.75)]


class TestCallbackCounter:
    def test_read_at_collect_time(self, registry):
        state = {"n": 0}
        c = registry.counter_fn("jobs_total", "help", lambda: state["n"])
        assert c.kind == "counter"
        assert c.samples() == [((), 0.0)]
        state["n"] = 7
        assert c.samples() == [((), 7.0)]

    def test_labelled_callback_returns_label_values(self, registry):
        counts = {"hit": 3, "miss": 1}
        c = registry.counter_fn(
            "lookups_total", "", lambda: {(k,): v for k, v in counts.items()},
            labelnames=("result",),
        )
        assert c.samples() == [(("hit",), 3.0), (("miss",), 1.0)]

    def test_rendered_in_registration_order(self, registry):
        from repro.telemetry import parse_text, render_text

        registry.counter("a_total").inc()
        registry.counter_fn("b_total", "", lambda: 2)
        registry.gauge_fn("c_ratio", "", lambda: 0.5)
        samples = [(s.name, s.value)
                   for s in parse_text(render_text(registry))]
        assert samples == [("a_total", 1.0), ("b_total", 2.0),
                           ("c_ratio", 0.5)]


class TestHistogram:
    def test_boundaries_are_inclusive(self, registry):
        h = registry.histogram("lat_seconds", buckets=(0.1, 1.0, 10.0))
        h.observe(0.1)      # exactly on the first bound -> le="0.1"
        h.observe(0.10001)  # just above -> le="1.0"
        h.observe(50.0)     # overflow -> +Inf only
        (key, value), = h.samples()
        assert key == ()
        assert value.counts == [1, 1, 0, 1]  # non-cumulative internally
        assert value.count == 3
        assert value.total == pytest.approx(50.20001)

    def test_below_first_bucket(self, registry):
        h = registry.histogram("lat_seconds", buckets=(0.5, 1.0))
        h.observe(0.0)
        h.observe(-1.0)  # clock skew etc. must not crash
        (_, value), = h.samples()
        assert value.counts[0] == 2

    def test_unsorted_buckets_raise(self, registry):
        with pytest.raises(MetricError, match="sorted"):
            registry.histogram("h", buckets=(1.0, 0.5))
        with pytest.raises(MetricError, match="distinct"):
            registry.histogram("h2", buckets=(1.0, 1.0))

    def test_aggregates_across_labels(self, registry):
        h = registry.histogram("lat_seconds", labelnames=("model",))
        h.labels(model="snn").observe(0.002)
        h.labels(model="dnn").observe(0.002)
        assert h.count == 2
        assert h.total == pytest.approx(0.004)


class TestRegistry:
    def test_registration_is_idempotent(self, registry):
        a = registry.counter("x_total", "first")
        b = registry.counter("x_total", "second")
        assert a is b

    def test_type_conflict_raises(self, registry):
        registry.counter("x_total")
        with pytest.raises(MetricError, match="already registered"):
            registry.gauge("x_total")

    def test_labelset_conflict_raises(self, registry):
        registry.counter("x_total", "", ("a",))
        with pytest.raises(MetricError, match="already registered"):
            registry.counter("x_total", "", ("b",))

    def test_bucket_conflict_raises(self, registry):
        registry.histogram("h_seconds", buckets=(1.0, 2.0))
        with pytest.raises(MetricError, match="already registered"):
            registry.histogram("h_seconds", buckets=(1.0, 3.0))
        # Same buckets: fine.
        registry.histogram("h_seconds", buckets=(1.0, 2.0))

    def test_invalid_names_raise(self, registry):
        with pytest.raises(MetricError, match="invalid metric name"):
            registry.counter("1bad")
        with pytest.raises(MetricError, match="invalid label name"):
            registry.counter("ok_total", "", ("bad-label",))

    def test_collect_preserves_registration_order(self, registry):
        registry.counter("a_total")
        registry.gauge("b")
        registry.histogram("c_seconds")
        assert [m.name for m in registry.collect()] == \
            ["a_total", "b", "c_seconds"]

    def test_default_registry_swap_restores(self):
        mine = MetricsRegistry()
        previous = set_default_registry(mine)
        try:
            assert default_registry() is mine
        finally:
            set_default_registry(previous)
        assert default_registry() is previous

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestThreadSafety:
    def test_concurrent_increments_sum_exactly(self, registry):
        """N threads hammering one labelled counter lose no increments."""
        c = registry.counter("hits_total", "", ("worker",))
        h = registry.histogram("work_seconds", buckets=(0.5, 1.0))
        n_threads, per_thread = 8, 5000
        barrier = threading.Barrier(n_threads)

        def worker(i: int) -> None:
            bound = c.labels(worker=str(i % 2))
            barrier.wait()
            for _ in range(per_thread):
                bound.inc()
                h.observe(0.25)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = sum(value for _, value in c.samples())
        assert total == n_threads * per_thread
        assert h.count == n_threads * per_thread
