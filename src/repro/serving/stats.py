"""Service metrics for the streaming engine, read by a registry on scrape.

One :class:`ServiceStats` instance is threaded through the stream engine,
the online detector/sessionizer, the feature cache and the prediction
service.  Its counters are plain ``int`` attributes (``stats.messages +=
1``); its private :class:`repro.telemetry.MetricsRegistry` reads them
through collect-time callbacks, so the numbers ``summary()`` renders are
the ones ``GET /v1/metrics`` exports in Prometheus text format.

The counters take no lock because every writer is already serialized:

* one thread each — ``StreamEngine.run`` and ``build_engine``'s admit,
  the online detector and sessionizer, and the remote replay's ranker;
* under the gateway's scoring lock — ``PredictionService.rank_batch``
  and ``FeatureCache.features``, which run only inside
  ``GatewayApp.rank_batch`` or a micro-batch flush;
* at worker boot, before the socket is served — ``rehydrate_service``.

Readers (``/v1/stats``, ``/v1/metrics``, the pool's snapshot and publish
threads) take no lock either; each reads whole ints.

Latency recordings go two places at once:

* a fixed-bucket ``rank_latency_seconds{model}`` histogram — O(1) memory
  however long the service runs;
* a bounded reservoir of the most recent :data:`RESERVOIR_CAPACITY`
  values, over which ``latency_ms`` computes exact percentiles.

``summary()`` keeps its exact key set and value semantics.
"""

from __future__ import annotations

import time as _time
from collections import deque
from contextlib import contextmanager
from functools import partial

import numpy as np

from repro.telemetry.metrics import MetricsRegistry

#: Exact-percentile window: p50/p99 cover the most recent this many
#: recordings.  Bounds a long-running service's memory at O(1).
RESERVOIR_CAPACITY = 4096

#: Scoring-latency bucket bounds in seconds (sub-ms cache hits through
#: multi-second cold batches).
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Each plain counter and the HELP text of its ``service_<name>_total``
#: series, in exposition order.
_COUNTER_HELP = {
    "messages": "Messages consumed from the stream",
    "pump_messages": "Messages the online detector flagged",
    "sessions_closed": "24h-gap sessions completed",
    "announcements": "Resolvable coin releases seen",
    "duplicate_releases": "Repeat releases within one session",
    "alerts": "Ranked alerts emitted",
    "unknown_channels": "Announcements from untrained channels",
    "no_candidates": "Announcements with no listed coins",
    "forward_passes": "Model invocations (micro-batches)",
    "scored_rows": "Candidate rows pushed through the model",
}

#: Every counter :meth:`ServiceStats.restore` adopts from a summary.
COUNTERS = (*_COUNTER_HELP, "cache_hits", "cache_misses")


class ServiceStats:
    """Operational metrics of one serving run.

    Each instance owns a private :attr:`registry`, so two services in one
    process never merge counters; the gateway exposes it via
    ``GET /v1/metrics``.
    """

    def __init__(self) -> None:
        # The counters of _COUNTER_HELP, then the feature-cache lookups.
        self.messages = 0
        self.pump_messages = 0
        self.sessions_closed = 0
        self.announcements = 0
        self.duplicate_releases = 0
        self.alerts = 0
        self.unknown_channels = 0
        self.no_candidates = 0
        self.forward_passes = 0
        self.scored_rows = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.wall_seconds = 0.0  # accumulated replay wall-clock time
        # Exact-percentile window over the most recent recordings (ms).
        self._reservoir: deque[float] = deque(maxlen=RESERVOIR_CAPACITY)

        self.registry = MetricsRegistry()
        for name, help in _COUNTER_HELP.items():
            self.registry.counter_fn(f"service_{name}_total", help,
                                     partial(getattr, self, name))
        self.registry.counter_fn(
            "service_cache_lookups_total", "Feature-cache lookups by result",
            lambda: {("hit",): self.cache_hits,
                     ("miss",): self.cache_misses},
            labelnames=("result",),
        )
        self._latency = self.registry.histogram(
            "rank_latency_seconds",
            "Per-announcement scoring latency (share of its micro-batch)",
            ("model",), buckets=LATENCY_BUCKETS,
        )
        self.registry.gauge_fn(
            "service_wall_seconds", "Accumulated replay wall-clock time",
            lambda: self.wall_seconds,
        )
        self.registry.gauge_fn(
            "service_cache_hit_ratio",
            "Feature-cache hit rate over the run", self.cache_hit_rate,
        )

    # -- recording -----------------------------------------------------------

    def record_latency(self, milliseconds: float, model: str = "") -> None:
        """One announcement's scoring latency (share of its micro-batch).

        ``model`` labels the Prometheus series (the serving layer passes
        the ranker class name); the reservoir that backs the exact
        percentiles is model-agnostic.
        """
        value = float(milliseconds)
        self._latency.labels(model=model).observe(value / 1000.0)
        self._reservoir.append(value)

    @contextmanager
    def timed_run(self):
        """Accumulate wall-clock time of the replay loop (for throughput)."""
        start = _time.perf_counter()
        try:
            yield self
        finally:
            self.wall_seconds += _time.perf_counter() - start

    # -- derived metrics -----------------------------------------------------

    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def latency_ms(self, percentile: float) -> float:
        """Scoring-latency percentile in milliseconds (0 when no alerts),
        exact over the most recent :data:`RESERVOIR_CAPACITY` recordings."""
        if not self._reservoir:
            return 0.0
        return float(np.percentile(list(self._reservoir), percentile))

    def throughput(self) -> float:
        """Messages consumed per wall-clock second of replay."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.messages / self.wall_seconds

    def mean_batch_size(self) -> float:
        if not self.forward_passes:
            return 0.0
        return self.alerts / self.forward_passes

    def restore(self, summary: dict) -> None:
        """Adopt the counter values of a persisted :meth:`summary`.

        Rehydration (see :mod:`repro.store.rehydrate`) boots a fresh
        service and then replays a stats snapshot taken by the previous
        process, so ``repro history``/``/v1/stats`` keep counting from
        where the crashed run stopped instead of from zero.  Only plain
        counters restore; derived values (percentiles, ratios, wall
        clock) are recomputed live and start over.
        """
        for name in COUNTERS:
            value = summary.get(name)
            if value is not None:
                setattr(self, name, int(value))

    def summary(self) -> dict[str, float]:
        """All derived metrics in one flat dict (CLI/dashboard payload)."""
        return {
            "messages": self.messages,
            "pump_messages": self.pump_messages,
            "sessions_closed": self.sessions_closed,
            "announcements": self.announcements,
            "duplicate_releases": self.duplicate_releases,
            "alerts": self.alerts,
            "unknown_channels": self.unknown_channels,
            "no_candidates": self.no_candidates,
            "forward_passes": self.forward_passes,
            "scored_rows": self.scored_rows,
            "mean_batch_size": round(self.mean_batch_size(), 2),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.cache_hit_rate(), 3),
            "latency_p50_ms": round(self.latency_ms(50), 3),
            "latency_p99_ms": round(self.latency_ms(99), 3),
            "throughput_msg_per_s": round(self.throughput(), 1),
            "wall_seconds": round(self.wall_seconds, 3),
        }
