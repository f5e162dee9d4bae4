"""Typed metric instruments and the process-wide registry.

Three Prometheus-style instrument kinds, all label-aware and safe under
the gateway's :class:`ThreadingHTTPServer` concurrency:

* :class:`Counter`   — monotonically increasing totals
  (``gateway_requests_total{endpoint,status}``);
* :class:`Gauge`     — set/inc/dec values that move both ways
  (``train_epoch_loss{model}``);
* :class:`Histogram` — fixed-bucket distributions with exact ``_sum`` /
  ``_count`` (``rank_latency_seconds{model}``).

A counter or gauge may instead be a *callback*
(:meth:`MetricsRegistry.counter_fn`, :meth:`MetricsRegistry.gauge_fn`):
its value lives with its owner as a plain number and is read only when
the registry is collected.  :class:`repro.serving.ServiceStats` exports
its counters this way.  Their writers are serialized by their owner, not
by the registry: the stream engine and the online detector run on one
thread, and the gateway mutates a service only under its scoring lock.

Every mutation of a stored instrument happens under the owning
registry's lock, so concurrent increments from N handler threads sum
exactly (a test pins this).  Registration is idempotent: asking twice
for the same name returns the same instrument, while re-registering
under a different type, label set or bucket layout raises — two
subsystems silently sharing one series under different contracts is a
bug, not a merge.

Naming conventions (enforced, and relied on by the exposition golden
tests): counters end in ``_total``; durations are seconds and end in
``_seconds``; label names are ``snake_case``.  See the README
"Observability" section for the full table of series this repo emits.
"""

from __future__ import annotations

import bisect
import re
import threading
from typing import Callable, Mapping, Sequence

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram upper bounds (seconds) — sub-millisecond cache hits
#: through multi-second artifact loads.  ``+Inf`` is implicit.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class MetricError(ValueError):
    """Invalid metric/label name, or conflicting re-registration."""


def _check_labels(labelnames: Sequence[str]) -> tuple[str, ...]:
    labelnames = tuple(labelnames)
    for name in labelnames:
        if not _LABEL_NAME.match(name):
            raise MetricError(f"invalid label name {name!r}")
    if len(set(labelnames)) != len(labelnames):
        raise MetricError(f"duplicate label names in {labelnames!r}")
    return labelnames


class _Metric:
    """Common core: one named series family with labelled children.

    ``fn``, when given, replaces the stored children: it is called at
    collect time and returns the value (unlabelled) or a mapping from
    label-value tuples to values (labelled).
    """

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str],
                 lock: threading.RLock, fn: Callable | None = None):
        if not _METRIC_NAME.match(name):
            raise MetricError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.labelnames = _check_labels(labelnames)
        self._lock = lock
        self._fn = fn
        self._children: dict[tuple[str, ...], object] = {}

    # -- label handling ------------------------------------------------------

    def _key(self, labels: Mapping[str, object]) -> tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise MetricError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def labels(self, **labels) -> "_Metric":
        """A view of this metric bound to one label-value combination."""
        return _Bound(self, self._key(labels))

    def _default_key(self) -> tuple[str, ...]:
        if self.labelnames:
            raise MetricError(
                f"{self.name} is labelled {self.labelnames}; "
                "use .labels(...) to pick a series"
            )
        return ()

    # -- storage -------------------------------------------------------------

    def _new_value(self):
        return 0.0

    def _slot(self, key: tuple[str, ...]):
        value = self._children.get(key)
        if value is None:
            value = self._children[key] = self._new_value()
        return value

    def samples(self) -> list[tuple[tuple[str, ...], object]]:
        """Snapshot of ``(label_values, value)`` pairs, insertion-ordered."""
        if self._fn is not None:
            if not self.labelnames:
                return [((), float(self._fn()))]
            return [(tuple(map(str, key)), float(value))
                    for key, value in self._fn().items()]
        with self._lock:
            return [(key, self._copy_value(value))
                    for key, value in self._children.items()]

    def _copy_value(self, value):
        return value

    def clear(self) -> None:
        """Drop every child series (used when an info gauge is re-pointed)."""
        with self._lock:
            self._children.clear()


class _Bound:
    """One labelled child: the instrument API with a fixed label key.

    Methods a given instrument kind does not implement (``set`` on a
    counter, ``observe`` on a gauge) raise ``AttributeError`` on use.
    """

    __slots__ = ("_metric", "_key")

    def __init__(self, metric: _Metric, key: tuple[str, ...]):
        self._metric = metric
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        self._metric._inc(self._key, amount)

    def dec(self, amount: float = 1.0) -> None:
        self._metric._inc(self._key, -amount)

    def set(self, value: float) -> None:
        self._metric._set(self._key, value)

    def observe(self, value: float) -> None:
        self._metric._observe(self._key, value)

    def value(self) -> float:
        return self._metric._value(self._key)


class Counter(_Metric):
    """A monotonically increasing total.  Decrements raise."""

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        self._inc(self._default_key(), amount)

    def _inc(self, key: tuple[str, ...], amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._children[key] = self._slot(key) + amount

    @property
    def value(self) -> float:
        return self._value(self._default_key())

    def _value(self, key: tuple[str, ...]) -> float:
        with self._lock:
            return float(self._children.get(key, 0.0))


class Gauge(_Metric):
    """A value that can go up and down (or be computed at collect time)."""

    kind = "gauge"

    def set(self, value: float) -> None:
        self._set(self._default_key(), value)

    def inc(self, amount: float = 1.0) -> None:
        self._inc(self._default_key(), amount)

    def dec(self, amount: float = 1.0) -> None:
        self._inc(self._default_key(), -amount)

    def _set(self, key: tuple[str, ...], value: float) -> None:
        with self._lock:
            self._slot(key)
            self._children[key] = float(value)

    def _inc(self, key: tuple[str, ...], amount: float = 1.0) -> None:
        with self._lock:
            self._children[key] = self._slot(key) + amount

    @property
    def value(self) -> float:
        return self._value(self._default_key())

    def _value(self, key: tuple[str, ...]) -> float:
        with self._lock:
            return float(self._children.get(key, 0.0))


class _HistogramValue:
    """Per-child histogram state: bucket counts + exact sum/count."""

    __slots__ = ("counts", "total", "count")

    def __init__(self, n_buckets: int):
        self.counts = [0] * n_buckets   # non-cumulative, one per finite bound
        self.total = 0.0
        self.count = 0

    def copy(self) -> "_HistogramValue":
        clone = _HistogramValue(len(self.counts))
        clone.counts = list(self.counts)
        clone.total = self.total
        clone.count = self.count
        return clone


class Histogram(_Metric):
    """Fixed-bucket distribution; O(1) memory however many observations."""

    kind = "histogram"

    def __init__(self, name, help, labelnames, lock,
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, help, labelnames, lock)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise MetricError(
                f"histogram {name} buckets must be sorted and non-empty"
            )
        if len(set(bounds)) != len(bounds):
            raise MetricError(f"histogram {name} buckets must be distinct")
        #: Finite upper bounds; the ``+Inf`` bucket is the overflow slot.
        self.buckets = bounds

    def _new_value(self):
        return _HistogramValue(len(self.buckets) + 1)

    def _copy_value(self, value: _HistogramValue) -> _HistogramValue:
        return value.copy()

    def observe(self, value: float) -> None:
        self._observe(self._default_key(), value)

    def _observe(self, key: tuple[str, ...], value: float) -> None:
        value = float(value)
        # ``le`` is inclusive: an observation exactly on a bound lands in
        # that bound's bucket (pinned by the boundary test).
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            slot = self._slot(key)
            slot.counts[index] += 1
            slot.total += value
            slot.count += 1

    # -- aggregate reads -----------------------------------------------------

    def _aggregate(self) -> _HistogramValue:
        with self._lock:
            merged = self._new_value()
            for child in self._children.values():
                for i, c in enumerate(child.counts):
                    merged.counts[i] += c
                merged.total += child.total
                merged.count += child.count
            return merged

    @property
    def count(self) -> int:
        return self._aggregate().count

    @property
    def total(self) -> float:
        return self._aggregate().total


class MetricsRegistry:
    """A named collection of instruments with one mutation lock.

    One registry per observable unit: each :class:`ServiceStats` owns a
    private registry (so two services in one process never merge
    counters), the gateway owns one for transport metrics, and
    :func:`default_registry` holds the process-wide series emitted by
    training, ingest, artifact and compile instrumentation.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._metrics: dict[str, _Metric] = {}

    def _register(self, cls, name: str, help: str,
                  labelnames: Sequence[str], **kwargs) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if (type(existing) is not cls
                        or existing.labelnames != tuple(labelnames)
                        or (cls is Histogram and existing.buckets
                            != tuple(float(b) for b in kwargs.get(
                                "buckets", DEFAULT_BUCKETS)))):
                    raise MetricError(
                        f"metric {name!r} already registered with a "
                        "different type, label set or bucket layout"
                    )
                return existing
            metric = cls(name, help, labelnames, self._lock, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def counter_fn(self, name: str, help: str, fn: Callable,
                   labelnames: Sequence[str] = ()) -> Counter:
        """A counter whose total is read from ``fn`` at collect time.

        Unlabelled, ``fn()`` returns the total; labelled, it returns
        ``{label values: total}``.  The owner of the number keeps it
        monotonic and serializes its writers.
        """
        return self._register(Counter, name, help, labelnames, fn=fn)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labelnames)

    def gauge_fn(self, name: str, help: str,
                 fn: Callable[[], float]) -> Gauge:
        """A gauge whose value is computed at collect time (e.g. a ratio)."""
        return self._register(Gauge, name, help, (), fn=fn)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._register(Histogram, name, help, labelnames,
                              buckets=buckets)

    def collect(self) -> list[_Metric]:
        """The registered instruments, in registration order."""
        with self._lock:
            return list(self._metrics.values())

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def render(self) -> str:
        """This registry's Prometheus text exposition."""
        from repro.telemetry.exposition import render_text

        return render_text(self)


# -- the process-wide default registry ----------------------------------------

_default = MetricsRegistry()
_default_lock = threading.Lock()


def default_registry() -> MetricsRegistry:
    """The shared registry cross-cutting instrumentation records into.

    Training (:class:`repro.core.Trainer`), ingest (:mod:`repro.sources`),
    artifact loads (:mod:`repro.registry`) and plan compilation
    (:mod:`repro.nn.compile`) all write here, so one scrape of a serving
    process also covers the model's load/compile history.
    """
    with _default_lock:
        return _default


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process default (tests isolate themselves with this).

    Returns the previous default so callers can restore it.
    """
    global _default
    with _default_lock:
        previous, _default = _default, registry
        return previous


__all__ = [
    "DEFAULT_BUCKETS", "MetricError", "Counter", "Gauge", "Histogram",
    "MetricsRegistry", "default_registry", "set_default_registry",
]
