"""Span recording for the traced benchmark run.

The program under test is not edited: :func:`install` replaces the public
functions at each layer boundary with wrappers that record one span per
call (name, start, end, parent, request id) into an in-memory
:class:`Tracer`.  Spans are written out once, when the process ends
(:meth:`Tracer.dump`), and :func:`layer_metrics` turns them into the
per-layer figures.

Clock: ``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, shared by
every process on the host, so gateway spans and the load generator's
window bounds compare directly.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    thread: int
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Thread-aware span recorder; parents come from a per-thread stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recording a span per call; ``attrs(args, result)`` adds
        attributes from the call's arguments and return value."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append((span_id, parent[1] if parent else span_id))
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                _, request = stack.pop()
                self.spans.append(Span(
                    span_id, name, start, end,
                    parent[0] if parent else None, request,
                    threading.get_ident(),
                    attrs(args, result) if attrs is not None else {},
                ))

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "id": s.span_id, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "request": s.request,
                    "thread": s.thread, "attrs": s.attrs,
                }) + "\n")


def load_spans(path) -> list[Span]:
    spans = []
    with open(path) as handle:
        for line in handle:
            r = json.loads(line)
            spans.append(Span(r["id"], r["name"], r["start"], r["end"],
                              r["parent"], r["request"], r["thread"],
                              r["attrs"]))
    return spans


def _patch_method(cls, attr: str, tracer: Tracer, name: str, attrs=None):
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__,
                                                   attrs)))
    else:
        setattr(cls, attr, tracer.wrap(name, raw, attrs))


def _patch_function(module, attr: str, tracer: Tracer, name: str,
                    attrs=None):
    setattr(module, attr, tracer.wrap(name, getattr(module, attr), attrs))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read.

    Must run before the service is built: :class:`FeatureCache` binds
    ``predictor.coin_market_block`` at construction time.
    """
    import repro.core.predictor as predictor_module
    import repro.data as data_module
    import repro.sources as sources_module
    from repro.core.predictor import TargetCoinPredictor
    from repro.gateway.app import GatewayApp
    from repro.serving.cache import FeatureCache
    from repro.serving.online import OnlineDetector, OnlineSessionizer
    from repro.serving.service import PredictionService
    from repro.store.sqlite import SQLiteEventStore

    _patch_function(sources_module, "parse_source_spec", tracer,
                    "setup.source")
    _patch_function(data_module, "collect", tracer, "setup.collect")
    _patch_method(TargetCoinPredictor, "from_artifact", tracer,
                  "setup.artifact_load")
    _patch_method(PredictionService, "__init__", tracer, "setup.service_init")

    _patch_method(OnlineDetector, "is_pump", tracer, "online.detect")
    _patch_method(OnlineSessionizer, "add", tracer, "online.session")
    _patch_method(PredictionService, "rank_batch", tracer,
                  "service.rank_batch",
                  lambda args, result: {"batch": len(args[1])})
    _patch_method(FeatureCache, "features", tracer, "cache.features")
    _patch_method(TargetCoinPredictor, "coin_market_block", tracer,
                  "predictor.coin_market_block")
    _patch_method(TargetCoinPredictor, "candidates", tracer,
                  "predictor.candidates")
    _patch_method(TargetCoinPredictor, "rank_many", tracer,
                  "predictor.rank_many")
    _patch_function(predictor_module, "encode_history", tracer,
                    "features.sequence")
    _patch_function(predictor_module, "run_compiled", tracer, "nn.forward",
                    lambda args, result: {"rows": int(len(args[1].label)),
                                          "eager": result is None})

    _patch_method(GatewayApp, "rank", tracer, "gateway.rank")
    _patch_method(GatewayApp, "observe", tracer, "gateway.observe")
    for table in ("announcement", "alert", "observation"):
        _patch_method(SQLiteEventStore, f"append_{table}", tracer,
                      f"store.append.{table}s")


# -- analysis -----------------------------------------------------------------


def _union_seconds(intervals) -> float:
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def _p50_ms(values) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


def layer_metrics(segments) -> dict:
    """Per-layer figures from ``segments``: ``(spans, window)`` pairs, one
    per traced process, each window bounding the timed part of its run.

    Only spans that started inside their window count.  Every name is
    always present; a layer the workload never reaches reports 0.  Self
    time is a span's duration minus its direct children's (children run
    on the parent's thread, so they nest).  A micro-batch follower's rank
    has no ``service.rank_batch`` child (its leader's thread scored it),
    so its whole span counts as wait.
    """
    by_name: dict[str, list[tuple[int, Span]]] = {}
    children: dict[tuple, list[Span]] = {}
    covered = 0.0
    for k, (spans, (lo, hi)) in enumerate(segments):
        inside = [s for s in spans if lo <= s.start <= hi]
        for s in inside:
            by_name.setdefault(s.name, []).append((k, s))
            if s.parent is not None:
                children.setdefault((k, s.parent), []).append(s)
        covered += _union_seconds([(s.start, min(s.end, hi)) for s in inside
                                   if s.parent is None])
    window_s = sum(hi - lo for _, (lo, hi) in segments)

    def spans_of(name):
        return [s for _, s in by_name.get(name, ())]

    def kids(k, s, name=None):
        return [c for c in children.get((k, s.span_id), ())
                if name is None or c.name == name]

    def busy(name):
        return sum(s.duration for s in spans_of(name))

    def calls(name):
        return len(by_name.get(name, ()))

    features = by_name.get("cache.features", [])
    misses = [s for k, s in features
              if kids(k, s, "predictor.coin_market_block")]
    batches = [s.attrs["batch"] for s in spans_of("service.rank_batch")]
    forwards = spans_of("nn.forward")
    store_spans = [s for name, entries in by_name.items()
                   if name.startswith("store.append.") for _, s in entries]
    return {
        "online.detect.calls": calls("online.detect"),
        "online.detect.busy_s": busy("online.detect"),
        "online.session.busy_s": busy("online.session"),
        "service.rank_batch.calls": calls("service.rank_batch"),
        "service.rank_batch.busy_s": busy("service.rank_batch"),
        "service.rank_batch.mean_batch":
            statistics.fmean(batches) if batches else 0.0,
        "cache.features.hit_ratio":
            1.0 - len(misses) / len(features) if features else 0.0,
        "cache.features.miss_busy_s": sum(s.duration for s in misses),
        "features.sequence.calls": calls("features.sequence"),
        "features.sequence.busy_s": busy("features.sequence"),
        "nn.forward.calls": len(forwards),
        "nn.forward.rows": sum(s.attrs["rows"] for s in forwards),
        "nn.forward.busy_s": busy("nn.forward"),
        "nn.forward.eager_fallbacks": sum(1 for s in forwards
                                          if s.attrs["eager"]),
        "predictor.candidates.busy_s": busy("predictor.candidates"),
        "predictor.rank_many.self_s": sum(
            s.duration - sum(c.duration for c in kids(k, s))
            for k, s in by_name.get("predictor.rank_many", ())),
        "gateway.rank.server_ms_p50":
            _p50_ms([s.duration for s in spans_of("gateway.rank")]),
        "gateway.rank.wait_ms_p50": _p50_ms([
            s.duration - sum(c.duration
                             for c in kids(k, s, "service.rank_batch"))
            for k, s in by_name.get("gateway.rank", ())]),
        "gateway.observe.server_ms_p50":
            _p50_ms([s.duration for s in spans_of("gateway.observe")]),
        "store.appends.announcements": calls("store.append.announcements"),
        "store.appends.alerts": calls("store.append.alerts"),
        "store.appends.observations": calls("store.append.observations"),
        "store.append.busy_s": sum(s.duration for s in store_spans),
        "trace.coverage": covered / window_s if window_s > 0 else 0.0,
    }


def setup_breakdown(spans: list[Span]) -> dict:
    """Seconds spent in each boot step (first call of each)."""
    first: dict[str, float] = {}
    for s in spans:
        if s.name.startswith("setup.") and s.name not in first:
            first[s.name] = s.duration
    return {f"{name}_s": first.get(name, 0.0) for name in (
        "setup.source", "setup.collect", "setup.artifact_load",
        "setup.service_init")}
