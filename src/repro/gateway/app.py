"""The gateway application: endpoint logic over a swappable service.

:class:`GatewayApp` is transport-free — it maps typed requests
(:mod:`repro.gateway.schema`) to typed responses over a
:class:`~repro.serving.service.PredictionService`, a
:class:`~repro.registry.ModelRegistry` and a set of counters.  The HTTP
layer (:mod:`repro.gateway.server`) only routes, decodes and encodes;
tests can drive the app directly without a socket.

Hot-swap contract (``/v1/models/reload``)
-----------------------------------------
The replacement service is built *outside* the scoring lock (artifact
load + compiled-plan verification take milliseconds to seconds; requests
keep scoring on the old model meanwhile).  The swap itself happens under
the scoring lock: the streamed state (history cache, dedup window, fold
cursor) and the live :class:`ServiceStats` are carried across, and the
service pointer is replaced in one assignment.  A request that already
entered the scoring section finishes on the model it started with —
nothing is dropped, nothing scores half-old-half-new.
"""

from __future__ import annotations

import threading
import time as _time

from repro.gateway.schema import (
    E_BAD_ARTIFACT,
    E_BATCH_TOO_LARGE,
    E_DEADLINE_EXCEEDED,
    E_NO_CANDIDATES,
    E_NO_REGISTRY,
    E_UNKNOWN_CHANNEL,
    E_UNKNOWN_MODEL,
    GatewayFault,
    HealthResponseV1,
    ModelsResponseV1,
    ObserveRequestV1,
    ObserveResponseV1,
    RankBatchRequestV1,
    RankBatchResponseV1,
    RankRequestV1,
    RankResponseV1,
    ReloadRequestV1,
    ReloadResponseV1,
    StatsResponseV1,
    TraceResponseV1,
    bad_request,
)
from repro.gateway.microbatch import MicroBatcher
from repro.resilience import current_deadline
from repro.serving.online import Announcement
from repro.serving.service import PredictionService
from repro.telemetry import TelemetryHub

#: Default cap on ``/v1/rank/batch`` size (also the CLI default).
DEFAULT_MAX_BATCH = 256

#: How long a ``/v1/rank`` micro-batch stays open for concurrent
#: requests; a lone request never waits (see :class:`MicroBatcher`).
_COALESCE_WINDOW_S = 0.002


def describe_model(ref: str | None, path=None, manifest: dict | None = None,
                   *, name: str | None = None,
                   version: str | None = None) -> dict:
    """The model descriptor shown by ``/v1/healthz`` and ``/v1/models``."""
    manifest = manifest or {}
    model = manifest.get("model")
    model = model if isinstance(model, dict) else {}
    return {
        "ref": ref,
        "name": name,
        "version": version,
        "path": str(path) if path is not None else None,
        "arch": model.get("name"),
        "n_parameters": model.get("n_parameters"),
    }


class GatewayApp:
    """Versioned JSON API over a hot-swappable prediction service.

    Parameters
    ----------
    service:
        The booted :class:`PredictionService` to serve.
    registry:
        Optional :class:`~repro.registry.ModelRegistry` backing
        ``GET /v1/models`` and ``POST /v1/models/reload``; without one the
        gateway serves its boot model forever and reload answers 409.
    model:
        Descriptor of the currently served artifact (see
        :func:`describe_model`); surfaced by health/models endpoints.
    max_batch:
        ``/v1/rank/batch`` requests larger than this fail with the stable
        code ``batch_too_large`` instead of monopolizing the model.
    service_options:
        Keyword arguments re-applied when reload builds the replacement
        service (``bucket_hours``, ``cache_entries``, ...).
    telemetry:
        Optional :class:`~repro.telemetry.TelemetryHub` collecting the
        gateway's metrics, traces and structured logs.  A private hub is
        created when omitted, so the app is always instrumented.
    """

    def __init__(self, service: PredictionService, *, registry=None,
                 model: dict | None = None, max_batch: int = DEFAULT_MAX_BATCH,
                 service_options: dict | None = None,
                 telemetry: TelemetryHub | None = None):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._service = service
        # The durable event log the service writes through (NullEventStore
        # when serving from memory); the app reuses it for stats snapshots
        # and threads it into every reload-built replacement service.
        self.store = service.store
        self.registry = registry
        self.max_batch = max_batch
        self._service_options = dict(service_options or {})
        if model is None:
            model = describe_model(None)
            model["arch"] = type(service.predictor.model).__name__
        self.model = dict(model)
        self.reloads = 0
        self._started = _time.monotonic()
        # _swap_lock serializes reloads; _score_lock serializes every
        # touch of the (stateful, non-thread-safe) service internals.
        self._swap_lock = threading.Lock()
        self._score_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self.counters: dict[str, int] = {}
        self.telemetry = telemetry or TelemetryHub()
        reg = self.telemetry.registry
        self._m_requests = reg.counter(
            "gateway_requests_total", "Requests handled by the gateway.",
            labelnames=("endpoint", "status"),
        )
        self._m_request_seconds = reg.histogram(
            "gateway_request_seconds",
            "Wall time spent handling gateway requests.",
            labelnames=("endpoint",),
        )
        self._m_errors = reg.counter(
            "gateway_errors_total",
            "Gateway error responses by stable error code.",
            labelnames=("code",),
        )
        self._m_reloads = reg.counter(
            "gateway_reloads_total", "Hot-reload attempts by outcome.",
            labelnames=("outcome",),
        )
        self._m_model_info = reg.gauge(
            "gateway_model_info",
            "Currently served model (always 1; identity in the labels).",
            labelnames=("name", "version", "arch"),
        )
        self._m_shed = reg.counter(
            "gateway_shed_total",
            "Requests refused before doing work (overload, drain, "
            "expired deadline).",
            labelnames=("reason",),
        )
        reg.gauge_fn(
            "gateway_uptime_seconds",
            "Seconds since the gateway app was constructed.",
            lambda: _time.monotonic() - self._started,
        )
        self._m_microbatch_flushes = reg.counter(
            "gateway_microbatch_flushes_total",
            "Coalesced /v1/rank flushes executed by the micro-batcher.",
        )
        self._m_microbatch_requests = reg.counter(
            "gateway_microbatch_requests_total",
            "Rank requests served through micro-batch flushes.",
        )
        # Every /v1/rank goes through the micro-batcher: requests on
        # concurrent handler threads coalesce into one forward pass, and a
        # lone request skips the window.
        self._batcher = MicroBatcher(self._execute_coalesced,
                                     _COALESCE_WINDOW_S, max_batch)
        # Worker pools install a hook that merges peer workers' metric
        # dumps into this process's /v1/metrics exposition.
        self.metrics_merge = None
        self._set_model_info()

    def _set_model_info(self) -> None:
        """Point the ``gateway_model_info`` gauge at the current model."""
        self._m_model_info.clear()
        self._m_model_info.labels(
            name=str(self.model.get("name") or ""),
            version=str(self.model.get("version") or ""),
            arch=str(self.model.get("arch") or ""),
        ).set(1)

    @property
    def service(self) -> PredictionService:
        """The currently serving service (atomically swapped on reload)."""
        return self._service

    def count(self, key: str) -> None:
        with self._counter_lock:
            self.counters[key] = self.counters.get(key, 0) + 1

    # -- scoring -------------------------------------------------------------

    @staticmethod
    def _id_fault(service: PredictionService,
                  announcement: Announcement) -> GatewayFault | None:
        """Refuse coin and exchange ids the data source does not have.

        A ranked or observed announcement with ``coin_id >= 0`` is folded
        into the channel's pump history; an id no catalog row backs would
        crash feature encoding on every later request for that channel —
        permanently, since reload carries history across.  (< 0 is the
        legitimate "unknown released coin" sentinel.)  An exchange id
        outside ``0..n_exchanges-1`` would index past the listing table,
        or wrap around to another exchange's listings.
        """
        source = service.predictor.source
        universe = len(source.coins.symbols)
        if announcement.coin_id >= universe:
            return bad_request(
                f"coin_id {announcement.coin_id} is outside the coin "
                f"universe (0..{universe - 1})"
            )
        if not 0 <= announcement.exchange_id < source.n_exchanges:
            return bad_request(
                f"exchange_id {announcement.exchange_id} is outside the "
                f"data source's exchanges (0..{source.n_exchanges - 1})"
            )
        return None

    def _refusal(self, service: PredictionService,
                 announcement: Announcement,
                 deadline) -> GatewayFault | None:
        """Why ``announcement`` must not be scored, or ``None``.

        The one gate every ranked announcement passes under the scoring
        lock: deadline, coin/exchange ids, known channel, listed
        candidates.  The streaming engine skips the same announcements
        silently; the remote caller gets a stable code saying why.
        """
        if deadline is not None and deadline.expired:
            # The budget burned away waiting for the lock: the caller has
            # given up, so scoring now only wastes capacity.
            self.record_shed("deadline")
            return GatewayFault(
                E_DEADLINE_EXCEEDED, 503,
                f"request deadline ({deadline.budget_seconds * 1000:.0f}"
                " ms) expired before scoring started",
            )
        fault = self._id_fault(service, announcement)
        if fault is not None:
            return fault
        if not service.knows_channel(announcement.channel_id):
            return GatewayFault(
                E_UNKNOWN_CHANNEL, 422,
                f"channel {announcement.channel_id} was not part of the "
                "training universe",
            )
        if not service.has_candidates(announcement):
            return GatewayFault(
                E_NO_CANDIDATES, 422,
                f"no eligible coins listed on exchange "
                f"{announcement.exchange_id} at time {announcement.time}",
            )
        return None

    def _execute_coalesced(self, entries) -> None:
        """Gate + score one micro-batch flush under the scoring lock.

        Each entry passes :meth:`_refusal` on its own, and a refusal
        faults only that entry.  The survivors score in one
        ``rank_batch`` forward pass; scoring is history-pure, so every
        alert is bit-identical to a lone request's.
        """
        with self._score_lock:
            self._m_microbatch_flushes.inc()
            self._m_microbatch_requests.inc(len(entries))
            service = self._service
            ready = []
            for entry in entries:
                entry.fault = self._refusal(service, entry.announcement,
                                            entry.deadline)
                if entry.fault is None:
                    ready.append(entry)
            if not ready:
                return
            alerts = service.rank_batch(
                [entry.announcement for entry in ready]
            )
            for entry, alert in zip(ready, alerts):
                entry.alert = alert

    def rank(self, request: RankRequestV1) -> RankResponseV1:
        self.count("rank")
        return RankResponseV1(self._batcher.submit(request.announcement))

    def rank_batch(self, request: RankBatchRequestV1) -> RankBatchResponseV1:
        self.count("rank_batch")
        size = len(request.announcements)
        if size > self.max_batch:
            raise GatewayFault(
                E_BATCH_TOO_LARGE, 413,
                f"batch of {size} announcements exceeds the gateway's "
                f"max_batch={self.max_batch}; split the request",
            )
        if not request.announcements:
            return RankBatchResponseV1(())
        announcements = list(request.announcements)
        with self._score_lock:
            service = self._service
            deadline = current_deadline()
            # All or nothing: the first refusal answers for the whole
            # request before any announcement is scored.
            for announcement in announcements:
                fault = self._refusal(service, announcement, deadline)
                if fault is not None:
                    raise fault
            return RankBatchResponseV1(
                tuple(service.rank_batch(announcements))
            )

    def observe(self, request: ObserveRequestV1) -> ObserveResponseV1:
        self.count("observe")
        announcement = request.announcement
        with self._score_lock:
            service = self._service
            fault = self._id_fault(service, announcement)
            if fault is not None:
                raise fault
            grew = service.observe(announcement, event_id=request.event_id)
            length = len(service.history(announcement.channel_id))
        # Coin id is validated >= 0 at decode, so "didn't grow" with an
        # event id attached can only mean the id was folded before.
        duplicate = request.event_id is not None and not grew
        return ObserveResponseV1(channel_id=announcement.channel_id,
                                 history_length=length,
                                 duplicate=duplicate)

    # -- model lifecycle -----------------------------------------------------

    def reload(self, request: ReloadRequestV1) -> ReloadResponseV1:
        self.count("reload")
        if self.registry is None:
            raise GatewayFault(
                E_NO_REGISTRY, 409,
                "this gateway was started without a model registry; "
                "restart it with --registry to enable hot reload",
            )
        from repro.registry import (
            ArtifactError,
            RegistryError,
            parse_ref,
            read_manifest,
        )

        name, version = parse_ref(request.ref)
        with self._swap_lock:
            try:
                path = self.registry.resolve(name, version)
            except RegistryError as exc:
                self._m_reloads.labels(outcome="unknown_model").inc()
                raise GatewayFault(E_UNKNOWN_MODEL, 404, str(exc)) from None
            old_service = self._service
            predictor = old_service.predictor
            options = dict(self._service_options)
            options.setdefault("store", old_service.store)
            try:
                manifest = read_manifest(path)
                replacement = PredictionService.from_artifact(
                    path, predictor.source, predictor.dataset,
                    stats=old_service.stats, **options,
                )
            except ArtifactError as exc:
                self._m_reloads.labels(outcome="bad_artifact").inc()
                raise GatewayFault(
                    E_BAD_ARTIFACT, 409,
                    f"artifact {request.ref!r} failed to load: {exc}",
                ) from None
            descriptor = describe_model(request.ref, path, manifest,
                                        name=name, version=path.name)
            with self._score_lock:
                # The new model continues the old one's stream: the pump
                # sequences it accumulated, its dedup window and its fold
                # cursor on the shared store.
                replacement.take_over(old_service)
                previous, self.model = self.model, descriptor
                self._service = replacement
            self.reloads += 1
            self._m_reloads.labels(outcome="ok").inc()
            self._set_model_info()
        return ReloadResponseV1(model=descriptor, previous=previous)

    def models(self) -> ModelsResponseV1:
        self.count("models")
        if self.registry is None:
            return ModelsResponseV1(registry=None, current=dict(self.model))
        from repro.registry import registry_payload

        payload = registry_payload(self.registry)
        return ModelsResponseV1(registry=payload["root"],
                                current=dict(self.model),
                                models=payload["models"])

    # -- introspection -------------------------------------------------------

    def healthz(self) -> HealthResponseV1:
        return HealthResponseV1(
            status="ok",
            model=dict(self.model),
            uptime_seconds=_time.monotonic() - self._started,
            reloads=self.reloads,
        )

    def stats(self) -> StatsResponseV1:
        with self._counter_lock:
            counters = dict(self.counters)
        gateway = {
            "max_batch": self.max_batch,
            "reloads": self.reloads,
            "uptime_seconds": round(_time.monotonic() - self._started, 3),
            "requests": counters,
        }
        return StatsResponseV1(service=self._service.stats.summary(),
                               gateway=gateway)

    # -- observability -------------------------------------------------------

    def record_request(self, endpoint: str, status: int,
                       seconds: float) -> None:
        """Count one handled HTTP request (called by the transport layer)."""
        self._m_requests.labels(endpoint=endpoint, status=str(status)).inc()
        self._m_request_seconds.labels(endpoint=endpoint).observe(seconds)

    def record_error(self, code: str) -> None:
        """Count one error response by its stable wire code."""
        self._m_errors.labels(code=code).inc()

    def record_shed(self, reason: str) -> None:
        """Count one request refused before doing work.

        ``reason`` is one of ``overloaded`` (admission bound),
        ``draining`` (graceful shutdown in progress) or ``deadline``
        (request budget spent before scoring).
        """
        self._m_shed.labels(reason=reason).inc()

    def snapshot_stats(self) -> None:
        """Persist the current service-stats summary to the event store.

        Called periodically and at graceful shutdown; rehydration
        restores counters from the latest snapshot (exact row-backed
        counters are then overridden from the log itself).
        """
        self.store.append_stats(self._service.stats.summary())

    def metrics_text(self) -> str:
        """Prometheus text exposition of every registry this app can see.

        Under a worker pool, the installed ``metrics_merge`` hook folds
        the sibling workers' latest dumps into this worker's exposition
        so any worker answers a pool-level scrape.
        """
        text = self.telemetry.render_metrics(self._service.stats.registry)
        if self.metrics_merge is not None:
            text = self.metrics_merge(text)
        return text

    def trace_recent(self, limit: int | None = None) -> TraceResponseV1:
        return TraceResponseV1(traces=self.telemetry.traces.recent(limit))
