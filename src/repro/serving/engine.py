"""The stream engine: detector → sessionizer → prediction service → sinks.

:class:`StreamEngine` consumes a :class:`MessageStream` and, message by
message, runs the incremental §3.2 pipeline.  Announcements that land on
the same stream timestamp are micro-batched into one model forward pass —
coordinated P&Ds release across many channels simultaneously, so this is
the common case, not a corner case.

:func:`build_engine` wires an engine from the offline artefacts (data
source, collection, trained predictor); :func:`replay_test_period` is the
one-call deployment simulation used by the CLI, the live-monitoring
example and the end-to-end tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.predictor import TargetCoinPredictor
from repro.data.pipeline import CollectionResult
from repro.serving.online import Announcement, OnlineDetector, OnlineSessionizer
from repro.serving.service import Alert, PredictionService
from repro.serving.sinks import AlertSink
from repro.serving.stats import ServiceStats
from repro.serving.stream import MessageStream
from repro.sources.base import as_source
from repro.telemetry import span

# Two stream timestamps closer than this are "concurrent" for batching.
TIME_EPSILON = 1e-9


def drive_stream(stream: MessageStream, *, detector: OnlineDetector,
                 sessionizer: OnlineSessionizer, stats: ServiceStats,
                 rank_batch, max_batch: int,
                 sinks: tuple[AlertSink, ...] = (),
                 admit=None) -> tuple[list[Alert], list[Announcement]]:
    """The micro-batching event loop shared by local and remote serving.

    Messages flow through detection and sessionization one at a time;
    announcements landing within :data:`TIME_EPSILON` of each other are
    grouped, and every group is scored through ``rank_batch(batch) ->
    (alerts, skipped)`` in ``max_batch``-sized slices.  ``admit``, when
    given, gates each announcement before it joins a batch (return False
    to skip it).  One loop serves both :class:`StreamEngine` (in-process
    ranking, local gates) and :class:`repro.gateway.RemoteReplay`
    (ranking over HTTP, server-side gates) — the bit-for-bit remote/local
    alert parity rests on them batching identically, so there is exactly
    one implementation to keep correct.
    """
    alerts: list[Alert] = []
    skipped: list[Announcement] = []
    pending: list[Announcement] = []

    def flush() -> None:
        while pending:
            batch, pending[:] = pending[:max_batch], pending[max_batch:]
            batch_alerts, batch_skipped = rank_batch(batch)
            skipped.extend(batch_skipped)
            with span("sink.emit", alerts=len(batch_alerts)):
                for alert in batch_alerts:
                    for sink in sinks:
                        sink.emit(alert)
            alerts.extend(batch_alerts)

    with stats.timed_run():
        for message in stream:
            if pending and message.time > pending[-1].time + TIME_EPSILON:
                flush()
            stats.messages += 1
            if not detector.is_pump(message):
                continue
            _closed, announcement = sessionizer.add(message)
            if announcement is None:
                continue
            if admit is not None and not admit(announcement):
                skipped.append(announcement)
                continue
            pending.append(announcement)
        flush()
        sessionizer.flush()
    return alerts, skipped


@dataclass
class EngineResult:
    """Everything one replay produced."""

    alerts: list[Alert]
    stats: ServiceStats
    # Announcements not served: unknown channel or no listed candidates.
    skipped: list[Announcement] = field(default_factory=list)


class StreamEngine:
    """Event-driven serving loop over a message stream."""

    def __init__(self, detector: OnlineDetector, sessionizer: OnlineSessionizer,
                 service: PredictionService, sinks: tuple[AlertSink, ...] = (),
                 max_batch: int = 64, stats: ServiceStats | None = None):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.detector = detector
        self.sessionizer = sessionizer
        self.service = service
        self.sinks = tuple(sinks)
        self.max_batch = max_batch
        self.stats = stats or ServiceStats()

    def _admit(self, announcement: Announcement) -> bool:
        """Gate an announcement before it joins a micro-batch."""
        if not self.service.knows_channel(announcement.channel_id):
            self.stats.unknown_channels += 1
            return False
        if not self.service.has_candidates(announcement):
            # An always-on loop must outlive odd announcements
            # (e.g. an exchange with nothing listed yet).
            self.stats.no_candidates += 1
            return False
        return True

    def run(self, stream: MessageStream) -> EngineResult:
        """Replay the stream to exhaustion, emitting alerts along the way."""
        alerts, skipped = drive_stream(
            stream, detector=self.detector, sessionizer=self.sessionizer,
            stats=self.stats, max_batch=self.max_batch, sinks=self.sinks,
            admit=self._admit,
            rank_batch=lambda batch: (self.service.rank_batch(batch), []),
        )
        return EngineResult(alerts=alerts, stats=self.stats, skipped=skipped)


def build_engine(source, collection: CollectionResult,
                 predictor, *,
                 sinks: tuple[AlertSink, ...] = (), bucket_hours: float = 1.0,
                 cache_entries: int = 512, max_batch: int = 64,
                 history_cutoff: float | None = None,
                 detector_threshold: float | None = None,
                 store=None) -> StreamEngine:
    """Wire a stream engine from the offline pipeline's artefacts.

    ``source`` is any :class:`repro.sources.DataSource` backend (or a
    bare synthetic world) — the same seam the offline pipeline uses,
    so an engine can serve recorded file dumps as easily as the
    simulator.  ``predictor`` is either an in-memory
    :class:`TargetCoinPredictor` or a saved-artifact reference (a
    :class:`repro.registry.PredictorArtifact` or a path to an artifact
    directory), so a serving process can boot straight from disk without
    retraining.

    One :class:`ServiceStats` instance is shared by every component, so the
    resulting engine's ``stats`` reflects the whole serving path.
    """
    source = as_source(source)
    if not isinstance(predictor, TargetCoinPredictor):
        predictor = TargetCoinPredictor.from_artifact(
            predictor, source, collection.dataset
        )
    stats = ServiceStats()
    detector_kwargs = {}
    if detector_threshold is not None:
        detector_kwargs["threshold"] = detector_threshold
    detector = OnlineDetector.from_detection(
        collection.detection, stats=stats, **detector_kwargs
    )
    sessionizer = OnlineSessionizer(
        source.coins.symbols,
        list(source.exchange_names),
        stats=stats,
    )
    service = PredictionService(
        predictor, bucket_hours=bucket_hours, cache_entries=cache_entries,
        history_cutoff=history_cutoff, stats=stats, store=store,
    )
    return StreamEngine(detector, sessionizer, service, sinks=sinks,
                        max_batch=max_batch, stats=stats)


def replay_test_period(source, collection: CollectionResult,
                       predictor, *,
                       sinks: tuple[AlertSink, ...] = (),
                       bucket_hours: float = 1.0, cache_entries: int = 512,
                       max_batch: int = 64, store=None) -> EngineResult:
    """Replay the held-out test period as a live deployment simulation.

    Streams every explored channel's messages from the validation/test
    boundary onwards — the same horizon the offline test split covers, so
    alert quality is directly comparable to Table 5 metrics.  Like
    :func:`build_engine`, ``source`` may be any backend and ``predictor``
    an in-memory predictor or a saved-artifact reference.
    """
    source = as_source(source)
    start = collection.dataset.split_hours[1]
    engine = build_engine(
        source, collection, predictor, sinks=sinks, bucket_hours=bucket_hours,
        cache_entries=cache_entries, max_batch=max_batch,
        history_cutoff=start, store=store,
    )
    stream = MessageStream.replay(
        source, start=start,
        channel_ids=collection.exploration.explored_ids,
    )
    return engine.run(stream)
