"""Replay a message stream against a *remote* gateway.

Pump detection and 24h-gap sessionization run locally (they need only
the fitted detection artefacts, not the ranker), while every scoring
decision goes over the wire through the :class:`GatewayClient`.  The
loop is the in-process one, :class:`repro.serving.StreamEngine`, with
:func:`remote_ranker` in place of ``PredictionService.rank_batch``, so a
replay against a gateway serving the same artifact produces bit-for-bit
the alerts the local engine would (``tests/gateway/test_remote_replay.py``).

Where the local engine gates announcements before batching
(``knows_channel`` / ``has_candidates``), the remote ranker cannot — the
model lives on the server — so it sends optimistically and converts the
gateway's stable 422 codes (``unknown_channel`` / ``no_candidates``) back
into the engine's skip semantics, falling back from one batch POST to
per-item POSTs only when a batch is refused.
"""

from __future__ import annotations

from repro.data.pipeline import CollectionResult
from repro.gateway.client import GatewayClient, GatewayRequestError
from repro.gateway.schema import E_NO_CANDIDATES, E_UNKNOWN_CHANNEL
from repro.serving.engine import (
    EngineResult,
    StreamEngine,
    detector_and_sessionizer,
    held_out_stream,
)
from repro.serving.online import Announcement
from repro.serving.service import Alert
from repro.serving.sinks import AlertSink
from repro.serving.stats import ServiceStats
from repro.sources.base import as_source


def remote_ranker(client: GatewayClient, stats: ServiceStats):
    """A :class:`StreamEngine` ranker that scores through ``client``.

    One ``/v1/rank/batch`` per micro-batch; a batch the gateway refuses
    with a skip code degrades to one ``/v1/rank`` per announcement, and
    each refused one comes back as ``None`` (counted like the local
    engine's skips).  Served alerts are counted with their
    server-measured scoring latency.
    """

    def rank_one(announcement: Announcement) -> Alert | None:
        try:
            return client.rank(announcement)
        except GatewayRequestError as exc:
            if exc.code == E_UNKNOWN_CHANNEL:
                stats.unknown_channels += 1
            elif exc.code == E_NO_CANDIDATES:
                stats.no_candidates += 1
            else:
                raise
        return None

    def rank_batch(batch: list[Announcement]) -> list[Alert | None]:
        try:
            results = client.rank_batch(batch)
        except GatewayRequestError as exc:
            if exc.code not in (E_UNKNOWN_CHANNEL, E_NO_CANDIDATES):
                raise
            results = [rank_one(announcement) for announcement in batch]
        for alert in results:
            if alert is not None:
                stats.alerts += 1
                stats.record_latency(alert.latency_ms)
        return results

    return rank_batch


def replay_against_gateway(source, collection: CollectionResult,
                           client: GatewayClient, *,
                           sinks: tuple[AlertSink, ...] = (),
                           max_batch: int = 64,
                           detector_threshold: float | None = None
                           ) -> EngineResult:
    """Replay the held-out test period against a running gateway.

    The remote counterpart of
    :func:`repro.serving.replay_test_period` — same stream window, same
    monitored channel set, same micro-batching — with the ranking model
    living behind ``client`` instead of in this process.
    """
    source = as_source(source)
    stats = ServiceStats()
    detector, sessionizer = detector_and_sessionizer(
        source, collection, stats, detector_threshold=detector_threshold,
    )
    engine = StreamEngine(detector, sessionizer,
                          remote_ranker(client, stats), sinks=sinks,
                          max_batch=max_batch, stats=stats)
    return engine.run(held_out_stream(source, collection))
