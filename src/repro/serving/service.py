"""The prediction service: cached, micro-batched target-coin ranking.

Wraps a :class:`TargetCoinPredictor` for streaming use:

* **per-channel history cache** — the channel pump histories that feed the
  sequence features are kept in memory and extended as announcements flow
  in, instead of re-queried from the offline dataset;
* **feature cache** — the coin/market feature matrix is memoized per
  (exchange, time-bucket) via :class:`FeatureCache`;
* **micro-batching** — ``rank_batch`` concatenates N concurrent
  announcements into one model forward pass via
  :meth:`TargetCoinPredictor.rank_many`.

Scores are identical with caching on or off (quantization, when enabled,
applies in both paths), and with ``bucket_hours=0`` identical to the
offline :meth:`TargetCoinPredictor.rank` path.
"""

from __future__ import annotations

import bisect
import time as _time
import uuid
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

import numpy as np

from repro.core.predictor import RankRequest, Ranking, TargetCoinPredictor
from repro.data.dataset import ServingSlice, history_window
from repro.data.sessions import PnDSample
from repro.nn.compile import prewarm
from repro.serving.cache import FeatureCache
from repro.serving.online import Announcement
from repro.serving.stats import ServiceStats
from repro.store.base import EventStore, NullEventStore
from repro.telemetry import span
from repro.utils.payload import compact_json, payload_float, payload_object

#: In-memory dedup window for observation event ids.  A durable store
#: also enforces uniqueness, so evicting old ids here never readmits a
#: duplicate when one is attached; without a store this bounds memory.
SEEN_EVENTS_CAPACITY = 65536


@dataclass(frozen=True)
class Alert:
    """One ranked alert: the announcement plus the model's candidate list."""

    announcement: Announcement
    ranking: Ranking
    latency_ms: float      # this announcement's share of its micro-batch

    @property
    def announced_rank(self) -> int:
        """1-based rank of the coin the channel eventually released."""
        return self.ranking.rank_of(self.announcement.coin_id)

    def top(self, k: int):
        return self.ranking.top(k)

    # -- wire codec (shared by the gateway server and client) ----------------

    def to_payload(self) -> dict:
        """JSON-safe wire form; ranking probabilities survive bit-for-bit.

        ``announced_rank`` is included for consumers but is derived state:
        :meth:`from_payload` recomputes it from the decoded ranking.
        """
        return {
            "announcement": self.announcement.to_payload(),
            "ranking": self.ranking.to_payload(),
            "latency_ms": self.latency_ms,
            "announced_rank": self.announced_rank,
        }

    @cached_property
    def wire_json(self) -> str:
        """:meth:`to_payload` as compact JSON, encoded once per alert.

        Byte for byte ``json.dumps(self.to_payload(), separators=(",",
        ":"))``, written from the ranking's columns
        (:meth:`Ranking.to_json`).  The gateway's response body and the
        event log's ``alerts.payload`` share this one text.
        """
        return (
            f'{{"announcement":{compact_json(self.announcement.to_payload())},'
            f'"ranking":{self.ranking.to_json()},'
            f'"latency_ms":{compact_json(self.latency_ms)},'
            f'"announced_rank":{self.announced_rank:d}}}'
        )

    @classmethod
    def from_payload(cls, payload: dict) -> "Alert":
        if not isinstance(payload, dict):
            raise ValueError("alert must be an object")
        return cls(
            announcement=Announcement.from_payload(
                payload_object(payload, "announcement")
            ),
            ranking=Ranking.from_payload(payload_object(payload, "ranking")),
            latency_ms=payload_float(payload, "latency_ms", default=0.0),
        )


class PredictionService:
    """Serve ranked alerts for announcements with caching and batching.

    Parameters
    ----------
    predictor:
        The trained offline predictor being served.
    history_cutoff:
        Seed the per-channel history cache with dataset samples strictly
        before this time (defaults to the validation/test boundary, i.e.
        everything the model legitimately saw).  Streamed announcements
        observed later extend the cache.  A predictor bound from an
        artifact alone holds samples only up to that boundary, so a later
        cutoff is refused.
    bucket_hours:
        Feature-time quantization (see :mod:`repro.serving.cache`).
    cache_entries:
        Feature-cache LRU capacity; ``0`` disables memoization.
    store:
        An :class:`~repro.store.EventStore` every streamed event is
        appended to as it flows (announcements submitted for ranking,
        the ranked alerts, observed releases).  ``None`` serves from
        memory only, exactly as before.
    """

    def __init__(self, predictor: TargetCoinPredictor, *,
                 history_cutoff: float | None = None,
                 bucket_hours: float = 1.0, cache_entries: int = 512,
                 stats: ServiceStats | None = None,
                 store: EventStore | None = None):
        self.store = store if store is not None else NullEventStore()
        self.stats = stats or ServiceStats()
        self.bucket_hours = bucket_hours
        self.cache_entries = cache_entries
        self.swap(predictor)
        boundary = predictor.dataset.split_hours[1]
        if history_cutoff is None:
            history_cutoff = boundary
        elif history_cutoff > boundary \
                and isinstance(predictor.dataset, ServingSlice):
            raise ValueError(
                f"history_cutoff {history_cutoff} is past the artifact's "
                f"serving histories, which end at {boundary}; pass the "
                "dataset to seed from later samples"
            )
        self.history_cutoff = history_cutoff
        # Observation event ids already folded (value unused) — the fast
        # path of retry/replay dedup; the durable store is the slow path.
        self._seen_events: "OrderedDict[str, None]" = OrderedDict()
        # Seq of the last store row folded: every fold goes through
        # catch_up() in store sequence order, so N services sharing one
        # event log converge on bit-identical histories.
        self._store_cursor = 0
        self._history: dict[int, list[PnDSample]] = {}
        for channel_id, samples in predictor.dataset.history.items():
            # Every sample before the cutoff: the window as long as the list.
            seeded = history_window(samples, history_cutoff, len(samples))
            if seeded:
                self._history[channel_id] = seeded

    def swap(self, predictor: TargetCoinPredictor) -> None:
        """Serve ``predictor`` from now on, continuing the same stream.

        The constructor binds its predictor through here, and the
        gateway's ``/v1/models/reload`` calls it under the scoring lock
        with a predictor loaded off the lock.  The coin/market feature
        cache and the candidate memo start fresh, bound to ``predictor``.
        The stream stays: the history cache, the dedup window, the fold
        cursor on the store, the stats, the store, ``bucket_hours`` and
        ``cache_entries``.  So a hot-swap loses none of the announcements
        streamed since boot, still deduplicates a retry straddling it,
        and keeps folding other writers' observations from where it was.
        """
        self.predictor = predictor
        # Labels the rank_latency_seconds series (and trace attributes).
        self.model_name = type(predictor.model).__name__
        # Trace AND verify the shared no-grad inference plan up front (on a
        # synthetic batch): the streaming engine serves alerts through the
        # same compiled plan batch evaluation uses (see repro.nn.compile),
        # so the first announcement pays neither tracing nor the verify-time
        # eager forward.
        prewarm(predictor.model)
        self._cache = FeatureCache(
            predictor.coin_market_block, bucket_hours=self.bucket_hours,
            max_entries=self.cache_entries, stats=self.stats,
        )
        # Candidate sets resolved by the has_candidates() gate, kept until
        # rank_batch() consumes them so the lookup runs once per alert.
        self._candidates_memo: "OrderedDict[tuple, np.ndarray]" = OrderedDict()

    @classmethod
    def from_artifact(cls, artifact, source, dataset=None,
                      **kwargs) -> "PredictionService":
        """Boot a service from a saved predictor artifact — no training.

        ``artifact`` is a :class:`repro.registry.PredictorArtifact` or a
        path to an artifact directory; ``source`` is the market oracle the
        features read from (any :class:`repro.sources.DataSource`
        backend, not necessarily the one the model trained on).  The
        channel histories come from ``dataset`` when one is passed, else
        from the artifact itself.  All keyword arguments are forwarded
        to the constructor, so a cold start is one call::

            service = PredictionService.from_artifact(
                "models/snn/v0001", source
            )
        """
        from repro.core.predictor import TargetCoinPredictor

        predictor = TargetCoinPredictor.from_artifact(artifact, source,
                                                      dataset)
        return cls(predictor, **kwargs)

    # -- state ---------------------------------------------------------------

    def knows_channel(self, channel_id: int) -> bool:
        return self.predictor.knows_channel(channel_id)

    def has_candidates(self, announcement: Announcement) -> bool:
        """True when any eligible coin is listed for this announcement."""
        return len(self._candidates(announcement)) > 0

    def _candidates(self, announcement: Announcement) -> np.ndarray:
        """Eligible coins for an announcement, resolved at most once."""
        key = (announcement.exchange_id, announcement.time)
        coins = self._candidates_memo.get(key)
        if coins is None:
            coins = self.predictor.candidates(*key)
            self._candidates_memo[key] = coins
            while len(self._candidates_memo) > 64:
                self._candidates_memo.popitem(last=False)
        return coins

    def history(self, channel_id: int) -> list[PnDSample]:
        """The channel's cached pump history (chronological)."""
        return list(self._history.get(channel_id, ()))

    def observe(self, announcement: Announcement,
                event_id: str | None = None) -> bool:
        """Fold a served announcement into the channel's history cache.

        Announcements carrying the ``coin_id == -1`` sentinel (a gateway
        prediction request whose released coin is not known yet) are
        ignored: a placeholder coin in the pump history would poison the
        sequence features of every later request on that channel.

        ``event_id`` makes the fold idempotent: an id already folded (in
        memory or in the attached durable store) is skipped, so client
        retries and crash/replay recovery never double-count an event.
        Without one, a fresh unique id is minted and the call always
        folds — the pre-existing semantics of repeated ``observe``.

        The observation is appended to the store and folded through
        :meth:`catch_up`, with whatever other writers appended before it.

        Returns ``True`` when the history actually grew.
        """
        if announcement.coin_id < 0:
            return False
        if event_id is None:
            event_id = f"obs:{uuid.uuid4().hex}"
        elif event_id in self._seen_events:
            return False
        fresh = self.store.append_observation(announcement, event_id)
        # Fold first: a duplicate id may sit on a peer's row this service
        # has not folded yet, and a remembered id is never folded.
        self.catch_up()
        if not fresh:
            self._remember_event(event_id)
        return fresh

    def catch_up(self) -> int:
        """Fold observations appended since the cursor (any writer).

        The one fold path: idempotent per event id, ordered by store seq.
        A fresh service starts at seq 0, so its first catch-up replays
        the whole log (rehydration).  Each sample is inserted at its time
        (after any equal time), so a channel's history stays chronological
        when an observation arrives late.  Returns how many rows were read.
        """
        rows = self.store.observations_since(self._store_cursor)
        for seq, event_id, announcement in rows:
            self._store_cursor = seq
            if event_id in self._seen_events:
                continue
            self._remember_event(event_id)
            if announcement.coin_id >= 0:
                bisect.insort(
                    self._history.setdefault(announcement.channel_id, []),
                    announcement.sample(), key=attrgetter("time"),
                )
        return len(rows)

    def _remember_event(self, event_id: str) -> None:
        self._seen_events[event_id] = None
        while len(self._seen_events) > SEEN_EVENTS_CAPACITY:
            self._seen_events.popitem(last=False)

    def history_snapshot(self) -> dict[int, list[PnDSample]]:
        """Copy of the full per-channel history cache."""
        return {channel_id: list(samples)
                for channel_id, samples in self._history.items()}

    def _history_before(self, channel_id: int, time: float) -> list[PnDSample]:
        return history_window(self._history.get(channel_id, ()), time,
                              self.predictor.assembler.sequence_length)

    # -- scoring -------------------------------------------------------------

    def rank_one(self, announcement: Announcement) -> Alert:
        return self.rank_batch([announcement])[0]

    def rank_batch(self, announcements: list[Announcement]) -> list[Alert]:
        """Score a micro-batch of announcements in one forward pass.

        Announcements are folded into the history cache only *after* the
        whole batch is scored, so no announcement sees itself (or a
        same-instant peer) in its own sequence features — matching the
        offline dataset's strict ``history_before`` semantics.
        """
        if not announcements:
            return []
        # Fold whatever other writers (peer workers) observed since our
        # last look, so this batch scores against the same global history
        # a single process would have.
        self.catch_up()
        started = _time.perf_counter()
        with span("service.rank_batch", batch=len(announcements),
                  model=self.model_name):
            requests = [
                RankRequest(a.channel_id, a.exchange_id, a.time,
                            candidates=self._candidates(a))
                for a in announcements
            ]
            rankings = self.predictor.rank_many(
                requests,
                features_fn=self._cache.features,
                history_fn=self._history_before,
            )
        elapsed_ms = (_time.perf_counter() - started) * 1000.0
        per_announcement = elapsed_ms / len(announcements)
        if any(len(ranking.coin_ids) for ranking in rankings):
            # A batch whose every candidate set was empty never reached
            # the model (see rank_many) — don't claim a forward pass.
            self.stats.forward_passes += 1
        alerts = []
        for announcement, ranking in zip(announcements, rankings):
            self.stats.scored_rows += len(ranking.coin_ids)
            self.stats.alerts += 1
            self.stats.record_latency(per_announcement,
                                      model=self.model_name)
            alerts.append(Alert(announcement=announcement, ranking=ranking,
                                latency_ms=per_announcement))
        for announcement in announcements:
            # Logged once the batch has scored, before its alerts: a batch
            # the source cannot score (or a coalesced flush re-scored one
            # at a time) leaves no row for what was refused.
            self.store.append_announcement(announcement)
        for alert in alerts:
            self.store.append_alert(alert)
        for announcement in announcements:
            # The deterministic event id makes the fold idempotent: a
            # retried rank of the same announcement scores again (scores
            # are history-pure) but never double-counts the release.
            self.observe(announcement, event_id=announcement.event_id())
        return alerts
