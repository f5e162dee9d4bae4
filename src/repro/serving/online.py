"""Incremental pump-message detection and sessionization.

The offline pipeline (§3.2) scans the full corpus: filter → classify →
sort → group into 24h-gap sessions → extract samples.  Streaming cannot
re-scan history, so this module maintains the same state *incrementally*:

* :class:`OnlineDetector` applies the fitted keyword filter + RF to one
  message at a time.  It scores the message alone, as a one-document
  TF-IDF row walked down the forest's flat node lists without scipy, to
  the offline batch score's exact bits, so both flag the same messages;
* :class:`OnlineSessionizer` keeps one open session per channel, closing it
  when a message arrives more than ``gap_hours`` after the previous one,
  and parses exchange/pair/release information as messages arrive.

Fed the detected messages in timestamp order, the sessionizer produces
exactly the session partition of :func:`repro.data.sessions.sessionize`
(same strict ``> gap_hours`` boundary); announcements differ from offline
:func:`extract_sample` only in that a streaming system necessarily acts on
the *first* resolvable release of a session — it cannot wait to learn
whether the channel will repost the symbol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.data.detection import DETECTION_THRESHOLD, PumpMessageDetector
from repro.data.sessions import (
    SESSION_GAP_HOURS,
    PnDSample,
    Session,
    parse_exchange_id,
    parse_pair,
    parse_release_symbol,
)
from repro.serving.stats import ServiceStats
from repro.types import Message
from repro.text import KeywordFilter
from repro.utils.payload import payload_float, payload_int, payload_str

#: Announcement times must stay below this magnitude: past 2**53 a
#: float64 cannot tell whole hours apart, and the market sources' int64
#: hour arithmetic overflows long before the float range ends.
MAX_ABS_TIME = 2.0 ** 53


@dataclass(frozen=True)
class Announcement:
    """A resolvable coin release observed on the stream.

    Field-compatible with :class:`PnDSample`; ``sample()`` converts, so the
    serving history cache and the offline dataset speak the same type.

    ``coin_id`` may be ``-1`` — "released coin not (yet) known" — which is
    the normal case for a *prediction* request arriving over the gateway:
    the caller asks which coin will pump before the channel reveals it.
    Sentinel announcements rank normally but are never folded into a
    channel's pump history (see :meth:`PredictionService.observe`).
    """

    channel_id: int
    coin_id: int
    exchange_id: int
    pair: str
    time: float

    def sample(self) -> PnDSample:
        return PnDSample(channel_id=self.channel_id, coin_id=self.coin_id,
                         exchange_id=self.exchange_id, pair=self.pair,
                         time=self.time)

    def event_id(self) -> str:
        """Deterministic identity of this announcement as a stream event.

        Two announcements with identical fields are the *same* event (the
        sessionizer emits at most one announcement per session, so field
        equality cannot conflate distinct releases).  ``repr`` of the
        float keeps the id exact — no two distinct times collide.
        """
        return (f"{self.channel_id}/{self.coin_id}/{self.exchange_id}/"
                f"{self.pair}@{self.time!r}")

    # -- wire codec (shared by the gateway server, client and sinks) --------

    def to_payload(self) -> dict:
        return {"channel_id": self.channel_id, "coin_id": self.coin_id,
                "exchange_id": self.exchange_id, "pair": self.pair,
                "time": self.time}

    @classmethod
    def from_payload(cls, payload: dict) -> "Announcement":
        """Strict decode; raises :class:`ValueError` naming the bad field.

        ``channel_id`` and ``time`` are required; ``coin_id`` defaults to
        the ``-1`` sentinel, ``exchange_id`` to Binance (0) and ``pair``
        to BTC — the same defaults offline sample extraction applies.
        ``|time|`` must be below :data:`MAX_ABS_TIME`.
        """
        if not isinstance(payload, dict):
            raise ValueError("announcement must be an object")
        announcement = cls(
            channel_id=payload_int(payload, "channel_id"),
            coin_id=payload_int(payload, "coin_id", default=-1),
            exchange_id=payload_int(payload, "exchange_id", default=0),
            pair=payload_str(payload, "pair", default="BTC"),
            time=payload_float(payload, "time"),
        )
        if abs(announcement.time) >= MAX_ABS_TIME:
            raise ValueError(f"field 'time' must be below 2**53 in "
                             f"magnitude, got {announcement.time!r}")
        return announcement


class OnlineDetector:
    """Per-message §3.2 detection: the fitted keyword filter, then the RF
    at :data:`DETECTION_THRESHOLD`, the cut-off the offline pipeline uses.

    Each message that passes the filter is scored alone with
    :meth:`PumpMessageDetector.predict_proba_one`, which needs no scipy
    and gives the offline batch score's exact bits.
    """

    def __init__(self, keyword_filter: KeywordFilter,
                 detector: PumpMessageDetector,
                 stats: ServiceStats | None = None):
        self.keyword_filter = keyword_filter
        self.detector = detector
        self.stats = stats or ServiceStats()

    @classmethod
    def from_detection(cls, detection,
                       stats: ServiceStats | None = None) -> "OnlineDetector":
        """Build from a :class:`DetectionOutcome` that kept its artefacts."""
        if detection.keyword_filter is None or "rf" not in detection.detectors:
            raise ValueError(
                "DetectionOutcome carries no fitted artefacts; re-run "
                "run_detection_pipeline() from this version of the code"
            )
        return cls(detection.keyword_filter, detection.detectors["rf"],
                   stats=stats)

    def is_pump(self, message: Message) -> bool:
        """Classify one message as it arrives (no ground-truth access)."""
        if not self.keyword_filter.matches(message.text):
            return False
        if self.detector.predict_proba_one(message.text) < DETECTION_THRESHOLD:
            return False
        self.stats.pump_messages += 1
        return True


@dataclass
class _ChannelState:
    """One channel's open session plus incrementally parsed fields."""

    messages: list[Message]
    exchange_id: int = 0       # default Binance, as in extract_sample
    pair: str = "BTC"
    announced: bool = False    # this session already produced an announcement

    def session(self, channel_id: int) -> Session:
        return Session(channel_id, self.messages)


class OnlineSessionizer:
    """Incremental 24h-gap sessionization over detected pump messages.

    ``add`` returns ``(closed_session, announcement)`` — either may be
    ``None``.  A session closes when its channel's next detected message
    arrives more than ``gap_hours`` later (a gap of *exactly* ``gap_hours``
    keeps the session open, matching the offline boundary); an announcement
    is emitted whenever a message resolves to a known coin symbol, carrying
    the exchange/pair parsed from the session so far.
    """

    def __init__(self, symbols: Sequence[str], exchange_names: Sequence[str],
                 gap_hours: float = SESSION_GAP_HOURS,
                 stats: ServiceStats | None = None):
        if gap_hours <= 0:
            raise ValueError("gap_hours must be positive")
        self.gap_hours = gap_hours
        self.known_symbols = {s: i for i, s in enumerate(symbols)}
        self.exchange_ids = {name: i for i, name in enumerate(exchange_names)}
        self.stats = stats or ServiceStats()
        self._open: dict[int, _ChannelState] = {}

    def add(self, message: Message
            ) -> tuple[Session | None, Announcement | None]:
        """Fold one detected message into its channel's session state."""
        state = self._open.get(message.channel_id)
        closed: Session | None = None
        if state is not None and \
                message.time - state.messages[-1].time > self.gap_hours:
            closed = state.session(message.channel_id)
            self.stats.sessions_closed += 1
            state = None
        if state is None:
            state = _ChannelState(messages=[])
            self._open[message.channel_id] = state
        state.messages.append(message)

        exchange = parse_exchange_id(message.text, self.exchange_ids)
        if exchange is not None:
            state.exchange_id = exchange
        pair = parse_pair(message.text)
        if pair is not None:
            state.pair = pair

        announcement: Announcement | None = None
        coin_id = parse_release_symbol(message.text, self.known_symbols)
        if coin_id is not None:
            if state.announced:
                # Channels repost the release symbol; one session is one
                # P&D, so only the first resolvable release announces.
                self.stats.duplicate_releases += 1
            else:
                state.announced = True
                self.stats.announcements += 1
                announcement = Announcement(
                    channel_id=message.channel_id,
                    coin_id=int(coin_id),
                    exchange_id=state.exchange_id,
                    pair=state.pair,
                    time=message.time,
                )
        return closed, announcement

    def open_session(self, channel_id: int) -> Session | None:
        """The channel's still-open session, if any."""
        state = self._open.get(channel_id)
        return state.session(channel_id) if state else None

    def flush(self) -> list[Session]:
        """Close and return every open session (end of stream)."""
        sessions = [
            state.session(channel_id)
            for channel_id, state in self._open.items()
        ]
        self.stats.sessions_closed += len(sessions)
        self._open.clear()
        sessions.sort(key=lambda s: s.start)
        return sessions
