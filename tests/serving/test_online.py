"""Incremental detection and sessionization."""

import numpy as np
import pytest

from repro.data import SESSION_GAP_HOURS, sessionize
from repro.serving import OnlineDetector, OnlineSessionizer, ServiceStats
from repro.types import Message
from repro.text import KeywordFilter

SYMBOLS = ["BTC", "ETH", "ABC", "XYZ"]
EXCHANGES = ["Binance", "Bittrex", "Yobit"]


def _msg(message_id, channel_id, time, text="pump soon"):
    return Message(message_id, channel_id, float(time), text, "countdown")


def _sessionizer(**kwargs):
    return OnlineSessionizer(SYMBOLS, EXCHANGES, **kwargs)


class TestOnlineSessionizer:
    def test_gap_of_exactly_24h_stays_open(self):
        sessionizer = _sessionizer()
        assert sessionizer.add(_msg(0, 1, 0.0))[0] is None
        closed, _ = sessionizer.add(_msg(1, 1, SESSION_GAP_HOURS))
        assert closed is None
        assert len(sessionizer.open_session(1).messages) == 2

    def test_gap_above_24h_closes(self):
        sessionizer = _sessionizer()
        sessionizer.add(_msg(0, 1, 0.0))
        closed, _ = sessionizer.add(_msg(1, 1, SESSION_GAP_HOURS + 0.001))
        assert closed is not None
        assert [m.message_id for m in closed.messages] == [0]
        assert [m.message_id for m in sessionizer.open_session(1).messages] == [1]

    def test_channels_are_independent(self):
        sessionizer = _sessionizer()
        sessionizer.add(_msg(0, 1, 0.0))
        sessionizer.add(_msg(1, 2, 20.0))
        # 30h after channel 2's last message but 50h after channel 1's: only
        # channel 1's session closes when its own next message arrives.
        closed, _ = sessionizer.add(_msg(2, 2, 50.0))
        assert closed is not None and closed.channel_id == 2
        assert sessionizer.open_session(1) is not None

    def test_matches_offline_sessionize(self):
        rng = np.random.default_rng(3)
        messages = []
        time = 0.0
        for i in range(400):
            time += float(rng.exponential(9.0))
            messages.append(_msg(i, int(rng.integers(0, 4)), time))
        sessionizer = _sessionizer()
        online = []
        for message in messages:
            closed, _ = sessionizer.add(message)
            if closed is not None:
                online.append(closed)
        online.extend(sessionizer.flush())
        offline = sessionize(messages)
        key = lambda s: (s.channel_id, s.start)
        online.sort(key=key)
        offline.sort(key=key)
        assert len(online) == len(offline)
        for ours, theirs in zip(online, offline):
            assert ours.channel_id == theirs.channel_id
            assert [m.message_id for m in ours.messages] == \
                [m.message_id for m in theirs.messages]

    def test_announcement_carries_parsed_exchange_and_pair(self):
        sessionizer = _sessionizer()
        sessionizer.add(_msg(0, 7, 0.0, "Next pump on Bittrex soon! Pair: ETH"))
        _, announcement = sessionizer.add(_msg(1, 7, 1.0, "Coin: ABC"))
        assert announcement is not None
        assert announcement.channel_id == 7
        assert announcement.coin_id == SYMBOLS.index("ABC")
        assert announcement.exchange_id == EXCHANGES.index("Bittrex")
        assert announcement.pair == "ETH"
        assert announcement.time == 1.0

    def test_defaults_to_binance_btc(self):
        _, announcement = _sessionizer().add(_msg(0, 7, 5.0, "XYZ"))
        assert announcement is not None
        assert (announcement.exchange_id, announcement.pair) == (0, "BTC")

    def test_new_session_resets_parsed_state(self):
        sessionizer = _sessionizer()
        sessionizer.add(_msg(0, 7, 0.0, "Next pump on Yobit! Pair: ETH"))
        # Far later message opens a fresh session: back to the defaults.
        _, announcement = sessionizer.add(_msg(1, 7, 100.0, "ABC"))
        assert (announcement.exchange_id, announcement.pair) == (0, "BTC")

    def test_non_release_yields_no_announcement(self):
        _, announcement = _sessionizer().add(_msg(0, 7, 0.0, "pump in 3 hours"))
        assert announcement is None

    def test_release_repost_does_not_reannounce(self):
        from repro.serving import ServiceStats

        stats = ServiceStats()
        sessionizer = _sessionizer(stats=stats)
        _, first = sessionizer.add(_msg(0, 7, 0.0, "Coin: ABC"))
        _, repost = sessionizer.add(_msg(1, 7, 0.5, "ABC"))
        assert first is not None
        assert repost is None
        assert (stats.announcements, stats.duplicate_releases) == (1, 1)
        # A fresh session announces again.
        _, later = sessionizer.add(_msg(2, 7, 100.0, "ABC"))
        assert later is not None

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(ValueError):
            _sessionizer(gap_hours=0.0)


class _ConstantDetector:
    """predict_proba stub returning a fixed probability."""

    def __init__(self, probability):
        self.probability = probability
        self.calls = 0

    def predict_proba(self, texts):
        self.calls += 1
        return np.full(len(texts), self.probability)


class TestOnlineDetector:
    def _filter(self):
        return KeywordFilter(SYMBOLS, EXCHANGES)

    def test_keyword_filter_gates_classifier(self):
        model = _ConstantDetector(0.9)
        detector = OnlineDetector(self._filter(), model)
        assert not detector.is_pump(_msg(0, 1, 0.0, "nice weather we have"))
        assert model.calls == 0
        assert detector.is_pump(_msg(1, 1, 0.0, "huge pump incoming"))
        assert model.calls == 1

    def test_threshold(self):
        detector = OnlineDetector(self._filter(), _ConstantDetector(0.15),
                                  threshold=0.2)
        assert not detector.is_pump(_msg(0, 1, 0.0, "huge pump incoming"))

    def test_stats_count_flagged(self):
        stats = ServiceStats()
        detector = OnlineDetector(self._filter(), _ConstantDetector(0.9),
                                  stats=stats)
        detector.is_pump(_msg(0, 1, 0.0, "huge pump incoming"))
        detector.is_pump(_msg(1, 1, 0.0, "no keywords here at all"))
        assert stats.pump_messages == 1

    def test_matches_offline_detection(self, tiny_collection):
        """Per-message online classification equals the offline batch run."""
        detection = tiny_collection.detection
        detector = OnlineDetector.from_detection(detection)
        detected_ids = {m.message_id for m in detection.detected}
        explored = detection.n_total
        assert explored > 0
        # A slice is enough: each message's probability is independent.
        sample = detection.detected[:40]
        for message in sample:
            assert detector.is_pump(message), message.text
        assert all(m.message_id in detected_ids for m in sample)

    def test_from_detection_requires_artefacts(self, tiny_collection):
        import dataclasses

        stripped = dataclasses.replace(
            tiny_collection.detection, detectors={}, keyword_filter=None
        )
        with pytest.raises(ValueError, match="artefacts"):
            OnlineDetector.from_detection(stripped)
