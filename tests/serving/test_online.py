"""Incremental detection and sessionization."""

import sys

import numpy as np
import pytest

from repro.data import DETECTION_THRESHOLD, SESSION_GAP_HOURS, sessionize
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
    """One-message scoring stub returning a fixed probability."""

    def __init__(self, probability):
        self.probability = probability
        self.calls = 0

    def predict_proba_one(self, text):
        self.calls += 1
        return self.probability


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
        """The online cut-off is the offline pipeline's constant."""
        below = OnlineDetector(self._filter(),
                               _ConstantDetector(np.nextafter(DETECTION_THRESHOLD, 0)))
        at = OnlineDetector(self._filter(), _ConstantDetector(DETECTION_THRESHOLD))
        assert not below.is_pump(_msg(0, 1, 0.0, "huge pump incoming"))
        assert at.is_pump(_msg(0, 1, 0.0, "huge pump incoming"))

    def test_stats_count_flagged(self):
        stats = ServiceStats()
        detector = OnlineDetector(self._filter(), _ConstantDetector(0.9),
                                  stats=stats)
        detector.is_pump(_msg(0, 1, 0.0, "huge pump incoming"))
        detector.is_pump(_msg(1, 1, 0.0, "no keywords here at all"))
        assert stats.pump_messages == 1

    def test_matches_offline_detection(self, tiny_world, tiny_collection):
        """Every message past the keyword filter gets the offline verdict
        online, from a score with the offline batch score's bits."""
        detection = tiny_collection.detection
        detector = OnlineDetector.from_detection(detection)
        explored = set(tiny_collection.exploration.explored_ids)
        filtered = [m for m in tiny_world.messages
                    if m.channel_id in explored
                    and detection.keyword_filter.matches(m.text)]
        assert len(filtered) == detection.n_filtered
        flagged = {m.message_id for m in filtered if detector.is_pump(m)}
        assert flagged == {m.message_id for m in detection.detected}
        rf = detection.detectors["rf"]
        texts = [m.text for m in filtered]
        batch = rf.predict_proba(texts)
        assert [rf.predict_proba_one(text) for text in texts] == batch.tolist()

    def test_one_message_score_needs_no_scipy(self, tiny_collection,
                                              monkeypatch):
        """A serving process without scipy can still detect."""
        detection = tiny_collection.detection
        detector = OnlineDetector.from_detection(detection)
        messages = detection.detected[:20]
        expected = detection.detectors["rf"].predict_proba(
            [m.text for m in messages]).tolist()
        # ``from scipy import sparse`` now raises ImportError.
        monkeypatch.setitem(sys.modules, "scipy", None)
        rf = detection.detectors["rf"]
        assert [rf.predict_proba_one(m.text) for m in messages] == expected
        assert all(detector.is_pump(m) for m in messages)

    def test_from_detection_requires_artefacts(self, tiny_collection):
        import dataclasses

        stripped = dataclasses.replace(
            tiny_collection.detection, detectors={}, keyword_filter=None
        )
        with pytest.raises(ValueError, match="artefacts"):
            OnlineDetector.from_detection(stripped)
