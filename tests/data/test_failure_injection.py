"""Failure-injection tests: the pipeline on hostile or degenerate inputs."""

import numpy as np
import pytest

from repro.data import (
    PumpMessageDetector,
    extract_sample,
    extract_samples,
    run_detection_pipeline,
    sessionize,
)
from repro.data.sessions import Session
from repro.types import Message
from repro.text import KeywordFilter, SentimentAnalyzer, tokenize


def _msg(mid, text, kind="generic", channel=1, time=0.0):
    return Message(mid, channel, time, text, kind)


class TestHostileText:
    HOSTILE = [
        "",                                  # empty
        " " * 500,                           # whitespace only
        "💣" * 200,                          # emoji flood
        "a" * 10_000,                        # very long token
        "PUMP " * 2_000,                     # keyword flood
        "\x00\x01\x02 binary junk",          # control characters
        "Iñtërnâtiônàlizætiøn ünïcödé",      # diacritics
        "<script>alert('x')</script>",       # markup
        "t.me/joinchat/999999999999999999999999",  # absurd invite id
    ]

    def test_tokenizer_survives_everything(self):
        for text in self.HOSTILE:
            tokens = tokenize(text)
            assert isinstance(tokens, list)

    def test_sentiment_survives_everything(self):
        analyzer = SentimentAnalyzer()
        for text in self.HOSTILE:
            scores = analyzer.score(text)
            assert -1.0 <= scores.compound <= 1.0

    def test_keyword_filter_survives_everything(self):
        keyword_filter = KeywordFilter(["BTC"], ["binance"])
        for text in self.HOSTILE:
            assert keyword_filter.matches(text) in (True, False)

    def test_detector_handles_unseen_garbage(self):
        detector = PumpMessageDetector(model="lr").fit(
            ["pump now target soon", "nice weather today"] * 40,
            [1.0, 0.0] * 40,
        )
        probs = detector.predict_proba(self.HOSTILE)
        assert np.isfinite(probs).all()


class TestDegenerateSessions:
    def test_session_of_only_unresolvable_releases(self):
        session = Session(channel_id=1, messages=[
            _msg(0, "[OCR-proof image]", kind="release"),
        ])
        assert extract_sample(session, {"BTC": 0}, {"Binance": 0}) is None

    def test_conflicting_releases_take_last(self):
        session = Session(channel_id=1, messages=[
            _msg(0, "AAA", time=0.0),
            _msg(1, "BBB", time=1.0),
        ])
        sample = extract_sample(session, {"AAA": 5, "BBB": 9}, {})
        assert sample.coin_id == 9
        assert sample.time == 1.0

    def test_extract_samples_empty_input(self):
        assert extract_samples([], ["BTC"], ["Binance"]) == []

    def test_sessionize_single_message(self):
        sessions = sessionize([_msg(0, "pump", time=5.0)])
        assert len(sessions) == 1


class TestPipelineDegenerateInputs:
    def test_detection_pipeline_needs_enough_messages(self):
        messages = [_msg(i, "pump soon", time=float(i)) for i in range(3)]
        with pytest.raises(ValueError):
            run_detection_pipeline(messages, ["BTC"], ["Binance"], n_label=10)

    def test_detection_pipeline_on_uniform_corpus(self):
        # All messages identical and pump-labelled: detector should not crash
        # even though one class is missing downstream.
        messages = [
            _msg(i, "pump now target soon hold", kind="countdown", time=float(i))
            for i in range(80)
        ]
        with pytest.raises(ValueError):
            # roc_auc requires both classes; a uniform corpus is rejected
            # loudly rather than silently producing garbage.
            run_detection_pipeline(messages, ["BTC"], ["Binance"], n_label=60)
