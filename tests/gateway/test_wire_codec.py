"""The rank responses' hand-written encoder and the columnar decoder.

``RankResponseV1.encode`` and ``RankBatchResponseV1.encode`` write each
alert's JSON straight from its ranking's columns.  The oracle is the
stdlib: the bytes must equal ``json.dumps(to_payload(), separators=(",",
":"))`` for any ranking, and decoding them must give the ranking back.
The decoder walks ``scores`` once into the columns; whatever a score
entry holds, it answers a typed 400 naming the field, never a
``TypeError``, ``KeyError`` or ``IndexError``.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predictor import Ranking
from repro.gateway.schema import (
    GatewayFault,
    RankBatchResponseV1,
    RankResponseV1,
)
from repro.serving import Alert, Announcement
from repro.serving.online import MAX_ABS_TIME

SMALLEST_SUBNORMAL = 5e-324

#: Symbols that need escaping: quotes, backslashes, control characters,
#: non-ASCII (including astral-plane and lone-surrogate code points).
symbol_texts = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\ud800\U0001f600'),
        st.characters(),
    ),
    max_size=6,
)
probabilities = st.one_of(
    st.sampled_from([0.0, 1.0, SMALLEST_SUBNORMAL, 2.2250738585072014e-308,
                     1.0 - 2.0 ** -53, 0.1]),
    st.floats(min_value=0.0, max_value=1.0),
)
finite = st.floats(allow_nan=False, allow_infinity=False)
#: Announcement times a decoder accepts (``|time| < 2**53``).
times = st.floats(min_value=-MAX_ABS_TIME, max_value=MAX_ABS_TIME,
                  exclude_min=True, exclude_max=True)


@st.composite
def alerts(draw) -> Alert:
    """An alert over 0, 1, a few or ~450 scores.

    Symbols and probabilities come from small drawn pools, so a 450-coin
    ranking costs Hypothesis a handful of draws.
    """
    n_scores = draw(st.sampled_from([0, 1, 2, 7, 450]))
    symbol_pool = draw(st.lists(symbol_texts, min_size=1, max_size=5))
    probability_pool = draw(st.lists(probabilities, min_size=1,
                                     max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    coin_ids = rng.integers(0, 2 ** 62, size=n_scores)
    channel_id = draw(st.integers(0, 2 ** 40))
    ranking = Ranking(
        channel_id=channel_id,
        exchange_id=draw(st.integers(0, 9)),
        pump_time=draw(times),
        coin_ids=coin_ids,
        probabilities=rng.choice(probability_pool, size=n_scores),
        symbols=[symbol_pool[i] for i in
                 rng.integers(0, len(symbol_pool), size=n_scores)],
    )
    announcement = Announcement(
        channel_id=channel_id,
        coin_id=draw(st.one_of(st.just(-1), st.sampled_from(
            coin_ids.tolist() or [-1]))),
        exchange_id=ranking.exchange_id,
        pair=draw(symbol_texts),
        time=ranking.pump_time,
    )
    return Alert(announcement=announcement, ranking=ranking,
                 latency_ms=draw(finite))


def stdlib(response) -> bytes:
    return json.dumps(response.to_payload(),
                      separators=(",", ":")).encode("utf-8")


def assert_same_alert(decoded: Alert, served: Alert) -> None:
    assert decoded.announcement == served.announcement
    assert decoded.latency_ms == served.latency_ms
    assert decoded.ranking == served.ranking
    assert decoded.announced_rank == served.announced_rank


class TestEncoder:
    @settings(max_examples=60, deadline=None)
    @given(alert=alerts())
    def test_rank_response_bytes_are_the_stdlib_bytes(self, alert):
        response = RankResponseV1(alert)
        body = response.encode()
        assert body == stdlib(response)
        decoded = RankResponseV1.decode(json.loads(body)).alert
        assert_same_alert(decoded, alert)

    @settings(max_examples=30, deadline=None)
    @given(batch=st.lists(alerts(), max_size=3))
    def test_batch_response_bytes_are_the_stdlib_bytes(self, batch):
        response = RankBatchResponseV1(tuple(batch))
        body = response.encode()
        assert body == stdlib(response)
        decoded = RankBatchResponseV1.decode(json.loads(body)).alerts
        assert len(decoded) == len(batch)
        for got, served in zip(decoded, batch):
            assert_same_alert(got, served)

    def test_alert_is_encoded_once(self, monkeypatch):
        alert = Alert(
            announcement=Announcement(channel_id=1, coin_id=5,
                                      exchange_id=0, pair="BTC", time=2.0),
            ranking=Ranking(channel_id=1, exchange_id=0, pump_time=2.0,
                            coin_ids=[5, 6], symbols=["A", "B"],
                            probabilities=[0.7, 0.2]),
            latency_ms=0.5,
        )
        calls = []
        encode = Ranking.to_json
        monkeypatch.setattr(Ranking, "to_json",
                            lambda self: calls.append(1) or encode(self))
        first = RankResponseV1(alert).encode()
        assert RankBatchResponseV1((alert,)).encode().startswith(
            b'{"schema_version":1,"alerts":[{')
        assert RankResponseV1(alert).encode() == first
        assert len(calls) == 1

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf])
    def test_non_finite_probability_is_refused(self, bad):
        # Refused where the ranking is built, so no response body can
        # carry a NaN/Infinity token.
        with pytest.raises(ValueError, match="finite"):
            Ranking(channel_id=1, exchange_id=0, pump_time=2.0,
                    coin_ids=[1, 2, 3], symbols=["A", "B", "C"],
                    probabilities=[0.5, bad, 0.25])


# -- the decoder ----------------------------------------------------------------

FIELDS = ("coin_id", "symbol", "probability")

#: Values no field accepts (a string is a valid symbol, so it is tried on
#: the numeric fields only).
WRONG = [True, False, None, [], [1], {}, math.nan, math.inf, -math.inf]


def _served() -> Alert:
    return Alert(
        announcement=Announcement(channel_id=3, coin_id=12, exchange_id=0,
                                  pair="BTC", time=100.5),
        ranking=Ranking(channel_id=3, exchange_id=0, pump_time=100.5,
                        coin_ids=[12, 40, 7], symbols=["AAA", "BB", "C"],
                        probabilities=[0.75, 0.5, 0.125]),
        latency_ms=1.5,
    )


def _rank_payload() -> dict:
    return json.loads(RankResponseV1(_served()).encode())


def _batch_payload() -> dict:
    return json.loads(RankBatchResponseV1((_served(), _served())).encode())


def _scores(payload: dict) -> list:
    alert = payload["alert"] if "alert" in payload else payload["alerts"][-1]
    return alert["ranking"]["scores"]


DECODERS = {"rank": (RankResponseV1.decode, _rank_payload),
            "batch": (RankBatchResponseV1.decode, _batch_payload)}


def _refused(decoder, payload) -> GatewayFault:
    with pytest.raises(GatewayFault) as refusal:
        decoder(payload)
    assert refusal.value.status == 400
    assert refusal.value.code == "bad_request"
    return refusal.value


class TestDecoder:
    @pytest.mark.parametrize("kind", sorted(DECODERS))
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_any_broken_score_entry_is_a_typed_400(self, kind, data):
        decoder, valid = DECODERS[kind]
        payload = valid()
        scores = _scores(payload)
        index = data.draw(st.integers(0, len(scores) - 1))
        mutation = data.draw(st.sampled_from(["drop", "wrong", "replace"]))
        if mutation == "replace":
            scores[index] = data.draw(st.sampled_from(
                [None, 1, 2.5, "entry", [], [1, 2], True]))
            fault = _refused(decoder, payload)
            assert "score entry must be an object" in fault.message
            return
        field = data.draw(st.sampled_from(FIELDS))
        if mutation == "drop":
            del scores[index][field]
        else:
            wrong = WRONG if field == "symbol" else WRONG + ["0.5"]
            scores[index][field] = data.draw(st.sampled_from(wrong))
        fault = _refused(decoder, payload)
        assert repr(field) in fault.message

    @pytest.mark.parametrize("kind", sorted(DECODERS))
    def test_what_the_strict_readers_accepted_still_decodes(self, kind):
        decoder, valid = DECODERS[kind]
        payload = valid()
        scores = _scores(payload)
        scores[0]["coin_id"] = 12.0
        scores[1]["probability"] = 1
        scores[2]["probability"] = 0
        decoded = decoder(payload)
        ranking = (decoded.alert if kind == "rank"
                   else decoded.alerts[-1]).ranking
        assert ranking.coin_ids.tolist() == [12, 40, 7]
        assert ranking.probabilities.tolist() == [0.75, 1.0, 0.0]
        assert [type(s.coin_id) for s in ranking.scores] == [int] * 3
        assert [type(s.probability) for s in ranking.scores] == [float] * 3

    def test_fractional_coin_id_is_refused(self):
        payload = _rank_payload()
        _scores(payload)[1]["coin_id"] = 40.5
        assert "'coin_id'" in _refused(RankResponseV1.decode,
                                       payload).message

    def test_coin_id_beyond_64_bits_is_refused(self):
        payload = _rank_payload()
        _scores(payload)[2]["coin_id"] = 2 ** 70
        assert "'coin_id'" in _refused(RankResponseV1.decode,
                                       payload).message

    def test_non_list_scores_is_refused(self):
        payload = _rank_payload()
        payload["alert"]["ranking"]["scores"] = {"0": {}}
        assert "'scores'" in _refused(RankResponseV1.decode,
                                      payload).message
