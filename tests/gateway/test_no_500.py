"""No request body reaches a 500.

Property: whatever bytes arrive, the decode chain (``decode_json_body``,
then each ``*RequestV1.decode``) and the scoring endpoints
(``GatewayApp.rank`` / ``rank_batch``) either return a typed result or
raise a :class:`GatewayFault` with a 4xx status and a registered code.
Any other exception — or a 5xx fault — is a bug: the caller gets an
opaque 500 for a request that was simply wrong.  A returned response
must also encode to strict JSON: no ``NaN``/``Infinity`` token in a 200.

Two input families: arbitrary bytes, and near-valid JSON — a well-formed
rank payload with fields swapped for huge or negative ints, non-finite
floats, strings, nulls or lists, and out-of-range exchange/channel ids.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway import GatewayApp
from repro.gateway.schema import (
    ERROR_CODES,
    GatewayFault,
    ObserveRequestV1,
    RankBatchRequestV1,
    RankRequestV1,
    ReloadRequestV1,
    decode_json_body,
)
from tests.gateway.conftest import service_from

REQUEST_TYPES = (RankRequestV1, RankBatchRequestV1, ObserveRequestV1,
                 ReloadRequestV1)


@pytest.fixture(scope="module")
def app(tiny_registry, tiny_source, tiny_collection):
    """A private app: ranking a known coin folds it into the history."""
    return GatewayApp(
        service_from(tiny_registry, "dnn", tiny_source, tiny_collection),
        max_batch=4,
    )


@pytest.fixture(scope="module")
def valid_announcement(tiny_collection) -> dict:
    example = next(e for e in tiny_collection.dataset.examples
                   if e.split == "test" and e.label == 1)
    return {"channel_id": example.channel_id, "time": example.time,
            "exchange_id": 0, "coin_id": -1, "pair": "BTC"}


def _refuse_constant(name: str):
    raise AssertionError(f"response body holds the non-JSON token {name}")


def typed_or_4xx(call) -> None:
    """Run ``call``; only a result or a registered 4xx fault may come out,
    and a returned response parses as strict JSON."""
    try:
        result = call()
    except GatewayFault as fault:
        assert 400 <= fault.status < 500, (fault.status, fault.message)
        assert fault.code in ERROR_CODES
        return
    if hasattr(result, "encode"):
        json.loads(result.encode(), parse_constant=_refuse_constant)


def through_gateway(app, body: bytes) -> None:
    """Feed one body to ``decode_json_body``, then :func:`through_decoders`."""
    try:
        payload = decode_json_body(body)
    except GatewayFault as fault:
        assert 400 <= fault.status < 500 and fault.code in ERROR_CODES
        return
    through_decoders(app, payload)


def through_decoders(app, payload) -> None:
    """Feed one payload to every request decoder, then the scoring
    endpoints."""
    for request_type in REQUEST_TYPES:
        typed_or_4xx(lambda: request_type.decode(payload))
    try:
        request = RankRequestV1.decode(payload)
    except GatewayFault:
        pass
    else:
        typed_or_4xx(lambda: app.rank(request))
    try:
        batch = RankBatchRequestV1.decode(payload)
    except GatewayFault:
        pass
    else:
        typed_or_4xx(lambda: app.rank_batch(batch))


#: Numbers at the edges of int64, float64 and beyond.
_EXTREMES = st.sampled_from([2 ** 63, 2 ** 64, -(2 ** 63) - 1, 10 ** 400,
                             -(10 ** 400), 1e308, -1e308, 5e-324, -0.0])

_WILD_VALUES = st.one_of(
    st.integers(min_value=-(2 ** 80), max_value=2 ** 80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.none(),
    st.lists(st.integers(), max_size=3),
    st.booleans(),
)

_FIELDS = ("channel_id", "time", "exchange_id", "coin_id", "pair")


def _near_valid(announcement: dict, data) -> dict:
    """``announcement`` with some fields swapped for wild values."""
    mutated = dict(announcement)
    for name in data.draw(st.sets(st.sampled_from(_FIELDS), min_size=1)):
        action = data.draw(st.sampled_from(("drop", "wild", "extreme")))
        if action == "drop":
            mutated.pop(name)
        else:
            mutated[name] = data.draw(
                _WILD_VALUES if action == "wild" else _EXTREMES)
    if data.draw(st.booleans()):
        # Out-of-range ids on an otherwise sane announcement.
        mutated[data.draw(st.sampled_from(("exchange_id", "channel_id")))] \
            = data.draw(st.sampled_from([-1, 7, 99, 10 ** 6, 2 ** 63]))
    return mutated


@settings(max_examples=150, deadline=None)
@given(body=st.binary(max_size=256))
def test_arbitrary_bytes_never_500(app, body):
    through_gateway(app, body)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_near_valid_payloads_never_500(app, valid_announcement, data):
    announcements = [_near_valid(valid_announcement, data)
                     for _ in range(data.draw(st.integers(1, 3)))]
    payload = {"schema_version": data.draw(st.sampled_from(
                   [1, 1, 1, 2, -1, 2 ** 64, 1.0, "1", None])),
               "announcement": announcements[0],
               "announcements": announcements,
               "event_id": data.draw(st.one_of(st.none(), st.text(max_size=4),
                                               st.integers())),
               "ref": data.draw(st.one_of(st.text(max_size=6), st.none()))}
    # json.dumps writes NaN/Infinity tokens and arbitrarily large ints,
    # both of which a hostile client can send; the decoders also see the
    # non-finite floats the JSON parser refuses.
    through_gateway(app, json.dumps(payload).encode())
    through_decoders(app, payload)


@pytest.mark.parametrize("time", [1e308, -1e308, 1e18, 2.0 ** 53])
def test_times_past_whole_hours_are_refused(app, valid_announcement, time):
    """Past 2**53 a float64 cannot tell whole hours apart.  Rank,
    rank/batch and observe refuse such a time with a 400; the simulator
    used to answer 1e308 with a 200 of NaN probabilities."""
    announcement = dict(valid_announcement, time=time)
    payload = {"schema_version": 1, "announcement": announcement,
               "announcements": [announcement]}
    through_decoders(app, payload)
    observe = dict(payload, announcement=dict(announcement, coin_id=0))
    for request_type, body in ((RankRequestV1, payload),
                               (RankBatchRequestV1, payload),
                               (ObserveRequestV1, observe)):
        with pytest.raises(GatewayFault) as info:
            request_type.decode(body)
        assert info.value.code == "bad_request"
        assert "2**53" in info.value.message

