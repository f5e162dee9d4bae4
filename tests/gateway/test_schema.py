"""Wire-schema codecs and the strict decode layer (no HTTP involved)."""

import json

import pytest

from repro.core.predictor import Ranking
from repro.gateway.schema import (
    ERROR_CODES,
    SCHEMA_VERSION,
    GatewayFault,
    ObserveRequestV1,
    RankBatchRequestV1,
    RankRequestV1,
    ReloadRequestV1,
    check_schema_version,
    decode_json_body,
    error_envelope,
)
from repro.serving import Alert, Announcement


def wire(payload: dict) -> dict:
    """Round-trip through actual JSON, like the HTTP layer does."""
    return json.loads(json.dumps(payload))


@pytest.fixture
def announcement():
    return Announcement(channel_id=42, coin_id=7, exchange_id=1,
                        pair="ETH", time=2410.372918471)


@pytest.fixture
def alert(announcement):
    ranking = Ranking(
        channel_id=42, exchange_id=1, pump_time=2410.372918471,
        coin_ids=[7, 9], symbols=["AAA", "BBB"],
        probabilities=[0.9123456789012345, 0.1000000000000001],
    )
    return Alert(announcement=announcement, ranking=ranking,
                 latency_ms=3.25)


class TestCodecs:
    def test_announcement_round_trip(self, announcement):
        decoded = Announcement.from_payload(wire(announcement.to_payload()))
        assert decoded == announcement

    def test_announcement_defaults(self):
        decoded = Announcement.from_payload(
            {"channel_id": 3, "time": 100.5}
        )
        assert decoded.coin_id == -1
        assert decoded.exchange_id == 0
        assert decoded.pair == "BTC"

    def test_alert_round_trip_is_bit_exact(self, alert):
        decoded = Alert.from_payload(wire(alert.to_payload()))
        assert decoded.announcement == alert.announcement
        assert decoded.latency_ms == alert.latency_ms
        # Bit-for-bit: == on floats, not approx.
        assert decoded.ranking.scores == alert.ranking.scores
        assert decoded.announced_rank == alert.announced_rank

    def test_announced_rank_is_recomputed_not_trusted(self, alert):
        payload = wire(alert.to_payload())
        payload["announced_rank"] = 999
        assert Alert.from_payload(payload).announced_rank == 1

    def test_ranking_round_trip(self, alert):
        decoded = Ranking.from_payload(wire(alert.ranking.to_payload()))
        assert decoded == alert.ranking


class TestStrictDecode:
    def test_bad_json_body(self):
        with pytest.raises(GatewayFault) as exc:
            decode_json_body(b"{nope")
        assert exc.value.code == "bad_json"
        assert exc.value.status == 400

    def test_non_object_body(self):
        with pytest.raises(GatewayFault) as exc:
            decode_json_body(b"[1, 2]")
        assert exc.value.code == "bad_json"

    def test_missing_schema_version(self):
        with pytest.raises(GatewayFault) as exc:
            check_schema_version({})
        assert exc.value.code == "bad_request"

    def test_unsupported_schema_version(self):
        with pytest.raises(GatewayFault) as exc:
            check_schema_version({"schema_version": SCHEMA_VERSION + 1})
        assert exc.value.code == "unsupported_schema_version"
        assert str(SCHEMA_VERSION) in exc.value.message

    def test_rank_missing_announcement(self):
        with pytest.raises(GatewayFault) as exc:
            RankRequestV1.decode({"schema_version": SCHEMA_VERSION})
        assert exc.value.code == "bad_request"
        assert "announcement" in exc.value.message

    def test_rank_missing_channel(self):
        with pytest.raises(GatewayFault) as exc:
            RankRequestV1.decode({
                "schema_version": SCHEMA_VERSION,
                "announcement": {"time": 10.0},
            })
        assert exc.value.code == "bad_request"
        assert "channel_id" in exc.value.message

    def test_rank_rejects_bool_channel(self):
        # JSON true silently becoming channel 1 is exactly what the strict
        # layer exists to stop.
        with pytest.raises(GatewayFault) as exc:
            RankRequestV1.decode({
                "schema_version": SCHEMA_VERSION,
                "announcement": {"channel_id": True, "time": 10.0},
            })
        assert exc.value.code == "bad_request"

    def test_rank_rejects_nonfinite_time(self):
        with pytest.raises(GatewayFault) as exc:
            RankRequestV1.decode({
                "schema_version": SCHEMA_VERSION,
                "announcement": {"channel_id": 3, "time": float("inf")},
            })
        assert exc.value.code == "bad_request"
        assert "finite" in exc.value.message

    def test_nonfinite_tokens_rejected_at_json_layer(self):
        with pytest.raises(GatewayFault) as exc:
            decode_json_body(b'{"time": NaN}')
        assert exc.value.code == "bad_json"

    def test_rank_rejects_fractional_channel(self):
        with pytest.raises(GatewayFault):
            RankRequestV1.decode({
                "schema_version": SCHEMA_VERSION,
                "announcement": {"channel_id": 3.5, "time": 10.0},
            })

    def test_batch_error_names_the_index(self):
        with pytest.raises(GatewayFault) as exc:
            RankBatchRequestV1.decode({
                "schema_version": SCHEMA_VERSION,
                "announcements": [
                    {"channel_id": 1, "time": 10.0},
                    {"channel_id": "oops", "time": 10.0},
                ],
            })
        assert exc.value.code == "bad_request"
        assert "announcements[1]" in exc.value.message

    def test_observe_requires_coin(self):
        with pytest.raises(GatewayFault) as exc:
            ObserveRequestV1.decode({
                "schema_version": SCHEMA_VERSION,
                "announcement": {"channel_id": 1, "time": 10.0},
            })
        assert exc.value.code == "bad_request"
        assert "coin_id" in exc.value.message

    def test_reload_requires_nonempty_ref(self):
        with pytest.raises(GatewayFault):
            ReloadRequestV1.decode({"schema_version": SCHEMA_VERSION,
                                    "ref": ""})
        with pytest.raises(GatewayFault):
            ReloadRequestV1.decode({"schema_version": SCHEMA_VERSION,
                                    "ref": 7})


class TestErrorContract:
    def test_stable_code_set(self):
        # The machine-readable contract: clients switch on these strings.
        assert ERROR_CODES == {
            "bad_json", "bad_request", "unsupported_schema_version",
            "unknown_channel", "no_candidates", "no_market_data",
            "batch_too_large",
            "payload_too_large", "unknown_model", "bad_artifact",
            "no_registry", "not_found", "method_not_allowed", "internal",
            "overloaded", "deadline_exceeded",
        }

    def test_envelope_shape(self):
        fault = GatewayFault("bad_json", 400, "nope")
        envelope = wire(error_envelope(fault))
        assert envelope == {
            "schema_version": SCHEMA_VERSION,
            "error": {"code": "bad_json", "message": "nope"},
        }

    def test_unregistered_code_is_a_bug(self):
        with pytest.raises(AssertionError):
            GatewayFault("made_up_code", 400, "x")

    def test_request_payloads_carry_schema_version(self, announcement):
        assert RankRequestV1(announcement).to_payload()[
            "schema_version"] == SCHEMA_VERSION
        assert RankBatchRequestV1((announcement,)).to_payload()[
            "schema_version"] == SCHEMA_VERSION
        assert ObserveRequestV1(announcement).to_payload()[
            "schema_version"] == SCHEMA_VERSION
        assert ReloadRequestV1("m@v0001").to_payload()[
            "schema_version"] == SCHEMA_VERSION
