"""Gateway error paths: every refusal is a stable-coded 4xx envelope.

The contract under test (ISSUE 5): malformed JSON, an unknown schema
version, an unknown channel or an oversized batch must map to the right
HTTP status and a machine-readable ``error.code`` — never a stack trace,
never a wrong score.
"""

import http.client
import json

import pytest

from repro.gateway import GatewayApp, GatewayRequestError
from repro.gateway.schema import SCHEMA_VERSION
from repro.serving import Announcement, PredictionService
from repro.store import SQLiteEventStore
from tests.gateway.conftest import make_announcements, service_from


def raw_request(server, method: str, path: str, body: bytes | None = None,
                headers: dict | None = None):
    """Speak raw HTTP so malformed bodies actually reach the wire."""
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        payload = response.read()
        return response.status, json.loads(payload.decode("utf-8"))
    finally:
        connection.close()


@pytest.fixture(scope="module")
def served(gw_world, gw_collection, gw_registry):
    from repro.gateway import serve_in_thread

    service = service_from(gw_registry, "dnn", gw_world, gw_collection)
    app = GatewayApp(service, registry=gw_registry, max_batch=4)
    server, _thread = serve_in_thread(app)
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture(scope="module")
def served_client(served):
    from repro.gateway import GatewayClient

    return GatewayClient(served.url)


def assert_envelope(status, body, *, expect_status, expect_code):
    assert status == expect_status
    assert body["schema_version"] == SCHEMA_VERSION
    assert body["error"]["code"] == expect_code
    assert isinstance(body["error"]["message"], str)
    # Envelope, not a traceback dump.
    assert "Traceback" not in json.dumps(body)


class TestBadPayloads:
    def test_malformed_json_body(self, served):
        status, body = raw_request(served, "POST", "/v1/rank", b"{oops")
        assert_envelope(status, body, expect_status=400,
                        expect_code="bad_json")

    def test_empty_body(self, served):
        status, body = raw_request(served, "POST", "/v1/rank", b"")
        assert_envelope(status, body, expect_status=400,
                        expect_code="bad_json")

    def test_unknown_schema_version(self, served):
        payload = json.dumps({
            "schema_version": 999,
            "announcement": {"channel_id": 1, "time": 2000.0},
        }).encode()
        status, body = raw_request(served, "POST", "/v1/rank", payload)
        assert_envelope(status, body, expect_status=400,
                        expect_code="unsupported_schema_version")

    def test_missing_field(self, served):
        payload = json.dumps({
            "schema_version": SCHEMA_VERSION,
            "announcement": {"time": 2000.0},
        }).encode()
        status, body = raw_request(served, "POST", "/v1/rank", payload)
        assert_envelope(status, body, expect_status=400,
                        expect_code="bad_request")
        assert "channel_id" in body["error"]["message"]


class TestDomainRefusals:
    def test_unknown_channel(self, served):
        payload = json.dumps({
            "schema_version": SCHEMA_VERSION,
            "announcement": {"channel_id": -424242, "time": 2000.0},
        }).encode()
        status, body = raw_request(served, "POST", "/v1/rank", payload)
        assert_envelope(status, body, expect_status=422,
                        expect_code="unknown_channel")

    def test_unknown_channel_via_client(self, served_client):
        announcement = Announcement(channel_id=-424242, coin_id=-1,
                                    exchange_id=0, pair="BTC", time=2000.0)
        with pytest.raises(GatewayRequestError) as exc:
            served_client.rank(announcement)
        assert exc.value.code == "unknown_channel"
        assert exc.value.status == 422

    def test_oversized_batch(self, served_client, test_positives):
        # The server was started with max_batch=4.
        announcements = make_announcements(test_positives, 1) * 5
        with pytest.raises(GatewayRequestError) as exc:
            served_client.rank_batch(announcements)
        assert exc.value.code == "batch_too_large"
        assert exc.value.status == 413

    def test_nothing_listed_yet_is_no_candidates(self, served_client,
                                                 test_positives):
        base = make_announcements(test_positives, 1, coin_known=False)[0]
        # Every listing hour is >= 0: before hour 0 nothing trades.
        early = Announcement(channel_id=base.channel_id, coin_id=-1,
                             exchange_id=0, pair="BTC", time=-1.0)
        with pytest.raises(GatewayRequestError) as exc:
            served_client.rank(early)
        assert exc.value.code == "no_candidates"
        assert exc.value.status == 422

    def test_rank_batch_is_all_or_nothing(self, gw_world, gw_collection,
                                          gw_registry, gateway,
                                          test_positives, tmp_path):
        store = SQLiteEventStore(tmp_path / "events.db")
        service = PredictionService.from_artifact(
            gw_registry.resolve("dnn"), gw_world, gw_collection.dataset,
            store=store,
        )
        _server, client = gateway(GatewayApp(service))
        good = make_announcements(test_positives, 1)[0]
        stranger = Announcement(channel_id=-424242, coin_id=-1,
                                exchange_id=0, pair="BTC", time=good.time)
        alerts, rows = service.stats.alerts, store.counts()
        history = service.history(good.channel_id)
        try:
            with pytest.raises(GatewayRequestError) as exc:
                client.rank_batch([good, stranger])
            assert exc.value.code == "unknown_channel"
            assert exc.value.status == 422
            # The good entry was neither scored, logged nor folded.
            assert service.stats.alerts == alerts
            assert store.counts() == rows
            assert service.history(good.channel_id) == history
        finally:
            store.close()

    def test_reload_unknown_model(self, served_client):
        with pytest.raises(GatewayRequestError) as exc:
            served_client.reload("no-such-model")
        assert exc.value.code == "unknown_model"
        assert exc.value.status == 404

    def test_reload_without_registry(self, gw_world, gw_collection,
                                     gw_registry, gateway):
        service = service_from(gw_registry, "dnn", gw_world, gw_collection)
        _server, client = gateway(GatewayApp(service, registry=None))
        with pytest.raises(GatewayRequestError) as exc:
            client.reload("dnn")
        assert exc.value.code == "no_registry"
        assert exc.value.status == 409


class TestHistoryPoisoning:
    """Out-of-universe coin ids must never enter a channel's history —
    they would crash feature encoding on every later request."""

    def test_observe_refuses_out_of_universe_coin(self, served_client,
                                                  test_positives):
        base = make_announcements(test_positives, 1)[0]
        poisoned = Announcement(channel_id=base.channel_id, coin_id=10 ** 9,
                                exchange_id=0, pair="BTC", time=base.time)
        with pytest.raises(GatewayRequestError) as exc:
            served_client.observe(poisoned)
        assert exc.value.code == "bad_request"
        assert "coin universe" in exc.value.message
        # And the channel still ranks fine afterwards.
        probe = Announcement(channel_id=base.channel_id, coin_id=-1,
                             exchange_id=0, pair="BTC", time=base.time)
        assert served_client.rank(probe).ranking.scores

    def test_rank_refuses_out_of_universe_coin(self, served_client,
                                               test_positives):
        # rank auto-observes announcements with a known coin, so the same
        # guard must apply there.
        base = make_announcements(test_positives, 1)[0]
        poisoned = Announcement(channel_id=base.channel_id, coin_id=10 ** 9,
                                exchange_id=0, pair="BTC", time=base.time)
        with pytest.raises(GatewayRequestError) as exc:
            served_client.rank(poisoned)
        assert exc.value.code == "bad_request"


class TestExchangeIds:
    """Exchange ids outside the data source are refused up front: not a
    500 from the listing table, nor another exchange's listings through
    negative indexing."""

    @pytest.mark.parametrize("exchange_id", [999, -1])
    @pytest.mark.parametrize("endpoint", ["rank", "rank_batch", "observe"])
    def test_out_of_range_exchange_is_bad_request(
            self, served_client, test_positives, endpoint, exchange_id):
        base = make_announcements(test_positives, 1)[0]
        call = {
            "rank": served_client.rank,
            "rank_batch": lambda a: served_client.rank_batch([a]),
            "observe": served_client.observe,
        }[endpoint]
        announcement = Announcement(
            channel_id=base.channel_id,
            coin_id=base.coin_id if endpoint == "observe" else -1,
            exchange_id=exchange_id, pair="BTC", time=base.time,
        )
        with pytest.raises(GatewayRequestError) as exc:
            call(announcement)
        assert exc.value.code == "bad_request"
        assert exc.value.status == 400
        assert "exchange_id" in exc.value.message


class TestWireRobustness:
    def test_nonfinite_json_tokens_rejected(self, served):
        payload = ('{"schema_version": 1, "announcement": '
                   '{"channel_id": 1, "time": NaN}}').encode()
        status, body = raw_request(served, "POST", "/v1/rank", payload)
        assert_envelope(status, body, expect_status=400,
                        expect_code="bad_json")
        payload = ('{"schema_version": 1, "announcement": '
                   '{"channel_id": 1, "time": Infinity}}').encode()
        status, body = raw_request(served, "POST", "/v1/rank", payload)
        assert_envelope(status, body, expect_status=400,
                        expect_code="bad_json")

    def test_negative_content_length(self, served):
        headers = {"Content-Length": "-5"}
        status, body = raw_request(served, "POST", "/v1/rank",
                                   headers=headers)
        assert_envelope(status, body, expect_status=400,
                        expect_code="bad_request")

    def test_keep_alive_survives_404_with_unread_body(self, served):
        # A 404'd POST must drain its body, or these bytes would be parsed
        # as the next request line on the persistent connection.
        host, port = served.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            body = json.dumps({"schema_version": 1, "junk": "x" * 512})
            connection.request("POST", "/v1/nope", body=body.encode())
            response = connection.getresponse()
            assert response.status == 404
            response.read()
            # Same socket, next request: must parse cleanly.
            connection.request("GET", "/v1/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            connection.close()


class TestRouting:
    def test_unknown_route(self, served):
        status, body = raw_request(served, "GET", "/v2/healthz")
        assert_envelope(status, body, expect_status=404,
                        expect_code="not_found")

    def test_method_not_allowed(self, served):
        status, body = raw_request(served, "GET", "/v1/rank")
        assert_envelope(status, body, expect_status=405,
                        expect_code="method_not_allowed")
        status, body = raw_request(served, "POST", "/v1/healthz", b"{}")
        assert_envelope(status, body, expect_status=405,
                        expect_code="method_not_allowed")

    def test_other_verbs_get_the_envelope_too(self, served):
        # Not the stdlib's HTML 501 page — the contract holds for every verb.
        status, body = raw_request(served, "PUT", "/v1/rank", b"{}")
        assert_envelope(status, body, expect_status=405,
                        expect_code="method_not_allowed")
        status, body = raw_request(served, "DELETE", "/v1/nowhere")
        assert_envelope(status, body, expect_status=404,
                        expect_code="not_found")

    def test_trailing_slash_is_tolerated(self, served):
        status, body = raw_request(served, "GET", "/v1/healthz/")
        assert status == 200
        assert body["status"] == "ok"

    def test_oversized_declared_body(self, served):
        headers = {"Content-Length": str(64 * 1024 * 1024)}
        status, body = raw_request(served, "POST", "/v1/rank", b"",
                                   headers=headers)
        assert_envelope(status, body, expect_status=413,
                        expect_code="payload_too_large")

    def test_errors_are_counted(self, served):
        raw_request(served, "GET", "/v2/nothing")
        status, body = raw_request(served, "GET", "/v1/stats")
        assert status == 200
        assert body["gateway"]["requests"]["errors"] >= 1
