"""Gateway observability over a real HTTP server.

The ISSUE 6 acceptance surface: ``/v1/metrics`` exposes a strictly
parseable Prometheus page covering transport *and* serving series, every
response (including error envelopes) carries the trace/duration headers,
a traced ``/v1/rank`` produces the full span tree gateway → service →
feature cache, 4xx/5xx requests emit structured JSON log lines joined on
``trace_id``, and none of it perturbs the rankings.
"""

from __future__ import annotations

import pytest

from repro.gateway import GatewayApp
from repro.gateway.client import GatewayRequestError
from repro.serving import Announcement
from repro.telemetry import (
    CapturingLogger,
    TelemetryHub,
    parse_text,
    start_trace,
)
from tests.gateway.conftest import make_announcements, service_from


@pytest.fixture
def observed(tiny_source, tiny_collection, tiny_registry, gateway):
    """A gateway with a capturing logger and slow_ms=0 (trace everything)."""
    service = service_from(tiny_registry, "snn", tiny_source, tiny_collection)
    hub = TelemetryHub(logger=CapturingLogger(), slow_ms=0.0)
    app = GatewayApp(service, registry=tiny_registry, telemetry=hub)
    server, client = gateway(app)
    return app, hub, server, client


def samples_by_key(text):
    return {(s.name, s.labels): s.value for s in parse_text(text)}


class TestMetricsEndpoint:
    def test_scrape_parses_and_counts_requests(self, observed,
                                               test_positives):
        _app, _hub, _server, client = observed
        announcement = make_announcements(test_positives, 1)[0]
        client.rank(announcement)
        client.healthz()
        samples = samples_by_key(client.metrics_text())  # strict parse
        assert samples[("gateway_requests_total",
                        (("endpoint", "/v1/rank"), ("status", "200")))] == 1
        assert samples[("gateway_requests_total",
                        (("endpoint", "/v1/healthz"), ("status", "200")))] == 1
        # The serving registry is merged into the same scrape.
        assert samples[("service_alerts_total", ())] == 1
        buckets = [key for key in samples
                   if key[0] == "rank_latency_seconds_bucket"]
        assert buckets, "latency histogram must be exposed"
        assert samples[("rank_latency_seconds_count",
                        (("model", "SNN"),))] >= 1

    def test_model_info_and_uptime_series(self, observed):
        _app, _hub, _server, client = observed
        samples = samples_by_key(client.metrics_text())
        info = [key for key in samples if key[0] == "gateway_model_info"]
        assert len(info) == 1
        labels = dict(info[0][1])
        assert labels["arch"] == "SNN"
        uptime = samples[("gateway_uptime_seconds", ())]
        assert uptime >= 0.0

    def test_scrapes_are_not_archived_as_traces(self, observed):
        _app, hub, _server, client = observed
        for _ in range(3):
            client.metrics_text()
            client.recent_traces()
        assert len(hub.traces) == 0
        client.healthz()
        assert len(hub.traces) == 1


class TestHeaders:
    def test_every_endpoint_returns_telemetry_headers(self, observed,
                                                      test_positives):
        _app, _hub, _server, client = observed
        announcement = make_announcements(test_positives, 1)[0]
        calls = [
            lambda: client.healthz(),
            lambda: client.stats(),
            lambda: client.models(),
            lambda: client.rank(announcement),
            lambda: client.rank_batch([announcement]),
            lambda: client.observe(announcement),
            lambda: client.metrics_text(),
            lambda: client.recent_traces(),
        ]
        for call in calls:
            call()
            assert client.last_server_duration_ms is not None
            assert client.last_server_duration_ms >= 0.0
            assert client.last_trace_id

    def test_headers_present_on_error_responses(self, observed):
        _app, _hub, _server, client = observed
        bad = Announcement(channel_id=10**9, coin_id=-1,
                           exchange_id=0, pair="BTC", time=0.0)
        with pytest.raises(GatewayRequestError) as excinfo:
            client.rank(bad)
        assert excinfo.value.code == "unknown_channel"
        assert client.last_server_duration_ms is not None
        assert client.last_trace_id

    def test_client_propagates_ambient_trace_id(self, observed):
        _app, hub, _server, client = observed
        with start_trace("caller", trace_id="caller-trace-1"):
            client.healthz()
        assert client.last_trace_id == "caller-trace-1"
        (archived,) = hub.traces.recent(limit=1)
        assert archived["trace_id"] == "caller-trace-1"


class TestSpanTree:
    def test_rank_trace_spans_the_full_stack(self, observed, test_positives):
        _app, hub, _server, client = observed
        announcement = make_announcements(test_positives, 1)[0]
        client.rank(announcement)
        root = next(t for t in hub.traces.recent()
                    if t["name"] == "POST /v1/rank")
        assert root["trace_id"] == client.last_trace_id
        assert root["attributes"]["status"] == 200

        def names(node):
            yield node["name"]
            for child in node["children"]:
                yield from names(child)

        seen = list(names(root))
        assert "service.rank_batch" in seen
        assert "cache.features" in seen  # cold cache -> miss path traced
        # Every span completed and carries the request's trace id.
        def check(node):
            assert node["trace_id"] == root["trace_id"]
            assert node["duration_ms"] is not None
            for child in node["children"]:
                check(child)

        check(root)

    def test_forward_span_records_rows_and_histories(self, observed,
                                                     test_positives):
        """One announcement: every candidate row, one encoded history;
        the history is encoded on the first rank only (a cache miss)."""
        _app, _hub, _server, client = observed
        announcement = make_announcements(test_positives, 1)[0]
        for request in range(2):
            alert = client.rank(announcement)
            (tree,) = client.recent_traces(limit=1)
            spans = {}

            def collect(node):
                spans[node["name"]] = node
                for child in node["children"]:
                    collect(child)

            collect(tree)
            forward = spans["nn.forward"]["attributes"]
            assert forward["rows"] == len(alert.ranking.scores)
            assert forward["histories"] == 1
            assert ("sequence.encode" in spans) == (request == 0)

    def test_trace_recent_endpoint_serves_the_tree(self, observed,
                                                   test_positives):
        _app, _hub, _server, client = observed
        announcement = make_announcements(test_positives, 1)[0]
        client.rank(announcement)
        traces = client.recent_traces(limit=1)
        assert len(traces) == 1
        assert traces[0]["name"] == "POST /v1/rank"
        assert traces[0]["children"]

    def test_trace_recent_rejects_bad_limit(self, observed):
        import urllib.error
        import urllib.request

        _app, _hub, server, client = observed
        # The client coerces ``limit`` itself, so go in raw.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(server.url + "/v1/trace/recent?limit=abc")
        assert excinfo.value.code == 400


class TestStructuredLogs:
    def test_errors_logged_with_code_and_trace_id(self, observed):
        _app, hub, _server, client = observed
        bad = Announcement(channel_id=10**9, coin_id=-1,
                           exchange_id=0, pair="BTC", time=0.0)
        with pytest.raises(GatewayRequestError):
            client.rank(bad)
        records = [r for r in hub.logger.records
                   if r["event"] == "gateway_error"]
        (record,) = records
        assert record["code"] == "unknown_channel"
        assert record["status"] == 422
        assert record["endpoint"] == "/v1/rank"
        assert record["trace_id"] == client.last_trace_id
        samples = samples_by_key(client.metrics_text())
        assert samples[("gateway_errors_total",
                        (("code", "unknown_channel"),))] == 1

    def test_slow_request_log_attaches_span_tree(self, observed,
                                                 test_positives):
        _app, hub, _server, client = observed  # slow_ms=0: everything slow
        announcement = make_announcements(test_positives, 1)[0]
        client.rank(announcement)
        slow = [r for r in hub.logger.records if r["event"] == "slow_request"]
        assert slow, "slow_ms=0 must flag every request"
        record = next(r for r in slow if r["name"] == "POST /v1/rank")
        assert record["level"] == "warning"
        assert record["trace_id"] == client.last_trace_id
        assert record["trace"]["name"] == "POST /v1/rank"
        assert record["trace"]["children"]


class TestParityUnderTelemetry:
    def test_rankings_bit_identical_with_tracing_on(self, tiny_source,
                                                    tiny_collection,
                                                    tiny_registry, gateway,
                                                    test_positives):
        """Instrumentation must never perturb scores (acceptance)."""
        local = service_from(tiny_registry, "snn", tiny_source,
                             tiny_collection)
        remote = service_from(tiny_registry, "snn", tiny_source,
                              tiny_collection)
        hub = TelemetryHub(logger=CapturingLogger(), slow_ms=0.0)
        _server, client = gateway(
            GatewayApp(remote, registry=tiny_registry, telemetry=hub)
        )
        announcements = make_announcements(test_positives,
                                           min(4, len(test_positives)))
        for announcement in announcements:
            with start_trace("caller"):
                over_the_wire = client.rank(announcement)
            in_process = local.rank_one(announcement)
            wire = [(s.coin_id, s.probability)
                    for s in over_the_wire.ranking.scores]
            direct = [(s.coin_id, s.probability)
                      for s in in_process.ranking.scores]
            assert wire == direct  # float64 ==, no tolerance
