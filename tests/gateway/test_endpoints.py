"""Happy-path endpoint behavior over a real HTTP server."""

import pytest

from repro.gateway import GatewayApp
from repro.registry import registry_payload
from repro.serving import Announcement
from tests.gateway.conftest import make_announcements, service_from


@pytest.fixture
def running(tiny_source, tiny_collection, tiny_registry, gateway):
    service = service_from(tiny_registry, "snn", tiny_source, tiny_collection)
    app = GatewayApp(service, registry=tiny_registry)
    server, client = gateway(app)
    return app, server, client


class TestIntrospection:
    def test_healthz(self, running):
        _app, _server, client = running
        health = client.healthz()
        assert health.status == "ok"
        assert health.reloads == 0
        assert health.uptime_seconds >= 0.0

    def test_stats_counts_requests(self, running, test_positives):
        _app, _server, client = running
        announcement = make_announcements(test_positives, 1)[0]
        client.rank(announcement)
        client.rank_batch([announcement])
        stats = client.stats()
        assert stats.gateway["requests"]["rank"] == 1
        assert stats.gateway["requests"]["rank_batch"] == 1
        assert stats.service["alerts"] == 2

    def test_models_matches_registry_serializer(self, running, tiny_registry):
        _app, _server, client = running
        response = client.models()
        expected = registry_payload(tiny_registry)
        assert response.registry == expected["root"]
        assert response.models == expected["models"]
        names = {entry["name"] for entry in response.models}
        assert names == {"snn", "dnn", "gru", "tcn"}


class TestRank:
    def test_rank_returns_full_candidate_ranking(self, running,
                                                 test_positives):
        _app, _server, client = running
        announcement = make_announcements(test_positives, 1)[0]
        alert = client.rank(announcement)
        assert alert.announcement == announcement
        assert len(alert.ranking.scores) > 1
        assert alert.announced_rank >= 1
        probabilities = [s.probability for s in alert.ranking.scores]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_rank_without_coin_id_never_pollutes_history(self, running,
                                                         test_positives):
        app, _server, client = running
        announcement = make_announcements(test_positives, 1,
                                          coin_known=False)[0]
        before = len(app.service.history(announcement.channel_id))
        alert = client.rank(announcement)
        assert alert.announced_rank == -1
        assert len(app.service.history(announcement.channel_id)) == before

    def test_empty_batch_is_ok_and_empty(self, running):
        _app, _server, client = running
        assert client.rank_batch([]) == []


class TestClientUrls:
    def test_path_prefix_is_honored_not_dropped(self):
        from repro.gateway import GatewayClient

        client = GatewayClient("http://proxy.example.com:8080/repro/")
        assert client.path_prefix == "/repro"
        assert client.base_url == "http://proxy.example.com:8080/repro"

    def test_bare_host_port(self):
        from repro.gateway import GatewayClient

        client = GatewayClient("127.0.0.1:9999")
        assert client.path_prefix == ""
        assert client.base_url == "http://127.0.0.1:9999"


class TestObserve:
    def test_observe_extends_history(self, running, test_positives):
        app, _server, client = running
        announcement = make_announcements(test_positives, 1)[0]
        before = len(app.service.history(announcement.channel_id))
        response = client.observe(announcement)
        assert response.channel_id == announcement.channel_id
        assert response.history_length == before + 1

    def test_observed_history_changes_later_rankings(self, tiny_source,
                                                     tiny_collection,
                                                     tiny_registry, gateway,
                                                     test_positives):
        service = service_from(tiny_registry, "snn", tiny_source,
                               tiny_collection)
        witness = service_from(tiny_registry, "snn", tiny_source,
                               tiny_collection)
        _server, client = gateway(GatewayApp(service, registry=tiny_registry))
        base = make_announcements(test_positives, 2)
        probe = Announcement(
            channel_id=base[0].channel_id, coin_id=-1, exchange_id=0,
            pair="BTC", time=base[0].time + 2.0,
        )
        # Same probe, but remote history got one extra observation first.
        client.observe(base[0])
        remote = client.rank(probe)
        local = witness.rank_one(probe)
        assert [s.coin_id for s in remote.ranking.scores] != [] \
            and remote.ranking.scores != local.ranking.scores
