"""One fold path: every service folds observations in store seq order.

Services sharing one event log (pooled workers, each on its own
connection) must hold the same history, hence rank a probe exactly like
one process that observed everything, and a hot reload must not stop a
service from folding its peers' observations.  The SNN encodes the
channel's pump history, so each test first checks that the observations
move the probe's ranking at all.
"""

from repro.gateway import GatewayApp
from repro.gateway.schema import RankRequestV1, ReloadRequestV1
from repro.store import SQLiteEventStore
from tests.store.conftest import (
    announcements_from,
    exact,
    probe_for,
    unobserved_ranking,
)


def single_process_ranking(st_service, observed, probe) -> tuple:
    """The probe's ranking from one store-less service that observed
    every announcement itself."""
    service = st_service(arch="snn")
    for announcement in observed:
        assert service.observe(announcement) is True
    return exact(service.rank_one(probe).ranking)


class TestSharedStoreFold:
    def test_two_services_on_one_store_agree(self, st_service, st_positives,
                                             tmp_path):
        db = tmp_path / "events.db"
        streamed = announcements_from(st_positives, 3)
        probe = probe_for(streamed[0])
        first = st_service(store=SQLiteEventStore(db), arch="snn")
        second = st_service(store=SQLiteEventStore(db), arch="snn")
        for i, announcement in enumerate(streamed):
            assert (first, second)[i % 2].observe(announcement) is True

        expected = single_process_ranking(st_service, streamed, probe)
        assert expected != unobserved_ranking(st_service, probe)
        assert exact(first.rank_one(probe).ranking) == expected
        assert exact(second.rank_one(probe).ranking) == expected

    def test_retry_through_a_peer_still_folds(self, st_service,
                                              st_positives, tmp_path):
        """A client retry landing on another service is a duplicate there,
        and that service still folds the row its peer wrote."""
        db = tmp_path / "events.db"
        observed = announcements_from(st_positives, 1)
        probe = probe_for(observed[0])
        first = st_service(store=SQLiteEventStore(db), arch="snn")
        second = st_service(store=SQLiteEventStore(db), arch="snn")
        assert first.observe(observed[0], event_id="cli:retried") is True
        assert second.observe(observed[0], event_id="cli:retried") is False

        expected = single_process_ranking(st_service, observed, probe)
        assert expected != unobserved_ranking(st_service, probe)
        assert exact(second.rank_one(probe).ranking) == expected

    def test_reload_keeps_folding_peer_observations(self, tiny_registry,
                                                    st_service,
                                                    st_positives, tmp_path):
        db = tmp_path / "events.db"
        observed = announcements_from(st_positives, 1)
        probe = probe_for(observed[0])
        app = GatewayApp(st_service(store=SQLiteEventStore(db), arch="snn"),
                         registry=tiny_registry)
        peer = st_service(store=SQLiteEventStore(db), arch="snn")

        app.reload(ReloadRequestV1(ref="snn"))
        assert peer.observe(observed[0]) is True

        expected = single_process_ranking(st_service, observed, probe)
        assert expected != unobserved_ranking(st_service, probe)
        assert exact(app.rank(RankRequestV1(probe)).alert.ranking) == expected
