"""Crash → rehydrate → bit-identical serving state.

The contract ROADMAP item 2 asks for: a service rebooted onto the same
event log ranks exactly like the one that died — history caches, dedup
window, and the store-reconstructible stats all survive.
"""

import pytest

from repro.store import SQLiteEventStore, rehydrate_service
from tests.store.conftest import (
    announcements_from,
    exact,
    probe_for,
    unobserved_ranking,
)


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "events.db"


class TestRehydrate:
    def test_empty_store_is_a_clean_boot(self, st_service, store_path):
        with SQLiteEventStore(store_path) as store:
            recovered = rehydrate_service(st_service(), store)
        assert recovered == {"observations": 0, "alerts": 0,
                             "announcements": 0, "stats_snapshot": False}

    def test_observations_fold_back_bit_identically(self, st_service,
                                                    st_positives,
                                                    store_path):
        streamed = announcements_from(st_positives, 3)
        probe = probe_for(streamed[0])

        # Life before the crash: a service streams observations into the
        # store.  No close()/flush() — kill -9 semantics, the WAL commits
        # per append.
        first_life = st_service(store=SQLiteEventStore(store_path),
                                arch="snn")
        for announcement in streamed:
            assert first_life.observe(announcement) is True
        expected = exact(first_life.rank_one(probe).ranking)
        assert expected != unobserved_ranking(st_service, probe)

        # A fresh process: new store handle, new service, replay.
        store = SQLiteEventStore(store_path)
        second_life = st_service(store=store, arch="snn")
        recovered = rehydrate_service(second_life, store)
        assert recovered["observations"] == len(streamed)
        assert second_life.history(probe.channel_id) \
            == first_life.history(probe.channel_id)
        assert exact(second_life.rank_one(probe).ranking) == expected

    def test_no_event_is_double_counted(self, st_service, st_positives,
                                        store_path):
        streamed = announcements_from(st_positives, 2)
        first_life = st_service(store=SQLiteEventStore(store_path))
        ids = []
        for announcement in streamed:
            event_id = announcement.event_id()
            assert first_life.observe(announcement, event_id=event_id)
            ids.append(event_id)

        store = SQLiteEventStore(store_path)
        second_life = st_service(store=store)
        rehydrate_service(second_life, store)
        history_after_replay = second_life.history(streamed[0].channel_id)

        # A client retrying its pre-crash observes must hit the dedup
        # window (rehydration seeded it), not grow history again.
        for announcement, event_id in zip(streamed, ids):
            assert second_life.observe(announcement,
                                       event_id=event_id) is False
        assert second_life.history(streamed[0].channel_id) \
            == history_after_replay
        assert store.counts()["observations"] == len(streamed)

    def test_rehydrating_twice_is_idempotent(self, st_service, st_positives,
                                             store_path):
        streamed = announcements_from(st_positives, 2)
        first_life = st_service(store=SQLiteEventStore(store_path))
        for announcement in streamed:
            first_life.observe(announcement)

        store = SQLiteEventStore(store_path)
        service = st_service(store=store)
        rehydrate_service(service, store)
        length = len(service.history(streamed[0].channel_id))
        rehydrate_service(service, store)
        assert len(service.history(streamed[0].channel_id)) == length

    def test_stats_restore_prefers_durable_truth(self, st_service,
                                                 st_positives, store_path):
        requests = announcements_from(st_positives, 3)
        first_life = st_service(store=SQLiteEventStore(store_path))
        alerts = first_life.rank_batch(requests)
        assert len(alerts) == len(requests)
        # A stale snapshot, as if the periodic thread last fired a while
        # before the crash.
        stale = first_life.stats.summary()
        stale["alerts"] = 1
        first_life.store.append_stats(stale)

        store = SQLiteEventStore(store_path)
        second_life = st_service(store=store)
        recovered = rehydrate_service(second_life, store)
        assert recovered["stats_snapshot"] is True
        # Exact, store-backed counters beat the snapshot...
        assert second_life.stats.alerts == len(alerts)
        assert second_life.stats.scored_rows == store.scored_rows()
        # ...while snapshot-only counters carry over verbatim.
        assert second_life.stats.messages == stale["messages"]

    def test_rank_path_persists_both_tables(self, st_service, st_positives,
                                            store_path):
        requests = announcements_from(st_positives, 2)
        service = st_service(store=SQLiteEventStore(store_path))
        served = service.rank_batch(requests)

        with SQLiteEventStore(store_path) as store:
            counts = store.counts()
            assert counts["announcements"] == len(requests)
            assert counts["alerts"] == len(served)
            # Ranked announcements with a known coin also fold + persist
            # as observations (deterministic event id — exactly once).
            assert counts["observations"] == len(requests)
            [stored_first, _] = store.alerts()
            assert exact(stored_first.ranking) == exact(served[0].ranking)
