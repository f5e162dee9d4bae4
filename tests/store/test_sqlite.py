"""SQLiteEventStore unit behavior: appends, queries, durability edges.

No model involved — alerts are hand-built so ranks and windows are
exactly known.  The bit-exactness tests pin the property recovery
relies on: a ranking read back from the store equals the served one
float-for-float.
"""

import json
import sqlite3

import pytest

from repro.cli import main
from repro.core.predictor import Ranking
from repro.serving import Alert, Announcement
from repro.store import (
    NullEventStore,
    SQLiteEventStore,
    STORE_SCHEMA_VERSION,
    StoreError,
)


def ann(channel=1, coin=7, time=10.0) -> Announcement:
    return Announcement(channel_id=channel, coin_id=coin, exchange_id=0,
                        pair="BTC", time=time)


def alert_for(channel=1, coin=7, time=10.0, rank=1,
              n_scores=3) -> Alert:
    """An alert whose announced coin sits at position ``rank``.

    ``rank`` beyond ``n_scores`` (or ``coin=-1``) yields an unranked
    alert, mirroring a miss / an unlabeled probe.
    """
    positions = range(1, n_scores + 1)
    ranking = Ranking(
        channel_id=channel, exchange_id=0, pump_time=time,
        coin_ids=[coin if p == rank else 1000 + p for p in positions],
        symbols=[f"C{p}" for p in positions],
        probabilities=[1.0 - p * 0.1 for p in positions],
    )
    return Alert(announcement=ann(channel, coin, time), ranking=ranking,
                 latency_ms=1.25)


@pytest.fixture
def store(tmp_path):
    event_store = SQLiteEventStore(tmp_path / "events.db")
    yield event_store
    event_store.close()


class TestAppendsAndQueries:
    def test_counts_start_empty(self, store):
        assert store.counts() == {
            "announcements": 0, "alerts": 0, "observations": 0,
            "stats_snapshots": 0,
        }

    def test_announcement_append_counts(self, store):
        store.append_announcement(ann())
        store.append_announcement(ann(channel=2))
        assert store.counts()["announcements"] == 2

    def test_alert_round_trip_is_bit_exact(self, store):
        # Awkward floats on purpose: repr-based JSON must survive.
        served = alert_for(time=20801.033333333333)
        store.append_alert(served)
        [loaded] = store.alerts()
        assert loaded.announcement == served.announcement
        assert loaded.latency_ms == served.latency_ms
        assert loaded.ranking.scores == served.ranking.scores
        assert loaded.announced_rank == served.announced_rank

    def test_observation_dedup_on_event_id(self, store):
        assert store.append_observation(ann(), "e1") is True
        assert store.append_observation(ann(), "e1") is False
        assert store.append_observation(ann(), "e2") is True
        assert store.counts()["observations"] == 2

    def test_observations_replay_in_append_order(self, store):
        first, second = ann(time=1.0), ann(channel=2, time=2.0)
        store.append_observation(first, "e1")
        store.append_observation(second, "e2")
        assert [(event_id, a) for _, event_id, a
                in store.observations_since(0)] == [("e1", first),
                                                    ("e2", second)]

    def test_alert_filters_channel_window_limit(self, store):
        for channel, time in ((1, 10.0), (1, 20.0), (2, 30.0), (1, 40.0)):
            store.append_alert(alert_for(channel=channel, time=time))
        assert len(store.alerts(channel_id=1)) == 3
        assert len(store.alerts(since=20.0)) == 3
        # until is exclusive: [since, until)
        assert len(store.alerts(since=10.0, until=30.0)) == 2
        # limit keeps the newest alerts, still in seq order.
        assert [a.announcement.time for a in store.alerts(limit=2)] == \
            [30.0, 40.0]
        assert store.alerts(channel_id=2)[0].announcement.time == 30.0

    def test_latest_stats_wins(self, store):
        assert store.latest_stats() is None
        store.append_stats({"alerts": 1})
        store.append_stats({"alerts": 5, "messages": 9})
        assert store.latest_stats() == {"alerts": 5, "messages": 9}

    def test_time_span(self, store):
        assert store.time_span() is None
        store.append_alert(alert_for(time=5.0))
        store.append_alert(alert_for(time=42.0))
        assert store.time_span() == (5.0, 42.0)

    def test_scored_rows_sums_candidates(self, store):
        store.append_alert(alert_for(n_scores=3))
        store.append_alert(alert_for(n_scores=5))
        assert store.scored_rows() == 8


class TestHitRate:
    def test_hits_and_window(self, store):
        store.append_alert(alert_for(time=1.0, rank=1))    # hit @1
        store.append_alert(alert_for(time=2.0, rank=3))    # hit @3
        store.append_alert(alert_for(time=3.0, rank=9,
                                     n_scores=9))          # miss @3
        assert store.hit_rate(3) == (2, 3)
        assert store.hit_rate(1) == (1, 3)
        assert store.hit_rate(3, since=2.0) == (1, 2)

    def test_unlabeled_probes_are_excluded(self, store):
        store.append_alert(alert_for(rank=1))
        store.append_alert(alert_for(coin=-1))   # -1 probe: no ground truth
        assert store.hit_rate(3) == (1, 1)

    def test_k_must_be_positive(self, store):
        with pytest.raises(ValueError):
            store.hit_rate(0)


class TestDurabilityEdges:
    def test_reopen_preserves_everything(self, tmp_path):
        path = tmp_path / "events.db"
        with SQLiteEventStore(path) as store:
            store.append_alert(alert_for())
            store.append_observation(ann(), "e1")
            store.append_stats({"alerts": 1})
        with SQLiteEventStore(path) as reopened:
            assert reopened.counts() == {
                "announcements": 0, "alerts": 1, "observations": 1,
                "stats_snapshots": 1,
            }
            # Dedup survives the reopen: the id is in the table, not RAM.
            assert reopened.append_observation(ann(), "e1") is False

    def test_non_sqlite_file_is_refused(self, tmp_path):
        path = tmp_path / "garbage.db"
        path.write_bytes(b"this is not a database " * 40)
        with pytest.raises(StoreError):
            store = SQLiteEventStore(path)
            store.counts()   # some sqlite versions defer the read error

    def test_schema_version_mismatch_is_refused(self, tmp_path):
        path = tmp_path / "events.db"
        SQLiteEventStore(path).close()
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(STORE_SCHEMA_VERSION + 1),),
            )
        with pytest.raises(StoreError) as exc:
            SQLiteEventStore(path)
        assert "schema version" in str(exc.value)

    def test_tampered_alert_payload_is_a_typed_error(self, tmp_path):
        path = tmp_path / "events.db"
        store = SQLiteEventStore(path)
        store.append_alert(alert_for())
        store.close()
        with sqlite3.connect(path) as conn:
            conn.execute("UPDATE alerts SET payload = '{nope'")
        with SQLiteEventStore(path) as reopened:
            with pytest.raises(StoreError):
                reopened.alerts()


class TestPayloadFormats:
    """``alerts.payload`` holds the alert's compact wire JSON; logs
    written before that hold ``to_payload()`` dumped with json's default
    separators.  Both kinds of row read back as the served alerts."""

    @pytest.fixture
    def mixed_log(self, tmp_path):
        old = alert_for(channel=1, time=10.0, rank=1)
        new = alert_for(channel=2, time=20.5, rank=4, n_scores=5)
        path = tmp_path / "events.db"
        SQLiteEventStore(path).close()
        with sqlite3.connect(path) as conn:
            # The old row, as the previous append_alert wrote it.
            conn.execute(
                "INSERT INTO alerts (channel_id, coin_id, exchange_id, "
                "pair, time, announced_rank, n_scores, latency_ms, "
                "payload) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (1, 7, 0, "BTC", 10.0, old.announced_rank, 3,
                 old.latency_ms, json.dumps(old.to_payload())),
            )
        with SQLiteEventStore(path) as store:
            store.append_alert(new)
        return path, [old, new]

    def test_new_rows_hold_the_wire_json(self, mixed_log):
        path, (old, new) = mixed_log
        with sqlite3.connect(path) as conn:
            payloads = [row[0] for row in conn.execute(
                "SELECT payload FROM alerts ORDER BY seq")]
        assert ", " in payloads[0]
        assert payloads[1] == new.wire_json == json.dumps(
            new.to_payload(), separators=(",", ":"))

    def test_both_formats_read_back_as_served(self, mixed_log, capsys):
        path, served = mixed_log
        with SQLiteEventStore(path) as store:
            assert store.alerts() == served
        assert main(["history", "alerts", "--store", str(path),
                     "--json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [alert.wire_json for alert in served]
        assert [Alert.from_payload(json.loads(line))
                for line in lines] == served
        assert main(["history", "hr", "--store", str(path),
                     "--k", "3"]) == 0
        assert "HR@3 = 0.5000 (1/2 labeled alerts)" in \
            capsys.readouterr().out


class TestNullStore:
    def test_null_store_is_a_no_op_sink(self):
        store = NullEventStore()
        store.append_announcement(ann())
        store.append_alert(alert_for())
        store.append_stats({"alerts": 1})
        # Without durability every observation is "fresh".
        assert store.append_observation(ann(), "e1") is True
        assert store.append_observation(ann(), "e1") is True
        # Each row reaches the one reader once and is then dropped.
        assert [event_id for _, event_id, _
                in store.observations_since(0)] == ["e1", "e1"]
        assert store.observations_since(0) == []
        assert store.alerts() == []
        assert store.latest_stats() is None
        assert all(count == 0 for count in store.counts().values())
