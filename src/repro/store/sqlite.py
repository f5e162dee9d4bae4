"""WAL-mode SQLite backend for the event store.

One file holds the whole serving history: four append-only tables
(``announcements``, ``alerts``, ``observations``, ``stats_snapshots``)
plus a ``meta`` table pinning the store schema version.  Durability
stance:

* ``journal_mode=WAL`` + ``synchronous=NORMAL`` — every append is its
  own committed transaction; a committed append survives ``kill -9`` of
  the writing process (the WAL write has left the process), which is the
  crash model the recovery tests exercise;
* ``check_same_thread=False`` with one process-level lock — the gateway
  appends from N handler threads; SQLite connections are not concurrency
  -safe, so all access is serialized here (appends are sub-millisecond,
  far off the scoring path's critical section);
* a schema-version mismatch or a non-SQLite file raises
  :class:`StoreError` at open — never a half-read history.

Alert rows carry both the denormalized columns queries filter on
(channel, time, announced rank) and the full wire payload
(:meth:`Alert.to_payload` JSON).  ``json`` serializes floats via
``repr``, so a ranking read back from the store decodes **bit-for-bit**
equal to the one that was served — the property the kill-9 recovery
tests pin.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from pathlib import Path

from repro.store.base import EventStore, StoreError
from repro.telemetry.metrics import default_registry

#: Bumped only for incompatible table changes; additive columns do not.
STORE_SCHEMA_VERSION = 1

_TABLES = ("announcements", "alerts", "observations", "stats_snapshots")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS announcements (
    seq         INTEGER PRIMARY KEY AUTOINCREMENT,
    channel_id  INTEGER NOT NULL,
    coin_id     INTEGER NOT NULL,
    exchange_id INTEGER NOT NULL,
    pair        TEXT    NOT NULL,
    time        REAL    NOT NULL
);
CREATE TABLE IF NOT EXISTS alerts (
    seq            INTEGER PRIMARY KEY AUTOINCREMENT,
    channel_id     INTEGER NOT NULL,
    coin_id        INTEGER NOT NULL,
    exchange_id    INTEGER NOT NULL,
    pair           TEXT    NOT NULL,
    time           REAL    NOT NULL,
    announced_rank INTEGER NOT NULL,
    n_scores       INTEGER NOT NULL,
    latency_ms     REAL    NOT NULL,
    payload        TEXT    NOT NULL
);
CREATE INDEX IF NOT EXISTS alerts_channel_time
    ON alerts (channel_id, time);
CREATE TABLE IF NOT EXISTS observations (
    seq         INTEGER PRIMARY KEY AUTOINCREMENT,
    event_id    TEXT    NOT NULL UNIQUE,
    channel_id  INTEGER NOT NULL,
    coin_id     INTEGER NOT NULL,
    exchange_id INTEGER NOT NULL,
    pair        TEXT    NOT NULL,
    time        REAL    NOT NULL
);
CREATE TABLE IF NOT EXISTS stats_snapshots (
    seq     INTEGER PRIMARY KEY AUTOINCREMENT,
    created REAL NOT NULL,
    payload TEXT NOT NULL
);
"""


class SQLiteEventStore(EventStore):
    """Durable event log in one SQLite file (``:memory:`` for tests)."""

    def __init__(self, path: str | Path):
        self.path = str(path)
        self._lock = threading.RLock()
        try:
            self._conn = sqlite3.connect(
                self.path, check_same_thread=False, isolation_level=None,
            )
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            # N pooled gateway workers share one store file; without a
            # busy timeout a writer that collides with another process's
            # commit fails immediately with SQLITE_BUSY instead of
            # waiting its turn.
            self._conn.execute("PRAGMA busy_timeout=5000")
            self._conn.executescript(_SCHEMA)
            self._check_meta()
        except sqlite3.Error as exc:
            raise StoreError(
                f"cannot open event store at {self.path!r}: {exc}"
            ) from exc
        registry = default_registry()
        self._m_appends = registry.counter(
            "store_appends_total",
            "Rows appended to the durable event store.", ("table",),
        )
        self._m_duplicates = registry.counter(
            "store_duplicates_total",
            "Appends skipped because the event id was already recorded.",
            ("table",),
        )

    def _check_meta(self) -> None:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            self._conn.execute(
                "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                (str(STORE_SCHEMA_VERSION),),
            )
            self._conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) "
                "VALUES ('created', ?)", (repr(time.time()),),
            )
            return
        found = row[0]
        if found != str(STORE_SCHEMA_VERSION):
            raise StoreError(
                f"event store {self.path!r} has schema version {found}, "
                f"this code speaks {STORE_SCHEMA_VERSION}; refusing to "
                "read a half-understood history"
            )

    # -- appends -------------------------------------------------------------

    def _execute(self, sql: str, params=()):
        with self._lock:
            try:
                return self._conn.execute(sql, params)
            except sqlite3.Error as exc:
                raise StoreError(
                    f"event store {self.path!r} append/query failed: {exc}"
                ) from exc

    def append_announcement(self, announcement) -> None:
        self._execute(
            "INSERT INTO announcements "
            "(channel_id, coin_id, exchange_id, pair, time) "
            "VALUES (?, ?, ?, ?, ?)",
            (announcement.channel_id, announcement.coin_id,
             announcement.exchange_id, announcement.pair,
             announcement.time),
        )
        self._m_appends.labels(table="announcements").inc()

    def append_alert(self, alert) -> None:
        announcement = alert.announcement
        self._execute(
            "INSERT INTO alerts (channel_id, coin_id, exchange_id, pair, "
            "time, announced_rank, n_scores, latency_ms, payload) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (announcement.channel_id, announcement.coin_id,
             announcement.exchange_id, announcement.pair, announcement.time,
             alert.announced_rank, len(alert.ranking.scores),
             alert.latency_ms, json.dumps(alert.to_payload())),
        )
        self._m_appends.labels(table="alerts").inc()

    def append_observation(self, announcement, event_id: str) -> bool:
        cursor = self._execute(
            "INSERT OR IGNORE INTO observations "
            "(event_id, channel_id, coin_id, exchange_id, pair, time) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            (event_id, announcement.channel_id, announcement.coin_id,
             announcement.exchange_id, announcement.pair,
             announcement.time),
        )
        fresh = cursor.rowcount == 1
        if fresh:
            self._m_appends.labels(table="observations").inc()
        else:
            self._m_duplicates.labels(table="observations").inc()
        return fresh

    def append_stats(self, summary: dict) -> None:
        self._execute(
            "INSERT INTO stats_snapshots (created, payload) VALUES (?, ?)",
            (time.time(), json.dumps(summary)),
        )
        self._m_appends.labels(table="stats_snapshots").inc()

    # -- queries -------------------------------------------------------------

    def observations(self) -> list:
        from repro.serving.online import Announcement

        rows = self._execute(
            "SELECT event_id, channel_id, coin_id, exchange_id, pair, time "
            "FROM observations ORDER BY seq"
        ).fetchall()
        return [
            (event_id, Announcement(channel_id=channel_id, coin_id=coin_id,
                                    exchange_id=exchange_id, pair=pair,
                                    time=when))
            for event_id, channel_id, coin_id, exchange_id, pair, when
            in rows
        ]

    def observations_since(self, seq: int) -> list:
        from repro.serving.online import Announcement

        rows = self._execute(
            "SELECT seq, event_id, channel_id, coin_id, exchange_id, pair, "
            "time FROM observations WHERE seq > ? ORDER BY seq",
            (int(seq),),
        ).fetchall()
        return [
            (row_seq,
             event_id,
             Announcement(channel_id=channel_id, coin_id=coin_id,
                          exchange_id=exchange_id, pair=pair, time=when))
            for row_seq, event_id, channel_id, coin_id, exchange_id, pair,
            when in rows
        ]

    def _alert_window(self, *, channel_id=None, since=None, until=None,
                      limit=None) -> tuple[str, list]:
        clauses, params = [], []
        if channel_id is not None:
            clauses.append("channel_id = ?")
            params.append(int(channel_id))
        if since is not None:
            clauses.append("time >= ?")
            params.append(float(since))
        if until is not None:
            clauses.append("time < ?")
            params.append(float(until))
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        tail = ""
        if limit is not None:
            if limit < 0:
                raise ValueError("limit must be >= 0")
            tail = " LIMIT ?"
            params.append(int(limit))
        return where, params, tail

    def alerts(self, *, channel_id: int | None = None,
               since: float | None = None, until: float | None = None,
               limit: int | None = None) -> list:
        from repro.serving.service import Alert

        where, params, tail = self._alert_window(
            channel_id=channel_id, since=since, until=until, limit=limit,
        )
        # A limit keeps the newest rows, still returned in seq order.
        rows = self._execute(
            f"SELECT payload FROM (SELECT seq, payload FROM alerts{where} "
            f"ORDER BY seq DESC{tail}) ORDER BY seq", params,
        ).fetchall()
        try:
            return [Alert.from_payload(json.loads(row[0])) for row in rows]
        except (ValueError, json.JSONDecodeError) as exc:
            raise StoreError(
                f"event store {self.path!r} holds an undecodable alert "
                f"payload: {exc}"
            ) from exc

    def latest_stats(self) -> dict | None:
        row = self._execute(
            "SELECT payload FROM stats_snapshots ORDER BY seq DESC LIMIT 1"
        ).fetchone()
        if row is None:
            return None
        try:
            payload = json.loads(row[0])
        except json.JSONDecodeError as exc:
            raise StoreError(
                f"event store {self.path!r} holds an undecodable stats "
                f"snapshot: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise StoreError(
                f"event store {self.path!r} stats snapshot is not an object"
            )
        return payload

    def counts(self) -> dict[str, int]:
        return {
            table: int(self._execute(
                f"SELECT COUNT(*) FROM {table}"
            ).fetchone()[0])
            for table in _TABLES
        }

    def scored_rows(self) -> int:
        """Total candidate rows across every stored alert (exact)."""
        row = self._execute("SELECT COALESCE(SUM(n_scores), 0) FROM alerts"
                            ).fetchone()
        return int(row[0])

    def time_span(self) -> tuple[float, float] | None:
        """``(earliest, latest)`` alert time, or ``None`` when empty."""
        row = self._execute("SELECT MIN(time), MAX(time) FROM alerts"
                            ).fetchone()
        if row is None or row[0] is None:
            return None
        return float(row[0]), float(row[1])

    def hit_rate(self, k: int, *, since: float | None = None,
                 until: float | None = None) -> tuple[int, int]:
        """Backtest HR@k over stored alerts whose released coin is known.

        Only alerts with ``coin_id >= 0`` participate (a ``-1`` probe has
        no ground truth), mirroring offline evaluation.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        where, params, _tail = self._alert_window(since=since, until=until)
        prefix = where + (" AND " if where else " WHERE ") + "coin_id >= 0"
        total = int(self._execute(
            f"SELECT COUNT(*) FROM alerts{prefix}", params,
        ).fetchone()[0])
        hits = int(self._execute(
            f"SELECT COUNT(*) FROM alerts{prefix} "
            "AND announced_rank BETWEEN 1 AND ?", [*params, int(k)],
        ).fetchone()[0])
        return hits, total

    # -- lifecycle -----------------------------------------------------------

    def flush(self) -> None:
        """Checkpoint the WAL into the main database file."""
        with self._lock:
            try:
                self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            except sqlite3.Error:  # pragma: no cover - advisory only
                pass

    def close(self) -> None:
        with self._lock:
            try:
                self._conn.close()
            except sqlite3.Error:  # pragma: no cover - already closed
                pass


__all__ = ["SQLiteEventStore", "STORE_SCHEMA_VERSION"]
