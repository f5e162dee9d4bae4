"""The event-store protocol: durable, append-only serving history.

Everything the serving stack streams — announcements submitted for
ranking, the ranked alerts themselves, observed (resolved) releases, and
periodic :class:`~repro.serving.ServiceStats` snapshots — can be
persisted through an :class:`EventStore` as it flows, so a crashed
gateway restarts with its history instead of cold (ISSUE 7 / ROADMAP
item 2).

Contract highlights:

* **append-only** — rows are never updated or deleted; the store is a
  log, and queries are views over it;
* **idempotent observations** — every observation carries an
  ``event_id``; appending a duplicate id is a no-op that reports
  ``False``, which is what makes client retries and crash/replay
  recovery safe ("no event is double-counted");
* **crash-durable** — an append that returned is expected to survive
  ``kill -9`` of the writing process (the SQLite backend commits every
  append to a WAL).

:class:`NullEventStore` is the do-nothing stand-in so call sites can be
written unconditionally.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.online import Announcement
    from repro.serving.service import Alert


class StoreError(RuntimeError):
    """The store is unusable (bad path, foreign schema, corrupt file)."""


class EventStore:
    """Interface every event-store backend implements."""

    # -- appends (the write path) --------------------------------------------

    def append_announcement(self, announcement: "Announcement") -> None:
        raise NotImplementedError

    def append_alert(self, alert: "Alert") -> None:
        raise NotImplementedError

    def append_observation(self, announcement: "Announcement",
                           event_id: str) -> bool:
        """Persist one observed release; ``False`` when ``event_id`` was
        already recorded (the fold must then be skipped too)."""
        raise NotImplementedError

    def append_stats(self, summary: dict) -> None:
        raise NotImplementedError

    # -- queries (the read path) ---------------------------------------------

    def observations_since(
            self, seq: int) -> list[tuple[int, str, "Announcement"]]:
        """``(seq, event_id, announcement)`` rows with ``seq > seq``, in
        append order.  The cursor-style read every service folds its
        history through: a service folds its own observations and any
        other writer's (N pooled workers on one store) from where it
        last left off, so every reader sees one order."""
        raise NotImplementedError

    def alerts(self, *, channel_id: int | None = None,
               since: float | None = None, until: float | None = None,
               limit: int | None = None) -> list["Alert"]:
        """Stored alerts in seq order; ``limit`` keeps the newest N."""
        raise NotImplementedError

    def latest_stats(self) -> dict | None:
        raise NotImplementedError

    def counts(self) -> dict[str, int]:
        raise NotImplementedError

    def hit_rate(self, k: int, *, since: float | None = None,
                 until: float | None = None) -> tuple[int, int]:
        """``(hits, total)`` of alerts whose released coin ranked <= k."""
        raise NotImplementedError

    # -- lifecycle -----------------------------------------------------------

    def flush(self) -> None:
        """Push buffered state toward disk (best effort; appends are
        already committed individually)."""

    def close(self) -> None:
        pass

    def __enter__(self) -> "EventStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class NullEventStore(EventStore):
    """Keeps nothing durable; queries answer empty.

    ``append_observation`` always reports "fresh" so in-memory dedup
    (which the serving layer performs regardless) stays the only gate.
    Observations still get in-memory sequence numbers, so a service
    without a durable store folds through the same seq-ordered
    :meth:`observations_since` as one with.  A row is held only until
    the store's one reader has read it, so memory stays constant.
    """

    def __init__(self) -> None:
        self._seq = 0
        self._unread: list[tuple[int, str, "Announcement"]] = []

    def append_announcement(self, announcement) -> None:
        pass

    def append_alert(self, alert) -> None:
        pass

    def append_observation(self, announcement, event_id: str) -> bool:
        self._seq += 1
        self._unread.append((self._seq, event_id, announcement))
        return True

    def append_stats(self, summary: dict) -> None:
        pass

    def observations_since(self, seq: int) -> list:
        rows, self._unread = self._unread, []
        return rows

    def alerts(self, **kwargs) -> list:
        return []

    def latest_stats(self) -> dict | None:
        return None

    def counts(self) -> dict[str, int]:
        return {"announcements": 0, "alerts": 0, "observations": 0,
                "stats_snapshots": 0}

    def hit_rate(self, k: int, **kwargs) -> tuple[int, int]:
        return (0, 0)


__all__ = ["EventStore", "NullEventStore", "StoreError"]
