"""Rebuild serving state from a durable event store after a crash.

A gateway booted with ``--store`` on a file that already holds history
replays it before taking traffic:

1. the fresh :class:`~repro.serving.PredictionService` catches up from
   seq 0 — the same seq-ordered fold every later observation goes
   through — so the per-channel history cache (and therefore every
   future ranking) is **bit-identical** to the moment the previous
   process died: the model weights come from the artifact, the histories
   from the log, and the features are deterministic functions of both;
2. service stats restore from the latest periodic **snapshot**, then the
   counters the store can reconstruct *exactly* are overridden with the
   durable truth: ``alerts`` = stored alert rows, ``scored_rows`` = sum
   of their candidate counts.  Sessionizer-level counters (messages,
   announcements, …) keep the snapshot value — they count events the
   gateway path never increments, so the snapshot is the best record.

The replay only reads the store; it never writes to it.
"""

from __future__ import annotations

from repro.store.base import EventStore


def rehydrate_service(service, store: EventStore) -> dict:
    """Fold a store's history into a freshly built service.

    ``store`` is the store the service was built on.  Returns a small
    summary dict (observation/alert counts, whether a stats snapshot was
    found) for boot-time logging.
    """
    observations = service.catch_up()

    snapshot = store.latest_stats()
    if snapshot is not None:
        service.stats.restore(snapshot)

    counts = store.counts()
    if counts.get("alerts"):
        # Exact per-row truth beats the (possibly stale) snapshot.  The
        # socket is not served yet, so nothing else writes these ints.
        service.stats.alerts = counts["alerts"]
        scored = getattr(store, "scored_rows", None)
        if scored is not None:
            service.stats.scored_rows = scored()

    return {
        "observations": observations,
        "alerts": counts.get("alerts", 0),
        "announcements": counts.get("announcements", 0),
        "stats_snapshot": snapshot is not None,
    }


__all__ = ["rehydrate_service"]
