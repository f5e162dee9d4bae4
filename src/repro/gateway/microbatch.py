"""Cross-connection micro-batching for ``/v1/rank`` (worker-internal).

A ThreadingHTTPServer hands every connection its own handler thread, so
concurrent ``/v1/rank`` requests reach the app as independent single
rankings — each paying a full forward pass even though the compiled
plans score a batch of 16 for barely more than a batch of 1.  The
:class:`MicroBatcher` coalesces them by contention: each request queues
its announcement and then takes the app's scoring lock.  Whoever holds
the lock runs one gated ``PredictionService.rank_batch`` for everything
queued so far (at most ``max_batch`` entries) and hands alerts (or
per-entry faults) back to their requests; a request an earlier holder
already answered finds its entry done and leaves.  Requests therefore
coalesce exactly when they overlap a flush in progress, a lone request
never waits, and there is no timer.  Every ``/v1/rank`` takes this route.

Semantics are bit-for-bit those of solo ranking:

* gating (coin-universe, known-channel, candidate and deadline checks)
  is applied **per entry** — one bad announcement faults its own request
  and never poisons batch-mates;
* scoring is history-pure and the fold order is unchanged (the service
  folds after scoring, exactly as a solo ``rank_batch([a])`` would), so
  the alert for an announcement is identical whether it was coalesced
  or not.

The holder marks every entry of its flush done in a ``finally`` before
it releases the lock, whatever the batch execution raises, so no waiting
request can hang on a holder that failed.
"""

from __future__ import annotations

import threading

from repro.gateway.schema import E_INTERNAL, GatewayFault, internal_error
from repro.resilience import current_deadline
from repro.serving.online import Announcement
from repro.serving.service import Alert
from repro.telemetry import current_trace_id


class _Entry:
    """One queued rank request and the answer its flush leaves for it."""

    __slots__ = ("announcement", "deadline", "trace_id", "done", "alert",
                 "fault")

    def __init__(self, announcement: Announcement, deadline):
        self.announcement = announcement
        self.deadline = deadline
        self.trace_id = current_trace_id()
        self.done = False
        self.alert: Alert | None = None
        self.fault: GatewayFault | None = None


class MicroBatcher:
    """Contention batcher over an ``execute(entries)`` callback.

    ``execute`` (the app's gated scoring section) runs with ``lock``
    held and must fill each entry's ``alert`` or ``fault``; entries it
    leaves untouched fault with a 500 so a buggy executor degrades
    loudly instead of answering nothing.
    """

    def __init__(self, execute, lock: threading.Lock, max_batch: int):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._execute = execute
        self._lock = lock
        self.max_batch = max_batch
        self._queue_lock = threading.Lock()
        self._queue: list[_Entry] = []

    def submit(self, announcement: Announcement) -> Alert:
        """Rank one announcement through the next flush that reaches it.

        Returns the alert or raises the entry's :class:`GatewayFault` —
        exactly what a lone request would have produced.
        """
        entry = _Entry(announcement, current_deadline())
        with self._queue_lock:
            self._queue.append(entry)
        with self._lock:
            # Entries leave the queue only under ``lock``, and their flush
            # marks them done before releasing it: an entry not done here
            # is still queued, and first-in-first-out flushes reach it.
            while not entry.done:
                with self._queue_lock:
                    batch = self._queue[:self.max_batch]
                    del self._queue[:self.max_batch]
                self._flush(batch)
        if entry.fault is not None:
            raise entry.fault
        if entry.alert is None:  # the executor never answered this entry
            raise GatewayFault(
                E_INTERNAL, 500,
                "micro-batch flush abandoned this request; see server logs",
            )
        return entry.alert

    def _flush(self, batch: list[_Entry]) -> None:
        """Execute one batch, fanning an executor-level fault out to it."""
        try:
            self._execute(batch)
        except GatewayFault as fault:  # executor-level refusal: fan out
            for entry in batch:
                if entry.fault is None and entry.alert is None:
                    entry.fault = fault
        except Exception as exc:  # noqa: BLE001 - boundary: fault, not hang
            fault = internal_error(exc, tuple(
                entry.trace_id for entry in batch
                if entry.trace_id is not None
            ))
            for entry in batch:
                if entry.fault is None and entry.alert is None:
                    entry.fault = fault
        finally:
            for entry in batch:
                entry.done = True


__all__ = ["MicroBatcher"]
