"""Cross-connection micro-batching for ``/v1/rank`` (worker-internal).

A ThreadingHTTPServer hands every connection its own handler thread, so
concurrent ``/v1/rank`` requests reach the app as independent single
rankings — each paying a full forward pass even though the compiled
plans score a batch of 16 for barely more than a batch of 1.  The
:class:`MicroBatcher` coalesces them: the first thread to arrive becomes
the *leader*, holds the batch open for a short window (the gateway uses
2 ms) while other handler threads append their announcements as
*followers*, then runs one gated ``PredictionService.rank_batch`` for
the lot and demultiplexes alerts (or per-entry faults) back to the
waiting threads.  Every ``/v1/rank`` takes this route.

Semantics are bit-for-bit those of solo ranking:

* gating (coin-universe, known-channel, candidate and deadline checks)
  is applied **per entry** — one bad announcement faults its own request
  and never poisons batch-mates;
* scoring is history-pure and the fold order is unchanged (the service
  folds after scoring, exactly as a solo ``rank_batch([a])`` would), so
  the alert for an announcement is identical whether it was coalesced
  or not;
* a request that arrives while no other rank is in flight skips the
  window entirely — sequential replay traffic pays zero added latency.

The leader publishes results and sets every entry's event in a
``finally``: follower threads can never be left hanging, whatever the
batch execution raises.
"""

from __future__ import annotations

import threading

from repro.gateway.schema import E_INTERNAL, GatewayFault
from repro.resilience import current_deadline
from repro.serving.online import Announcement
from repro.serving.service import Alert

#: Upper bound on a follower's wait for its leader.  Only reachable if
#: the executor thread dies mid-flush (a bug, not an operating mode);
#: better a typed 500 than a handler thread pinned forever.
_FOLLOWER_TIMEOUT_S = 120.0


class _Entry:
    """One enqueued rank request and its rendezvous with the leader."""

    __slots__ = ("announcement", "deadline", "done", "alert", "fault")

    def __init__(self, announcement: Announcement, deadline):
        self.announcement = announcement
        self.deadline = deadline
        self.done = threading.Event()
        self.alert: Alert | None = None
        self.fault: GatewayFault | None = None


class MicroBatcher:
    """Leader/follower batcher over an ``execute(entries)`` callback.

    ``execute`` (the app's gated scoring section) must fill each entry's
    ``alert`` or ``fault``; entries it leaves untouched fault with a 500
    so a buggy executor degrades loudly instead of hanging clients.
    """

    def __init__(self, execute, window_s: float, max_batch: int):
        if window_s <= 0:
            raise ValueError("window_s must be > 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._execute = execute
        self.window_s = window_s
        self.max_batch = max_batch
        self._lock = threading.Lock()
        # The open batch (None while no leader is collecting) and the
        # event its leader sleeps on; followers set it when the batch
        # fills so a full window is never waited out pointlessly.
        self._pending: list[_Entry] | None = None
        self._full: threading.Event | None = None
        # Rank requests currently inside submit(); a lone request sees
        # inflight == 1 and skips the window (no batch-mates can exist).
        self._inflight = 0
        # Lifetime counters the app exposes as metrics.
        self.flushes = 0
        self.coalesced_requests = 0

    def submit(self, announcement: Announcement) -> Alert:
        """Rank one announcement through the next coalesced flush.

        Returns the alert or raises the entry's :class:`GatewayFault` —
        exactly what a lone request would have produced.
        """
        entry = _Entry(announcement, current_deadline())
        with self._lock:
            self._inflight += 1
            leading = self._pending is None
            if leading:
                self._pending = [entry]
                self._full = threading.Event()
                wake = self._full
                alone = self._inflight == 1
            else:
                self._pending.append(entry)
                if len(self._pending) >= self.max_batch:
                    self._full.set()
        try:
            if leading:
                self._lead(wake, alone)
            else:
                entry.done.wait(_FOLLOWER_TIMEOUT_S)
        finally:
            with self._lock:
                self._inflight -= 1
        if entry.fault is not None:
            raise entry.fault
        if entry.alert is None:  # leader died or follower timed out
            raise GatewayFault(
                E_INTERNAL, 500,
                "micro-batch flush abandoned this request; see server logs",
            )
        return entry.alert

    def _lead(self, wake: threading.Event, alone: bool) -> None:
        """Hold the window open, then flush whatever accumulated."""
        if not alone:
            wake.wait(self.window_s)
        with self._lock:
            batch, self._pending = self._pending, None
            self._full = None
            self.flushes += 1
            self.coalesced_requests += len(batch)
        try:
            self._execute(batch)
        except GatewayFault as fault:  # executor-level refusal: fan out
            for entry in batch:
                if entry.fault is None and entry.alert is None:
                    entry.fault = fault
        except Exception as exc:  # noqa: BLE001 - boundary: fault, not hang
            fault = GatewayFault(
                E_INTERNAL, 500,
                f"internal error ({type(exc).__name__}); see server logs",
            )
            for entry in batch:
                if entry.fault is None and entry.alert is None:
                    entry.fault = fault
        finally:
            for entry in batch:
                entry.done.set()


__all__ = ["MicroBatcher"]
