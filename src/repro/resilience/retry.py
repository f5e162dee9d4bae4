"""Exponential backoff with jitter, as a policy object.

:class:`RetryPolicy` is pure arithmetic — attempt number in, sleep
duration out — so it can be unit-tested exhaustively.  The
:class:`~repro.gateway.GatewayClient` runs its one retry loop under it,
for connection errors and retryable 5xx/429 responses.

Jitter is *full-range downward*: the sleep is drawn uniformly from
``[delay * (1 - jitter), delay]``.  A fleet of clients retrying a
recovering server therefore de-synchronizes instead of stampeding it on
exact power-of-two boundaries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """How many attempts to make and how long to sleep between them.

    ``max_attempts`` counts the *first* try: ``max_attempts=1`` disables
    retries entirely, ``max_attempts=3`` allows two retries.
    """

    max_attempts: int = 3
    base_delay: float = 0.05     # seconds before the first retry
    multiplier: float = 2.0      # exponential growth per retry
    max_delay: float = 2.0       # cap on any single sleep
    jitter: float = 0.5          # fraction of the delay randomized away

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay(self, attempt: int, rng: random.Random | None = None) -> float:
        """Sleep before retry number ``attempt`` (1-based: the sleep after
        the first failed try is ``delay(1)``)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        raw = min(self.max_delay,
                  self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter == 0.0 or raw == 0.0:
            return raw
        draw = (rng or random).random()
        return raw * (1.0 - self.jitter * draw)


#: The client SDK's default: three attempts, 50ms → 100ms backoff.
DEFAULT_RETRY_POLICY = RetryPolicy()

#: Retries disabled (one attempt, no sleeps) — for probes and tests.
NO_RETRY = RetryPolicy(max_attempts=1)


__all__ = [
    "DEFAULT_RETRY_POLICY",
    "NO_RETRY",
    "RetryPolicy",
]
