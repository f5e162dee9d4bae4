"""repro.resilience — fault-tolerance primitives for the serving stack.

Four small, dependency-free building blocks (ISSUE 7):

* :class:`Deadline` / :func:`deadline_scope` — per-request wall-clock
  budgets, threaded through a contextvar so queue/lock layers can refuse
  work nobody is waiting for any more (gateway: 503 ``deadline_exceeded``);
* :class:`RetryPolicy` — exponential backoff with downward jitter; the
  :class:`~repro.gateway.GatewayClient` retries connection errors and
  retryable 5xx/429 responses under one of these;
* :class:`CircuitBreaker` — stop hammering a peer that is demonstrably
  down; refused calls fail locally in microseconds instead of burning a
  timeout each;
* :class:`AdmissionQueue` — bounded in-flight admission (gateway: 429
  ``overloaded``) plus the drain barrier graceful shutdown waits on.

All of it is plain stdlib and fully deterministic under injected clocks
and RNGs — see ``tests/resilience/test_primitives.py``.
"""

from repro.resilience.admission import AdmissionQueue
from repro.resilience.breaker import CircuitBreaker, CircuitOpenError
from repro.resilience.deadline import (
    Deadline,
    DeadlineExceeded,
    current_deadline,
    deadline_scope,
)
from repro.resilience.retry import (
    DEFAULT_RETRY_POLICY,
    NO_RETRY,
    RetryPolicy,
)

__all__ = [
    "AdmissionQueue",
    "CircuitBreaker",
    "CircuitOpenError",
    "Deadline",
    "DeadlineExceeded",
    "DEFAULT_RETRY_POLICY",
    "NO_RETRY",
    "RetryPolicy",
    "current_deadline",
    "deadline_scope",
]
