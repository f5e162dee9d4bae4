"""repro.resilience primitives under fake clocks — pure, deterministic."""

import random
import threading

import pytest

from repro.resilience import (
    AdmissionQueue,
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExceeded,
    RetryPolicy,
    current_deadline,
    deadline_scope,
)


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestDeadline:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            Deadline(0.0)
        with pytest.raises(ValueError):
            Deadline(-1.0)

    def test_remaining_counts_down_and_clamps(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        clock.advance(1.5)
        assert deadline.remaining() == pytest.approx(0.5)
        assert not deadline.expired
        clock.advance(10.0)
        assert deadline.remaining() == 0.0
        assert deadline.expired

    def test_check_raises_once_expired(self):
        clock = FakeClock()
        deadline = Deadline.after_ms(250.0, clock=clock)
        deadline.check("scoring")
        clock.advance(0.3)
        with pytest.raises(DeadlineExceeded) as exc:
            deadline.check("scoring")
        assert "scoring" in str(exc.value)
        assert "250" in str(exc.value)

    def test_scope_installs_and_restores(self):
        assert current_deadline() is None
        deadline = Deadline(1.0, clock=FakeClock())
        with deadline_scope(deadline):
            assert current_deadline() is deadline
            with deadline_scope(None):   # None nests without complaint
                assert current_deadline() is None
            assert current_deadline() is deadline
        assert current_deadline() is None

    def test_scope_is_per_thread(self):
        seen = []
        deadline = Deadline(1.0, clock=FakeClock())

        def worker():
            seen.append(current_deadline())

        with deadline_scope(deadline):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        # A fresh thread starts outside any scope — a request's deadline
        # never leaks into another handler thread.
        assert seen == [None]


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-0.1)

    def test_exponential_growth_without_jitter(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=10.0,
                             jitter=0.0)
        assert [policy.delay(n) for n in (1, 2, 3, 4)] == \
            [0.1, 0.2, 0.4, 0.8]

    def test_max_delay_caps_the_curve(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=10.0, max_delay=3.0,
                             jitter=0.0)
        assert policy.delay(5) == 3.0

    def test_jitter_is_full_range_downward(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=1.0, jitter=0.5)
        rng = random.Random(7)
        draws = [policy.delay(1, rng) for _ in range(200)]
        assert all(0.5 <= d <= 1.0 for d in draws)
        assert len(set(draws)) > 100   # actually randomized

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)


class TestCircuitBreaker:
    def make(self, clock, threshold=3, reset_after=10.0):
        return CircuitBreaker(failure_threshold=threshold,
                              reset_after=reset_after, clock=clock)

    def test_opens_after_consecutive_failures(self):
        breaker = self.make(FakeClock())
        for _ in range(3):
            breaker.allow()
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        with pytest.raises(CircuitOpenError) as exc:
            breaker.allow()
        assert exc.value.retry_after == pytest.approx(10.0)

    def test_success_resets_the_streak(self):
        breaker = self.make(FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.allow()   # still admitting

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        breaker.allow()   # the probe slips through
        with pytest.raises(CircuitOpenError):
            breaker.allow()   # concurrent caller during the probe: refused

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.consecutive_failures == 0

    def test_probe_failure_reopens_and_restarts_the_clock(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        clock.advance(9.9)   # not yet: the clock restarted at the re-open
        with pytest.raises(CircuitOpenError):
            breaker.allow()
        clock.advance(0.2)
        breaker.allow()      # next probe window


class TestAdmissionQueue:
    def test_bounded_admission_sheds_over_the_limit(self):
        queue = AdmissionQueue(limit=2)
        assert queue.try_enter() and queue.try_enter()
        assert queue.try_enter() is False
        assert queue.shed_total == 1
        queue.leave()
        assert queue.try_enter() is True
        assert queue.inflight == 2

    def test_unbounded_still_counts_for_drain(self):
        queue = AdmissionQueue(limit=None)
        assert queue.try_enter() is True
        assert queue.inflight == 1
        assert queue.drain(timeout=0.01) is False
        queue.leave()
        assert queue.drain(timeout=0.01) is True

    def test_leave_without_enter_is_a_bug(self):
        with pytest.raises(RuntimeError):
            AdmissionQueue().leave()

    def test_drain_wakes_when_the_last_request_leaves(self):
        queue = AdmissionQueue(limit=4)
        queue.try_enter()
        drained = threading.Event()

        def waiter():
            if queue.drain(timeout=5.0):
                drained.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        queue.leave()
        thread.join(timeout=5.0)
        assert drained.is_set()
