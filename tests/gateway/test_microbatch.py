"""Cross-connection micro-batching.

Three contracts:

* **parity** — an alert produced through a coalesced flush is
  bit-for-bit the alert in-process ``PredictionService.rank_one``
  produces for the same announcement, concurrent or sequential, under
  any interleaving of the requests;
* **per-entry gating** — one bad announcement (unknown channel, coin
  outside the universe, expired deadline) faults its own request with
  the same stable code a lone request gets, and never poisons its
  batch-mates;
* **coalescing mechanics** — a lone request flushes alone, requests
  queued while a flush holds the scoring lock share the next flush, no
  flush exceeds ``max_batch``, every request is executed exactly once,
  and a crashing executor faults (never hangs) every waiter.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway import GatewayApp, MicroBatcher
from repro.gateway.microbatch import _Entry
from repro.gateway.schema import (
    E_DEADLINE_EXCEEDED,
    E_INTERNAL,
    E_UNKNOWN_CHANNEL,
    GatewayFault,
    RankRequestV1,
)
from repro.resilience import Deadline
from repro.serving import Announcement, PredictionService
from tests.gateway.conftest import make_announcements, service_from


def exact(alert):
    return tuple((s.coin_id, s.probability) for s in alert.ranking.scores)


def wait_until(predicate, timeout: float = 30.0) -> None:
    """Poll ``predicate`` until it holds; fail after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def queued(batcher: MicroBatcher) -> int:
    with batcher._queue_lock:
        return len(batcher._queue)


def run_concurrently(targets) -> None:
    """Run each callable on its own thread; all must finish in time."""
    threads = [threading.Thread(target=target) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert not any(thread.is_alive() for thread in threads)


def answer(batch) -> None:
    for entry in batch:
        entry.alert = ("alert", entry.announcement)


def faults_of_one_held_flush(execute) -> list[GatewayFault]:
    """Queue three requests behind a held scoring lock, so one flush
    runs ``execute`` for all of them; return the fault each one got."""
    lock = threading.Lock()
    batcher = MicroBatcher(execute, lock, max_batch=8)
    faults: list = [None] * 3

    def request(index):
        def run():
            try:
                batcher.submit(f"a{index}")
            except GatewayFault as fault:
                faults[index] = fault
        return run

    threads = [threading.Thread(target=request(i)) for i in range(3)]
    with lock:
        for thread in threads:
            thread.start()
        wait_until(lambda: queued(batcher) == 3)
    for thread in threads:
        thread.join(timeout=30.0)
    assert not any(thread.is_alive() for thread in threads)
    return faults


class TestMicroBatcherMechanics:
    """White-box: the batcher over a scripted executor."""

    def test_rejects_degenerate_configuration(self):
        with pytest.raises(ValueError):
            MicroBatcher(answer, threading.Lock(), 0)

    def test_lone_request_flushes_alone(self):
        batches: list[list] = []

        def execute(batch):
            batches.append([entry.announcement for entry in batch])
            answer(batch)

        batcher = MicroBatcher(execute, threading.Lock(), max_batch=8)
        assert batcher.submit("a0") == ("alert", "a0")
        assert batches == [["a0"]]
        assert queued(batcher) == 0

    def test_concurrent_requests_coalesce_into_one_flush(self):
        release = threading.Event()
        batches: list[list] = []

        def execute(batch):
            batches.append([entry.announcement for entry in batch])
            if len(batches) == 1:
                # Hold the first flush, and so the lock, until the next
                # two requests are queued behind it.
                release.wait(30.0)
            answer(batch)

        batcher = MicroBatcher(execute, threading.Lock(), max_batch=2)
        results: dict[str, tuple] = {}

        def run(tag):
            results[tag] = batcher.submit(tag)

        threads = [threading.Thread(target=run, args=(f"a{i}",))
                   for i in range(3)]
        threads[0].start()
        wait_until(lambda: batches)  # a0's flush is executing (and held)
        threads[1].start()
        threads[2].start()
        wait_until(lambda: queued(batcher) == 2)
        release.set()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)

        assert [len(batch) for batch in batches] == [1, 2]
        assert sorted(batches[1]) == ["a1", "a2"]
        assert results == {f"a{i}": ("alert", f"a{i}") for i in range(3)}

    def test_crashing_executor_faults_instead_of_hanging(self):
        def explode(batch):
            raise RuntimeError("boom")

        faults = faults_of_one_held_flush(explode)
        assert {(f.code, f.status) for f in faults} == {(E_INTERNAL, 500)}

    def test_executor_refusal_fans_out_to_every_waiter(self):
        refusal = GatewayFault(E_UNKNOWN_CHANNEL, 422, "refused")

        def refuse(batch):
            raise refusal

        assert faults_of_one_held_flush(refuse) == [refusal] * 3

    def test_executor_abandoning_an_entry_faults_it(self):
        batcher = MicroBatcher(lambda batch: None, threading.Lock(),
                               max_batch=8)
        with pytest.raises(GatewayFault) as excinfo:
            batcher.submit("a0")
        assert excinfo.value.status == 500
        assert "abandoned" in excinfo.value.message


class TestRandomInterleavings:
    """Any start jitter and flush hold: each request gets its own answer
    from exactly one flush of at most ``max_batch`` entries."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_each_request_answered_once_by_a_bounded_flush(self, data):
        n = data.draw(st.integers(1, 12), label="requests")
        max_batch = data.draw(st.integers(1, 4), label="max_batch")
        delays = st.lists(st.floats(0.0, 0.003), min_size=n, max_size=n)
        jitter = data.draw(delays, label="start jitter")
        holds = data.draw(delays, label="flush holds")
        lock = threading.Lock()
        batches: list[list] = []

        def execute(batch):
            assert lock.locked()
            batches.append([entry.announcement for entry in batch])
            time.sleep(holds[len(batches) - 1])
            answer(batch)

        batcher = MicroBatcher(execute, lock, max_batch)
        results: list = [None] * n
        barrier = threading.Barrier(n)

        def request(index):
            def run():
                barrier.wait()
                time.sleep(jitter[index])
                results[index] = batcher.submit(index)
            return run

        # A short switch interval interleaves the threads' bytecode finely.
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_concurrently([request(i) for i in range(n)])
        finally:
            sys.setswitchinterval(switch)
        assert results == [("alert", i) for i in range(n)]
        assert sorted(i for batch in batches for i in batch) \
            == list(range(n))
        assert all(1 <= len(batch) <= max_batch for batch in batches)
        assert queued(batcher) == 0


@pytest.fixture(scope="module")
def solo_service(tiny_registry, tiny_source,
                 tiny_collection) -> PredictionService:
    """The reference: in-process scoring, one announcement at a time."""
    return service_from(tiny_registry, "dnn", tiny_source, tiny_collection)


@pytest.fixture(scope="module")
def batched_app(tiny_registry, tiny_source, tiny_collection) -> GatewayApp:
    return GatewayApp(
        service_from(tiny_registry, "dnn", tiny_source, tiny_collection))


@pytest.fixture(scope="module")
def sentinels(solo_service, test_positives) -> list:
    """Up to eight ``coin_id=-1`` announcements and their solo rankings.

    Sentinels fold no history, so their rankings are order-independent.
    """
    announcements = make_announcements(test_positives, 8, coin_known=False)
    return [(a, solo_service.rank_one(a).ranking) for a in announcements]


def requests_total(app: GatewayApp) -> float:
    return app.telemetry.registry.get(
        "gateway_microbatch_requests_total").value


class TestCoalescedParity:
    """The gateway's batched ranks against in-process solo scoring,
    same artifact."""

    def test_concurrent_coalesced_ranks_match_solo_bit_for_bit(
            self, solo_service, batched_app, test_positives):
        # coin_id=-1 announcements (the realistic rank input) fold no
        # history, so rankings are order-independent and comparable.
        announcements = make_announcements(test_positives, 3,
                                           coin_known=False)
        expected = [exact(solo_service.rank_one(a)) for a in announcements]

        before = requests_total(batched_app)
        results: list = [None] * len(announcements)
        barrier = threading.Barrier(len(announcements))

        def request(index):
            def run():
                barrier.wait()
                results[index] = batched_app.rank(
                    RankRequestV1(announcements[index])).alert
            return run

        run_concurrently([request(i) for i in range(len(announcements))])

        assert [exact(alert) for alert in results] == expected
        # Every rank went through the batcher, however it coalesced.
        assert requests_total(batched_app) - before == len(announcements)

        # Sequential traffic through the same batcher agrees too (each
        # lone request flushes alone).
        again = [exact(batched_app.rank(RankRequestV1(a)).alert)
                 for a in announcements]
        assert again == expected

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_any_concurrent_subset_matches_solo(self, batched_app,
                                                sentinels, data):
        picks = data.draw(st.lists(st.integers(0, len(sentinels) - 1),
                                   min_size=1, max_size=len(sentinels),
                                   unique=True), label="sentinels")
        before = requests_total(batched_app)
        results: list = [None] * len(picks)
        barrier = threading.Barrier(len(picks))

        def request(slot):
            def run():
                barrier.wait()
                announcement = sentinels[picks[slot]][0]
                results[slot] = batched_app.rank(
                    RankRequestV1(announcement)).alert
            return run

        run_concurrently([request(slot) for slot in range(len(picks))])

        for pick, alert in zip(picks, results):
            announcement, ranking = sentinels[pick]
            assert alert.announcement == announcement
            assert alert.ranking == ranking  # bit for bit
        assert requests_total(batched_app) - before == len(picks)

    def test_bad_entries_fault_alone_good_entries_still_score(
            self, batched_app, test_positives):
        good = make_announcements(test_positives, 2, coin_known=False)
        universe = len(
            batched_app.service.predictor.source.coins.symbols)
        bad_channel = Announcement(channel_id=10 ** 6, coin_id=-1,
                                   exchange_id=0, pair="BTC",
                                   time=good[0].time)
        bad_coin = Announcement(channel_id=good[0].channel_id,
                                coin_id=universe + 3, exchange_id=0,
                                pair="BTC", time=good[0].time)
        entries = [
            _Entry(good[0], None),
            _Entry(bad_channel, None),
            _Entry(bad_coin, None),
            _Entry(good[1], None),
        ]
        with batched_app._score_lock:
            batched_app._execute_coalesced(entries)

        assert entries[1].fault is not None
        assert entries[1].fault.code == E_UNKNOWN_CHANNEL
        assert entries[1].fault.status == 422
        assert entries[2].fault is not None
        assert entries[2].fault.status == 400
        assert "coin" in entries[2].fault.message
        # Batch-mates scored, bit-identical to a lone request.
        for entry, announcement in ((entries[0], good[0]),
                                    (entries[3], good[1])):
            assert entry.fault is None
            assert exact(entry.alert) == exact(
                batched_app.rank(RankRequestV1(announcement)).alert)

    def test_expired_deadline_faults_only_its_own_entry(
            self, batched_app, test_positives):
        good = make_announcements(test_positives, 2, coin_known=False)
        expired = Deadline(1e-6)
        time.sleep(0.01)
        assert expired.expired
        entries = [_Entry(good[0], None), _Entry(good[1], expired)]
        with batched_app._score_lock:
            batched_app._execute_coalesced(entries)

        assert entries[1].fault is not None
        assert entries[1].fault.code == E_DEADLINE_EXCEEDED
        assert entries[1].fault.status == 503
        assert entries[0].fault is None
        assert entries[0].alert is not None

    def test_coalesced_ranks_over_real_http(self, gateway, solo_service,
                                            batched_app, test_positives):
        _server, client = gateway(batched_app)
        announcements = make_announcements(test_positives, 3,
                                           coin_known=False)
        expected = [exact(solo_service.rank_one(a)) for a in announcements]

        results: list = [None] * len(announcements)
        barrier = threading.Barrier(len(announcements))

        def request(index):
            def run():
                barrier.wait()
                results[index] = client.rank(announcements[index])
            return run

        run_concurrently([request(i) for i in range(len(announcements))])
        assert [exact(alert) for alert in results] == expected
