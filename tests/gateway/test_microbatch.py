"""Cross-connection micro-batching (PR 9).

Three contracts:

* **parity** — an alert produced through a coalesced flush is
  bit-for-bit the alert in-process ``PredictionService.rank_one``
  produces for the same announcement, concurrent or sequential;
* **per-entry gating** — one bad announcement (unknown channel, coin
  outside the universe, expired deadline) faults its own request with
  the same stable code a lone request gets, and never poisons its
  batch-mates;
* **coalescing mechanics** — concurrent submits share one flush, a lone
  submit skips the window, a full batch releases the window early, and
  a crashing executor faults (never hangs) every waiter.
"""

from __future__ import annotations

import threading
import time

import pytest

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


class TestMicroBatcherMechanics:
    """White-box: the batcher over a scripted executor."""

    @staticmethod
    def _answer(batch):
        for entry in batch:
            entry.alert = ("alert", entry.announcement)

    def test_rejects_degenerate_configuration(self):
        with pytest.raises(ValueError):
            MicroBatcher(self._answer, 0.0, 4)
        with pytest.raises(ValueError):
            MicroBatcher(self._answer, 0.002, 0)

    def test_lone_request_skips_the_window(self):
        # A 30s window would make this test time out if the lone-request
        # fast path ever regressed into waiting.
        batcher = MicroBatcher(self._answer, window_s=30.0, max_batch=8)
        started = time.monotonic()
        assert batcher.submit("a0") == ("alert", "a0")
        assert time.monotonic() - started < 5.0
        assert batcher.flushes == 1
        assert batcher.coalesced_requests == 1

    def test_concurrent_requests_coalesce_into_one_flush(self):
        release = threading.Event()
        batches: list[list] = []

        def execute(batch):
            batches.append([entry.announcement for entry in batch])
            if len(batches) == 1:
                # Hold the first flush open so the next two submits are
                # provably concurrent with an in-flight rank.
                release.wait(30.0)
            self._answer(batch)

        # max_batch=2: the second concurrent submit must release the 30s
        # window immediately, or the join below would hit its timeout.
        batcher = MicroBatcher(execute, window_s=30.0, max_batch=2)
        results: dict[str, tuple] = {}

        def run(tag):
            results[tag] = batcher.submit(tag)

        threads = [threading.Thread(target=run, args=(f"a{i}",))
                   for i in range(3)]
        threads[0].start()
        deadline = time.monotonic() + 30.0
        while not batches:  # a0's flush is now executing (and blocked)
            assert time.monotonic() < deadline
            time.sleep(0.005)
        threads[1].start()
        threads[2].start()
        for thread in threads[1:]:
            thread.join(timeout=30.0)
        release.set()
        threads[0].join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)

        assert batcher.flushes == 2
        assert batcher.coalesced_requests == 3
        assert sorted(len(batch) for batch in batches) == [1, 2]
        assert results == {f"a{i}": ("alert", f"a{i}") for i in range(3)}

    def test_crashing_executor_faults_instead_of_hanging(self):
        def explode(batch):
            raise RuntimeError("boom")

        batcher = MicroBatcher(explode, window_s=30.0, max_batch=8)
        with pytest.raises(GatewayFault) as excinfo:
            batcher.submit("a0")
        assert excinfo.value.code == E_INTERNAL
        assert excinfo.value.status == 500

    def test_executor_abandoning_an_entry_faults_it(self):
        batcher = MicroBatcher(lambda batch: None, window_s=30.0,
                               max_batch=8)
        with pytest.raises(GatewayFault) as excinfo:
            batcher.submit("a0")
        assert excinfo.value.status == 500
        assert "abandoned" in excinfo.value.message


@pytest.fixture(scope="module")
def solo_service(gw_registry, gw_source, gw_collection) -> PredictionService:
    """The reference: in-process scoring, one announcement at a time."""
    return service_from(gw_registry, "dnn", gw_source, gw_collection)


@pytest.fixture(scope="module")
def batched_app(gw_registry, gw_source, gw_collection) -> GatewayApp:
    return GatewayApp(
        service_from(gw_registry, "dnn", gw_source, gw_collection))


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

        before = batched_app._batcher.coalesced_requests
        results: list = [None] * len(announcements)
        barrier = threading.Barrier(len(announcements))

        def run(index):
            barrier.wait()
            results[index] = batched_app.rank(
                RankRequestV1(announcements[index])).alert

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(announcements))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not any(thread.is_alive() for thread in threads)

        assert [exact(alert) for alert in results] == expected
        # Every rank went through the batcher, however it coalesced.
        assert batched_app._batcher.coalesced_requests - before \
            == len(announcements)

        # Sequential traffic through the same batcher agrees too (the
        # lone-request fast path).
        again = [exact(batched_app.rank(RankRequestV1(a)).alert)
                 for a in announcements]
        assert again == expected

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

        def run(index):
            barrier.wait()
            results[index] = client.rank(announcements[index])

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(announcements))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not any(thread.is_alive() for thread in threads)
        assert [exact(alert) for alert in results] == expected
