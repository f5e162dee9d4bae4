"""The content-keyed pump-history cache on the serving path.

Serving histories grow as announcements stream in, so the sequence cache
is keyed by the window it encodes, never by ``(channel, time)``: repeated
ranks of one window encode once, a grown window misses, and no cached
encoding ever outlives the history it came from.
"""

import numpy as np
import pytest

from repro.core import TargetCoinPredictor
from repro.features import SequenceFeatureCache
from repro.serving import Announcement, PredictionService


@pytest.fixture(scope="module")
def artifact(tiny_predictor):
    return tiny_predictor.to_artifact()


@pytest.fixture
def fresh_service(artifact, tiny_source, tiny_collection):
    """Factory for services that share no cache with any other."""

    def build() -> PredictionService:
        return PredictionService.from_artifact(artifact, tiny_source,
                                               tiny_collection.dataset)

    return build


@pytest.fixture(scope="module")
def releases(tiny_collection):
    """Test-period releases, in time order."""
    positives = sorted(
        (e for e in tiny_collection.dataset.examples
         if e.label == 1 and e.split == "test"),
        key=lambda e: e.time,
    )
    assert len(positives) >= 4
    return [Announcement(channel_id=e.channel_id, coin_id=e.coin_id,
                         exchange_id=0, pair="BTC", time=e.time)
            for e in positives]


def sentinel(announcement: Announcement, delay: float = 0.0) -> Announcement:
    """A rank request (released coin unknown) on the same channel."""
    return Announcement(announcement.channel_id, -1, announcement.exchange_id,
                        announcement.pair, announcement.time + delay)


def scores(alert):
    return [(s.coin_id, s.probability) for s in alert.ranking.scores]


def cache_of(service: PredictionService) -> SequenceFeatureCache:
    return service.predictor.assembler.sequence_cache


class TestServingHistoryCache:
    def test_repeated_ranks_encode_once(self, fresh_service, releases):
        service = fresh_service()
        cache = cache_of(service)
        request = sentinel(releases[0])
        first = service.rank_one(request)
        misses = cache.misses
        assert misses >= 1
        for _ in range(3):
            assert scores(service.rank_one(request)) == scores(first)
        assert cache.misses == misses
        assert cache.hits >= 3

    def test_grown_window_misses_and_matches_fresh_service(self, fresh_service,
                                                           releases):
        release = releases[0]
        probe = sentinel(release, delay=1.0)  # sees the release once folded
        service = fresh_service()
        cache = cache_of(service)
        before = service.rank_one(probe)
        misses = cache.misses
        assert service.observe(release, event_id="grow")
        after = service.rank_one(probe)
        assert cache.misses == misses + 1
        assert scores(after) != scores(before)
        reference = fresh_service()
        assert reference.observe(release, event_id="grow")
        assert scores(after) == scores(reference.rank_one(probe))

    def test_rankings_survive_swap(self, fresh_service, artifact,
                                   tiny_source, tiny_collection, releases):
        service = fresh_service()
        probes = [sentinel(a, delay=1.0) for a in releases[:4]]
        before_stream = [scores(service.rank_one(p)) for p in probes]
        service.rank_batch(releases[:4])  # folds the releases
        streamed = [scores(service.rank_one(p)) for p in probes]
        assert streamed != before_stream
        # What a cold feature cache pays for these probes.
        cold = fresh_service()
        for probe in probes:
            cold.rank_one(probe)
        # A hot-swap to a fresh predictor of the same artifact keeps the
        # streamed history and ranks as if it never happened, from cold
        # caches.
        history = service.history_snapshot()
        misses = service.stats.cache_misses
        service.swap(TargetCoinPredictor.from_artifact(
            artifact, tiny_source, tiny_collection.dataset
        ))
        assert service.history_snapshot() == history
        assert cache_of(service).misses == 0
        assert [scores(service.rank_one(p)) for p in probes] == streamed
        assert service.stats.cache_misses - misses == cold.stats.cache_misses
        assert cache_of(service).misses >= 1


class TestSequenceFeatureCacheLRU:
    def test_never_exceeds_max_entries(self, tiny_world, tiny_collection):
        dataset = tiny_collection.dataset
        cache = SequenceFeatureCache(tiny_world.market, dataset.history_before,
                                     length=5, max_entries=3)
        windows = []
        for samples in dataset.history.values():
            for end in range(len(samples) + 1):
                windows.append(samples[max(0, end - 5):end])
        assert len({tuple(w) for w in windows}) > 3
        for window in windows:
            cache.encode(window)
            assert len(cache._store) <= 3
        # The most recent window is resident; re-encoding it hits.
        hits = cache.hits
        cache.encode(windows[-1])
        assert cache.hits == hits + 1

    def test_equal_windows_share_an_entry(self, tiny_world, tiny_collection):
        dataset = tiny_collection.dataset
        cache = SequenceFeatureCache(tiny_world.market, dataset.history_before,
                                     length=5)
        samples = max(dataset.history.values(), key=len)
        first = cache.encode(samples)
        # Only the last ``length`` samples are read, so a longer history
        # ending in the same window is the same key.
        assert cache.encode(list(samples[-5:])) is first
        assert (cache.hits, cache.misses) == (1, 1)
        np.testing.assert_array_equal(first.mask, np.ones(5))
