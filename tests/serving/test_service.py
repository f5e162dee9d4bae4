"""Batched ranking and the prediction service's caches."""

import numpy as np
import pytest

from repro.core import RankRequest, TargetCoinPredictor, make_model
from repro.features import FeatureAssembler
from repro.serving import Announcement, PredictionService, ServiceStats


@pytest.fixture(scope="module")
def test_positives(tiny_collection):
    positives = [
        e for e in tiny_collection.dataset.examples
        if e.label == 1 and e.split == "test"
    ]
    assert len(positives) >= 3
    return positives


@pytest.fixture(scope="module", params=("gru", "lstm", "tcn"))
def gemm_predictor(request, tiny_source, tiny_collection, tiny_predictor):
    """A predictor whose sequence encoder runs BLAS matrix products.

    Untrained weights are enough for a parity check; the scalers are
    borrowed so no fitting pass runs.
    """
    model = make_model(request.param, tiny_predictor.model.config, seed=0)
    return TargetCoinPredictor(
        tiny_source, tiny_collection.dataset, model,
        FeatureAssembler(tiny_source, tiny_collection.dataset),
        scalers=(tiny_predictor._numeric_scaler, tiny_predictor._seq_scaler),
    )


def _announcements(positives, n):
    return [
        Announcement(channel_id=e.channel_id, coin_id=e.coin_id,
                     exchange_id=0, pair="BTC", time=e.time)
        for e in positives[:n]
    ]


def _probabilities(ranking):
    ordered = sorted(ranking.scores, key=lambda s: s.coin_id)
    return np.array([s.probability for s in ordered])


class TestRankMany:
    def test_batched_scores_match_unbatched_rank(self, tiny_predictor,
                                                 test_positives):
        requests = [
            RankRequest(e.channel_id, 0, e.time) for e in test_positives[:3]
        ]
        batched = tiny_predictor.rank_many(requests)
        for request, ranking in zip(requests, batched):
            single = tiny_predictor.rank(
                request.channel_id, request.exchange_id, request.pump_time
            )
            np.testing.assert_allclose(
                _probabilities(ranking), _probabilities(single), atol=1e-8
            )
            assert [s.coin_id for s in ranking.scores] == \
                [s.coin_id for s in single.scores]

    def test_lone_candidate_scores_like_micro_batch(self, gemm_predictor,
                                                    test_positives):
        """One request with one candidate is one row and one history; both
        are padded, so it scores exactly as inside a micro-batch."""
        for i, example in enumerate(test_positives):
            lone = RankRequest(example.channel_id, 0, example.time,
                               candidates=np.array([example.coin_id]))
            other = test_positives[(i + 1) % len(test_positives)]
            [solo] = gemm_predictor.rank_many([lone])
            _, batched = gemm_predictor.rank_many(
                [RankRequest(other.channel_id, 0, other.time), lone])
            assert solo.scores == batched.scores

    def test_empty_request_list(self, tiny_predictor):
        assert tiny_predictor.rank_many([]) == []

    def test_unknown_channel_raises(self, tiny_predictor, test_positives):
        with pytest.raises(KeyError, match="unseen"):
            tiny_predictor.rank_many(
                [RankRequest(-12345, 0, test_positives[0].time)]
            )


class TestPredictionService:
    def test_identical_scores_with_and_without_cache(self, tiny_predictor,
                                                     test_positives):
        announcements = _announcements(test_positives, 3)
        cached = PredictionService(tiny_predictor, bucket_hours=1.0,
                                   cache_entries=512)
        uncached = PredictionService(tiny_predictor, bucket_hours=1.0,
                                     cache_entries=0)
        # Serve each announcement twice so the cached service actually hits.
        for service in (cached, uncached):
            service.rank_batch(announcements)
        alerts_cached = cached.rank_batch(announcements)
        alerts_uncached = uncached.rank_batch(announcements)
        for ours, theirs in zip(alerts_cached, alerts_uncached):
            np.testing.assert_allclose(
                _probabilities(ours.ranking), _probabilities(theirs.ranking),
                atol=1e-8,
            )
        assert cached.stats.cache_hits > 0
        assert uncached.stats.cache_hits == 0
        assert uncached.stats.cache_misses > 0

    def test_hit_and_miss_counts(self, tiny_predictor, test_positives):
        stats = ServiceStats()
        service = PredictionService(tiny_predictor, bucket_hours=1.0,
                                    stats=stats)
        announcement = _announcements(test_positives, 1)[0]
        service.rank_one(announcement)
        assert (stats.cache_hits, stats.cache_misses) == (0, 1)
        service.rank_one(announcement)
        assert (stats.cache_hits, stats.cache_misses) == (1, 1)

    def test_observe_extends_history_strictly_before(self, tiny_predictor,
                                                     test_positives):
        service = PredictionService(tiny_predictor)
        announcement = _announcements(test_positives, 1)[0]
        before = len(service.history(announcement.channel_id))
        service.rank_one(announcement)
        history = service.history(announcement.channel_id)
        assert len(history) == before + 1
        assert history[-1].time == announcement.time
        # The announcement never sees itself in its own sequence features.
        past = service._history_before(
            announcement.channel_id, announcement.time
        )
        assert all(s.time < announcement.time for s in past)

    def test_history_seeded_up_to_cutoff_only(self, tiny_predictor):
        cutoff = tiny_predictor.dataset.split_hours[1]
        service = PredictionService(tiny_predictor)
        assert service.history_cutoff == cutoff
        for channel_id in list(tiny_predictor.dataset.history)[:5]:
            assert all(s.time < cutoff for s in service.history(channel_id))

    def test_has_candidates_guard(self, tiny_predictor, test_positives,
                                  monkeypatch):
        announcement = _announcements(test_positives, 1)[0]
        service = PredictionService(tiny_predictor)
        assert service.has_candidates(announcement)
        fresh = PredictionService(tiny_predictor)
        monkeypatch.setattr(
            tiny_predictor, "candidates",
            lambda exchange_id, pump_time: np.array([], dtype=np.int64),
        )
        assert not fresh.has_candidates(announcement)
        # The earlier lookup is memoized: one resolution per announcement.
        assert service.has_candidates(announcement)

    def test_micro_batch_is_one_forward_pass(self, tiny_predictor,
                                             test_positives):
        stats = ServiceStats()
        service = PredictionService(tiny_predictor, stats=stats)
        alerts = service.rank_batch(_announcements(test_positives, 3))
        assert len(alerts) == 3
        assert stats.forward_passes == 1
        assert stats.alerts == 3
        assert stats.scored_rows == sum(len(a.ranking.scores) for a in alerts)
        assert all(a.latency_ms > 0 for a in alerts)


class TestEmptyInputs:
    """Regressions (ISSUE 5): empty batches and empty candidate sets must
    produce empty results without ever invoking the model."""

    def test_rank_batch_empty_list(self, tiny_predictor):
        stats = ServiceStats()
        service = PredictionService(tiny_predictor, stats=stats)
        assert service.rank_batch([]) == []
        assert stats.forward_passes == 0
        assert stats.alerts == 0

    def test_rank_many_zero_candidates_returns_empty_ranking(
            self, tiny_predictor, test_positives):
        example = test_positives[0]
        request = RankRequest(example.channel_id, 0, example.time,
                              candidates=np.array([], dtype=np.int64))
        [ranking] = tiny_predictor.rank_many([request])
        assert ranking.scores == []
        assert ranking.channel_id == example.channel_id
        assert ranking.rank_of(example.coin_id) == -1

    def test_rank_many_mixed_empty_and_scored(self, tiny_predictor,
                                              test_positives):
        examples = test_positives[:2]
        requests = [
            RankRequest(examples[0].channel_id, 0, examples[0].time,
                        candidates=np.array([], dtype=np.int64)),
            RankRequest(examples[1].channel_id, 0, examples[1].time),
        ]
        empty, scored = tiny_predictor.rank_many(requests)
        assert empty.scores == []
        solo = tiny_predictor.rank(examples[1].channel_id, 0,
                                   examples[1].time)
        assert [(s.coin_id, s.probability) for s in scored.scores] == \
            [(s.coin_id, s.probability) for s in solo.scores]

    def test_zero_candidate_batch_never_hits_the_model(self, tiny_predictor,
                                                       test_positives,
                                                       monkeypatch):
        stats = ServiceStats()
        service = PredictionService(tiny_predictor, stats=stats)
        monkeypatch.setattr(
            tiny_predictor, "candidates",
            lambda exchange_id, pump_time: np.array([], dtype=np.int64),
        )

        def exploding_forward(*args, **kwargs):
            raise AssertionError("model must not run for empty candidates")

        monkeypatch.setattr(tiny_predictor.model, "__call__",
                            exploding_forward, raising=False)
        [alert] = service.rank_batch(_announcements(test_positives, 1))
        assert alert.ranking.scores == []
        assert stats.forward_passes == 0
        assert stats.scored_rows == 0


class TestObserveSentinel:
    def test_observe_ignores_unknown_coin(self, tiny_predictor,
                                          test_positives):
        service = PredictionService(tiny_predictor)
        base = _announcements(test_positives, 1)[0]
        sentinel = Announcement(channel_id=base.channel_id, coin_id=-1,
                                exchange_id=0, pair="BTC", time=base.time)
        before = len(service.history(base.channel_id))
        service.observe(sentinel)
        assert len(service.history(base.channel_id)) == before
        service.observe(base)
        assert len(service.history(base.channel_id)) == before + 1


class TestSwap:
    def test_swap_keeps_the_stream_and_starts_a_cold_cache(self,
                                                           tiny_predictor,
                                                           test_positives):
        announcement = _announcements(test_positives, 1)[0]
        probe = Announcement(channel_id=announcement.channel_id, coin_id=-1,
                             exchange_id=0, pair="BTC",
                             time=announcement.time + 1.37)
        witness = PredictionService(tiny_predictor, bucket_hours=0.0,
                                    cache_entries=8)
        service = PredictionService(tiny_predictor, bucket_hours=0.0,
                                    cache_entries=8)
        for each in (witness, service):
            assert each.observe(announcement, event_id="obs-1")
        expected = witness.rank_one(probe).ranking
        service.rank_one(probe)  # warms the feature cache
        stats = service.stats
        snapshot = service.history_snapshot()

        service.swap(TargetCoinPredictor.from_artifact(
            tiny_predictor.to_artifact(), tiny_predictor.source,
            tiny_predictor.dataset,
        ))

        assert service.predictor is not tiny_predictor
        assert (service.bucket_hours, service.cache_entries) == (0.0, 8)
        assert service.stats is stats
        assert service.history_snapshot() == snapshot
        # The dedup window survived the swap.
        assert not service.observe(announcement, event_id="obs-1")
        misses = stats.cache_misses
        assert service.rank_one(probe).ranking == expected
        assert stats.cache_misses == misses + 1
        # The snapshot is a copy: later folds do not reach it.
        assert service.observe(Announcement(
            channel_id=announcement.channel_id, coin_id=announcement.coin_id,
            exchange_id=0, pair="BTC", time=announcement.time + 1.0,
        ))
        assert len(snapshot[announcement.channel_id]) == \
            len(service.history(announcement.channel_id)) - 1
