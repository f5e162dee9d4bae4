"""End-to-end stream replay on a tiny world (the acceptance scenario)."""

import pytest

from repro.serving import CollectingSink, ServiceStats, replay_test_period


@pytest.fixture(scope="module")
def replay(tiny_world, tiny_collection, tiny_predictor):
    sink = CollectingSink()
    result = replay_test_period(
        tiny_world, tiny_collection, tiny_predictor, sinks=(sink,),
        bucket_hours=0.0,  # exact feature times: directly comparable reruns
    )
    return result, sink


class TestReplayTestPeriod:
    def test_emits_one_alert_per_known_announcement(self, replay):
        result, sink = replay
        stats = result.stats
        assert stats.announcements > 0
        assert len(result.alerts) == \
            stats.announcements - stats.unknown_channels
        assert stats.alerts == len(result.alerts)
        assert sink.alerts == result.alerts

    def test_alerts_cover_dataset_test_positives(self, replay,
                                                 tiny_collection):
        result, _ = replay
        served = {(a.announcement.channel_id, round(a.announcement.time, 6))
                  for a in result.alerts}
        positives = [
            e for e in tiny_collection.dataset.examples
            if e.label == 1 and e.split == "test"
        ]
        covered = [
            e for e in positives
            if (e.channel_id, round(e.time, 6)) in served
        ]
        assert len(covered) >= len(positives) // 2

    def test_feature_cache_hit_rate_nonzero(self, replay):
        result, _ = replay
        assert result.stats.cache_hit_rate() > 0.0

    def test_rankings_are_sorted_and_complete(self, replay, tiny_predictor):
        result, _ = replay
        for alert in result.alerts:
            probs = [s.probability for s in alert.ranking.scores]
            assert probs == sorted(probs, reverse=True)
            expected = tiny_predictor.candidates(
                alert.announcement.exchange_id, alert.announcement.time
            )
            assert len(probs) == len(expected)

    def test_replay_is_deterministic_with_or_without_cache(
            self, tiny_world, tiny_collection, tiny_predictor, replay):
        """Caching must not change a single emitted probability."""
        baseline, _ = replay
        rerun = replay_test_period(
            tiny_world, tiny_collection, tiny_predictor,
            bucket_hours=0.0, cache_entries=0,
        )
        assert rerun.stats.cache_hits == 0
        assert len(rerun.alerts) == len(baseline.alerts)
        for ours, theirs in zip(rerun.alerts, baseline.alerts):
            assert ours.announcement == theirs.announcement
            assert [(s.coin_id, s.probability) for s in ours.ranking.scores] \
                == [(s.coin_id, s.probability)
                    for s in theirs.ranking.scores]

    def test_stats_summary_shape(self, replay):
        result, _ = replay
        summary = result.stats.summary()
        assert summary["messages"] > 0
        assert summary["throughput_msg_per_s"] > 0
        assert summary["latency_p99_ms"] >= summary["latency_p50_ms"] > 0
        assert 0.0 < summary["cache_hit_rate"] <= 1.0

    def test_micro_batching_happened(self, replay):
        """Coordinated same-instant releases must share forward passes."""
        result, _ = replay
        assert result.stats.forward_passes < result.stats.alerts


class TestServiceStatsUnit:
    def test_percentiles_empty(self):
        stats = ServiceStats()
        assert stats.latency_ms(99) == 0.0
        assert stats.throughput() == 0.0
        assert stats.cache_hit_rate() == 0.0

    def test_mean_batch_size(self):
        stats = ServiceStats()
        stats.forward_passes = 2
        stats.alerts = 5
        assert stats.mean_batch_size() == 2.5


class _AlwaysPumpDetector:
    """Stub: every message is a pump message."""

    def is_pump(self, message):
        return True


class _OneShotSessionizer:
    """Stub: every message immediately becomes its own announcement, at
    ``times[message_id]`` when given, else at the message's own time."""

    def __init__(self, times=None):
        self.times = times or {}

    def add(self, message):
        from repro.serving.online import Announcement

        return None, Announcement(
            channel_id=message.channel_id, coin_id=0, exchange_id=0,
            pair="BTC", time=self.times.get(message.message_id, message.time),
        )

    def flush(self):
        return []


class _BatchRecordingService:
    """Stub: records the size of every micro-batch it is asked to score
    (and refuses every announcement)."""

    def __init__(self):
        self.batch_sizes = []

    def rank_batch(self, announcements):
        self.batch_sizes.append(len(announcements))
        return [None] * len(announcements)


class TestTimeEpsilonBoundary:
    """Regression: the micro-batching boundary is *strictly greater than*
    ``TIME_EPSILON`` — two announcements exactly epsilon apart share one
    forward pass; just beyond it they must not.
    """

    @staticmethod
    def _run(times):
        from repro.serving.engine import StreamEngine
        from repro.serving.stream import MessageStream
        from repro.types import Message

        service = _BatchRecordingService()
        engine = StreamEngine(
            _AlwaysPumpDetector(), _OneShotSessionizer(), service.rank_batch,
        )
        messages = [
            Message(message_id=i, channel_id=100 + i, time=t,
                    text="Coin: XYZ", kind="release")
            for i, t in enumerate(times)
        ]
        engine.run(MessageStream.replay(messages))
        return service.batch_sizes

    def test_exactly_epsilon_apart_share_a_batch(self):
        from repro.serving.engine import TIME_EPSILON

        base = 100.0
        assert self._run([base, base + TIME_EPSILON]) == [2]

    def test_just_beyond_epsilon_splits_the_batch(self):
        from repro.serving.engine import TIME_EPSILON

        base = 100.0
        assert self._run([base, base + 2.5 * TIME_EPSILON]) == [1, 1]

    def test_chain_of_epsilon_steps_batches_from_the_last_arrival(self):
        """The boundary compares against the *latest* pending announcement,
        so a chain of epsilon-spaced arrivals keeps extending one batch."""
        from repro.serving.engine import TIME_EPSILON

        base = 100.0
        times = [base, base + TIME_EPSILON, base + 2 * TIME_EPSILON]
        assert self._run(times) == [3]
