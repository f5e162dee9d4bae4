"""A late observation folds into its place in the channel's history.

The history window and the sequence encoder read a channel's pumps in
time order (position 0 is the newest), so the order observations are
reported in must not matter: the same observations folded in time order
and in any permutation give the same histories and the same rankings.
The SNN reads the sequence; a DNN would rank the same either way.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import Announcement, PredictionService


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_fold_order_does_not_matter(tiny_predictors, data):
    predictor = tiny_predictors["snn"]
    channels = predictor.dataset.channel_ids[:2]
    start = predictor.dataset.split_hours[1]
    offsets = data.draw(st.lists(st.integers(-400, 400), min_size=2,
                                 max_size=8, unique=True))
    observations = [
        Announcement(
            channel_id=data.draw(st.sampled_from(channels)),
            coin_id=data.draw(
                st.integers(0, predictor.source.coins.n_coins - 1)),
            exchange_id=0, pair="BTC", time=start + offset + 0.25,
        )
        for offset in offsets
    ]
    in_order = sorted(observations, key=lambda a: a.time)
    shuffled = data.draw(st.permutations(observations))
    services = []
    for stream in (in_order, shuffled):
        service = PredictionService(predictor, bucket_hours=0.0)
        for announcement in stream:
            service.observe(announcement, event_id=announcement.event_id())
        services.append(service)
    ordered, permuted = services
    probe = in_order[-1].time + 1.0
    for channel in channels:
        history = ordered.history(channel)
        assert history == permuted.history(channel)
        assert [s.time for s in history] == sorted(s.time for s in history)
        first, second = (
            service.rank_one(Announcement(channel, -1, 0, "BTC", probe))
            for service in services
        )
        assert len(first.ranking.coin_ids) > 0
        assert (first.ranking.coin_ids.tobytes()
                == second.ranking.coin_ids.tobytes())
        assert (first.ranking.probabilities.tobytes()
                == second.ranking.probabilities.tobytes())
