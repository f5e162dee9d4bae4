"""No look-ahead: a ranking at time t reads nothing from t - 1 on.

The paper's market windows end one hour before the pump, its coin
statistics are read 72 h before it, and a pump history holds only the
pumps strictly before it.  Here a recording market sees every hour the
features query while random sentinels are ranked, with observations
folded at random times, some after the probe.  The bound is on the
queried hours: the simulator interpolates inside an hour and the file
backend floors, so the hour a query names is what both honour.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TargetCoinPredictor
from repro.serving import Announcement, PredictionService


class RecordingMarket:
    """The market queries the ranking path makes, with their latest hour.

    Any other attribute raises, so a feature that starts reading the
    market another way fails here until it is recorded too.
    """

    PASSED = ("universe", "trade_count_from_volume")

    def __init__(self, market):
        self._market = market
        self.hours: list[float] = []

    def __getattr__(self, name):
        if name in self.PASSED:
            return getattr(self._market, name)
        raise AttributeError(f"RecordingMarket does not record {name!r}")

    def log_close(self, coin_ids, hours):
        self.hours.append(float(np.max(hours)))
        return self._market.log_close(coin_ids, hours)

    def hourly_volume(self, coin_ids, hours):
        self.hours.append(float(np.max(hours)))
        return self._market.hourly_volume(coin_ids, hours)

    def window_volume_profile(self, coin_ids, pump_hour, max_hours):
        # The grid: offsets 1..max_hours before the pump.
        grid = pump_hour - np.arange(1, max_hours + 1, dtype=float)
        self.hours.append(float(grid.max()))
        return self._market.window_volume_profile(coin_ids, pump_hour,
                                                  max_hours)


@pytest.fixture(scope="module")
def recording(tiny_source, tiny_collection, tiny_predictor):
    """A predictor over the recording market and the windows it encodes."""
    source = copy.copy(tiny_source)
    source.market = RecordingMarket(tiny_source.market)
    predictor = TargetCoinPredictor(
        source, tiny_collection.dataset, tiny_predictor.model,
        scalers=(tiny_predictor._numeric_scaler, tiny_predictor._seq_scaler),
    )
    encoded: list[list] = []
    cache = predictor.assembler.sequence_cache
    encode = cache.encode

    def recording_encode(history, *args):
        history = list(history)
        encoded.append(history)
        return encode(history, *args)

    cache.encode = recording_encode
    return predictor, source.market, encoded


@pytest.fixture(scope="module")
def pump_times(tiny_collection):
    return sorted({e.time for e in tiny_collection.dataset.examples
                   if e.label == 1})


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_ranking_reads_only_the_past(recording, pump_times, data):
    predictor, market, encoded = recording
    channels = predictor.dataset.channel_ids[:3]
    service = PredictionService(
        predictor, bucket_hours=data.draw(st.sampled_from((0.0, 1.0))),
    )
    offsets = st.floats(-3.0, 3.0, allow_nan=False)
    for index in range(data.draw(st.integers(1, 4))):
        probe_time = data.draw(st.sampled_from(pump_times)) + \
            data.draw(offsets)
        channel = data.draw(st.sampled_from(channels))
        for fold in range(data.draw(st.integers(0, 3))):
            # Around the probe, so some folds land after it.
            service.observe(Announcement(
                channel_id=data.draw(st.sampled_from(channels)),
                coin_id=data.draw(
                    st.integers(0, predictor.source.coins.n_coins - 1)),
                exchange_id=0, pair="BTC",
                time=probe_time + data.draw(
                    st.floats(-48.0, 48.0, allow_nan=False)),
            ), event_id=f"obs-{index}-{fold}")
        market.hours.clear()
        encoded.clear()
        alert = service.rank_one(Announcement(channel, -1, 0, "BTC",
                                              probe_time))
        if alert.ranking.scores and index == 0:
            # A fresh service's first ranking misses its feature cache.
            assert market.hours
        assert all(hour <= probe_time - 1.0 for hour in market.hours), \
            (probe_time, max(market.hours))
        assert all(sample.time < probe_time
                   for history in encoded for sample in history)
