"""Property-based tests on market-simulator invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import CoinUniverse, MarketSimulator, PumpProfile
from repro.utils import ReproConfig

CFG = ReproConfig.tiny()
UNIVERSE = CoinUniverse.generate(CFG)
MARKET = MarketSimulator(UNIVERSE)


@settings(max_examples=30, deadline=None)
@given(
    coin=st.integers(min_value=0, max_value=CFG.n_coins - 1),
    start=st.integers(min_value=100, max_value=20_000),
    length=st.integers(min_value=2, max_value=60),
    offset=st.integers(min_value=0, max_value=30),
)
def test_property_window_consistency(coin, start, length, offset):
    """Any two overlapping queries agree exactly on shared hours."""
    hours_a = np.arange(start, start + length, dtype=float)
    hours_b = np.arange(start + offset, start + offset + length, dtype=float)
    a = MARKET.close_price(np.full(length, coin), hours_a)
    b = MARKET.close_price(np.full(length, coin), hours_b)
    shared_a = hours_a[np.isin(hours_a, hours_b)]
    if len(shared_a):
        idx_a = np.searchsorted(hours_a, shared_a)
        idx_b = np.searchsorted(hours_b, shared_a)
        assert np.array_equal(a[idx_a], b[idx_b])


@settings(max_examples=30, deadline=None)
@given(
    coin=st.integers(min_value=0, max_value=CFG.n_coins - 1),
    hour=st.integers(min_value=200, max_value=20_000),
)
def test_property_minute_and_hour_close_agree(coin, hour):
    """The minute series at offset 0 matches the hourly close closely."""
    hourly = MARKET.close_price(np.array([coin]), np.array([float(hour)]))[0]
    minute = MARKET.minute_close(coin, float(hour), [0])[0]
    assert abs(np.log(minute) - np.log(hourly)) < 0.02


@settings(max_examples=20, deadline=None)
@given(
    coin=st.integers(min_value=3, max_value=CFG.n_coins - 1),
    time=st.integers(min_value=1000, max_value=20_000),
    accum=st.floats(min_value=0.02, max_value=0.2),
)
def test_property_overlay_lift_scales_with_accumulation(coin, time, accum):
    """Stronger accumulation always lifts the pre-pump price more."""
    def lifted(accum_log):
        market = MarketSimulator(UNIVERSE)
        profile = PumpProfile(
            time=float(time), accum_log=accum_log, peak_log=np.log(2.0),
            settle_log=-0.02, dump_tau=1.0, vip_times=(), vip_sizes=(),
            volume_peak_log=3.0,
        )

        class _Event:
            pass

        event = _Event()
        event.coin_id = coin
        event.profile = profile
        market.attach_events([event])
        return market.log_close(np.array([coin]), np.array([time - 1.0]))[0]

    assert lifted(accum) > lifted(accum * 0.25)


@settings(max_examples=20, deadline=None)
@given(
    coin=st.integers(min_value=0, max_value=CFG.n_coins - 1),
    start=st.integers(min_value=100, max_value=20_000),
    n=st.integers(min_value=2, max_value=48),
)
def test_property_ohlc_bars_always_valid(coin, start, n):
    bars = MARKET.ohlcv_hourly(coin, start, n)
    opens, high, low, close, volume = bars.T
    assert (low <= np.minimum(opens, close) + 1e-12).all()
    assert (high >= np.maximum(opens, close) - 1e-12).all()
    assert (low > 0).all()
    assert (volume > 0).all()


class TestSeedIsolation:
    def test_different_seeds_give_different_markets(self):
        other = MarketSimulator(UNIVERSE, seed=CFG.seed + 1)
        hours = np.arange(1000.0, 1050.0)
        a = MARKET.close_price(np.full(50, 5), hours)
        b = other.close_price(np.full(50, 5), hours)
        assert not np.allclose(a, b)

    def test_same_seed_reproduces(self):
        again = MarketSimulator(CoinUniverse.generate(CFG))
        hours = np.arange(1000.0, 1050.0)
        assert np.array_equal(
            MARKET.close_price(np.full(50, 5), hours),
            again.close_price(np.full(50, 5), hours),
        )
