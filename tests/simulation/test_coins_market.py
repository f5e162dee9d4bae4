"""Tests for the coin universe and market simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import CoinUniverse, MarketSimulator, PumpProfile
from repro.utils import ReproConfig

CFG = ReproConfig.tiny()


@pytest.fixture(scope="module")
def universe():
    return CoinUniverse.generate(CFG)


@pytest.fixture(scope="module")
def market(universe):
    return MarketSimulator(universe)


class TestCoinUniverse:
    def test_deterministic(self):
        u1 = CoinUniverse.generate(CFG)
        u2 = CoinUniverse.generate(CFG)
        assert u1.symbols == u2.symbols
        assert np.allclose(u1.market_cap, u2.market_cap)

    def test_symbols_unique(self, universe):
        assert len(set(universe.symbols)) == universe.n_coins

    def test_majors_present(self, universe):
        assert universe.symbols[0] == "BTC"
        assert universe.symbols[1] == "ETH"

    def test_cap_decays_with_rank(self, universe):
        cap = universe.market_cap
        top = np.log(cap[: 20]).mean()
        bottom = np.log(cap[-20:]).mean()
        assert top > bottom

    def test_alexa_grows_with_rank(self, universe):
        alexa = universe.alexa_rank
        assert np.log(alexa[:20]).mean() < np.log(alexa[-20:]).mean()

    def test_all_stats_positive(self, universe):
        for arr in (universe.market_cap, universe.alexa_rank,
                    universe.reddit_subscribers, universe.twitter_followers,
                    universe.base_price):
            assert (arr > 0).all()

    def test_listings_grow_over_time(self, universe):
        early = universe.listed_coins(0, 10.0)
        late = universe.listed_coins(0, CFG.horizon_hours - 1.0)
        assert set(early) <= set(late)
        assert len(late) > len(early)

    def test_majors_listed_everywhere(self, universe):
        for e in range(CFG.n_exchanges):
            assert universe.is_listed(0, e, 0.0)

    def test_binance_lists_most(self, universe):
        h = CFG.horizon_hours - 1.0
        binance = len(universe.listed_coins(0, h))
        others = [len(universe.listed_coins(e, h)) for e in range(1, CFG.n_exchanges)]
        assert binance >= max(others)

    def test_social_score_standardized(self, universe):
        score = universe.social_score()
        assert abs(score.mean()) < 1e-9
        assert abs(score.std() - 1.0) < 1e-6


class TestMarketBase:
    def test_prices_positive_and_deterministic(self, market):
        ids = np.arange(5)
        hours = np.full(5, 123.0)
        p1 = market.close_price(ids, hours)
        p2 = market.close_price(ids, hours)
        assert (p1 > 0).all()
        assert np.allclose(p1, p2)

    def test_overlapping_windows_consistent(self, market):
        """The same (coin, hour) query gives identical answers regardless of
        which window asked — the property motivating the hash RNG."""
        a = market.close_price(np.full(10, 7), np.arange(100.0, 110.0))
        b = market.close_price(np.full(5, 7), np.arange(105.0, 110.0))
        assert np.array_equal(a[5:], b)

    def test_volume_positive(self, market):
        v = market.hourly_volume(np.arange(8), np.full(8, 500.0))
        assert (v > 0).all()

    def test_mood_is_continuous(self, market):
        hours = np.linspace(1000.0, 1048.0, 200)
        mood = market.market_mood(hours)
        assert np.abs(np.diff(mood)).max() < 0.5

    def test_ohlc_invariants(self, market):
        bars = market.ohlcv_hourly(4, start_hour=200, n_hours=48)
        opens, high, low, close, volume = bars.T
        assert (low <= np.minimum(opens, close) + 1e-12).all()
        assert (high >= np.maximum(opens, close) - 1e-12).all()
        assert (volume > 0).all()

    def test_ohlc_open_equals_previous_close(self, market):
        bars = market.ohlcv_hourly(4, start_hour=300, n_hours=10)
        assert np.allclose(bars[1:, 0], bars[:-1, 3])

    def test_invalid_bars_args(self, market):
        with pytest.raises(ValueError):
            market.ohlcv_hourly(0, 10, 0)


def _attach_one_event(universe, coin_id=25, time=5000.0, peak=np.log(2.5)):
    market = MarketSimulator(universe)
    profile = PumpProfile(
        time=time, accum_log=0.095, peak_log=peak, settle_log=-0.02,
        dump_tau=1.5, vip_times=(-5.0,), vip_sizes=(0.02,),
        volume_peak_log=3.5,
    )

    class _Event:
        pass

    event = _Event()
    event.coin_id = coin_id
    event.profile = profile
    market.attach_events([event])
    return market, profile


class TestPumpOverlays:
    def test_accumulation_lifts_price_before_pump(self, universe):
        market, _ = _attach_one_event(universe)
        clean = MarketSimulator(universe)
        lifted = market.close_price(np.array([25]), np.array([4999.0]))[0]
        base = clean.close_price(np.array([25]), np.array([4999.0]))[0]
        assert lifted > base * 1.05

    def test_pump_spike_at_peak(self, universe):
        market, profile = _attach_one_event(universe)
        pre = market.close_price(np.array([25]), np.array([4999.0]))[0]
        peak = market.minute_close(25, 5000.0, [2])[0]
        assert peak / pre > 1.8  # peak_log = log 2.5 on top of accumulation

    def test_dump_settles_at_or_below_start(self, universe):
        market, _ = _attach_one_event(universe)
        clean = MarketSimulator(universe)
        after = market.close_price(np.array([25]), np.array([5030.0]))[0]
        base = clean.close_price(np.array([25]), np.array([5030.0]))[0]
        assert after < base * 1.05

    def test_window_returns_peak_near_60_on_average(self, universe):
        """Figure 4(c) is an average over hundreds of events; per-event noise
        and seasonality can flip single comparisons, so we average too."""
        market = MarketSimulator(universe)
        coins = list(range(10, 40))
        times = [3000.0 + 177.0 * i for i in range(len(coins))]
        events = []
        for coin, time in zip(coins, times):
            profile = PumpProfile(
                time=time, accum_log=0.095, peak_log=np.log(2.0),
                settle_log=-0.02, dump_tau=1.5, vip_times=(-5.0,),
                vip_sizes=(0.02,), volume_peak_log=3.5,
            )

            class _Event:
                pass

            event = _Event()
            event.coin_id = coin
            event.profile = profile
            events.append(event)
        market.attach_events(events)
        mean_returns = {}
        for x in (1, 3, 6, 12, 24, 48, 60, 72):
            vals = [
                float(market.window_return(np.array([c]), t, x)[0])
                for c, t in zip(coins, times)
            ]
            mean_returns[x] = float(np.mean(vals))
        best = max(mean_returns, key=mean_returns.get)
        assert best in (48, 60)
        assert mean_returns[60] > 0.05
        # Figure 4(c): the 72h window reads slightly lower than the 60h one.
        assert mean_returns[72] < mean_returns[60]

    def test_returns_monotone_increasing_to_60(self, universe):
        market, _ = _attach_one_event(universe)
        r = [float(market.window_return(np.array([25]), 5000.0, x)[0])
             for x in (3, 12, 24, 48, 60)]
        assert r == sorted(r)

    def test_volume_onset_near_57h(self, universe):
        market, _ = _attach_one_event(universe)
        clean = MarketSimulator(universe)
        hours = np.arange(4900.0, 5000.0)
        ratio = market.hourly_volume(np.full(100, 25), hours) / clean.hourly_volume(
            np.full(100, 25), hours
        )
        # Well before the onset (>70h out) the overlay is exactly zero (the
        # two simulators share noise), and within the last 20 hours the
        # frequent-trading ramp clearly elevates volume.
        assert ratio[:30].mean() < 1.1
        assert ratio[-20:].mean() > 1.3

    def test_pump_volume_spike(self, universe):
        market, _ = _attach_one_event(universe)
        spike = market.hourly_volume(np.array([25]), np.array([5000.1]))[0]
        baseline = market.hourly_volume(np.array([25]), np.array([4800.0]))[0]
        assert spike / baseline > 8.0

    def test_unaffected_coin_untouched(self, universe):
        market, _ = _attach_one_event(universe, coin_id=25)
        clean = MarketSimulator(universe)
        a = market.close_price(np.array([30]), np.array([5000.0]))
        b = clean.close_price(np.array([30]), np.array([5000.0]))
        assert np.allclose(a, b)

    def test_random_windows_have_near_zero_return(self, universe):
        """Averaged over many coins *and* times, 60h returns center on zero.

        A single shared timestamp would leave the market-wide seasonal term
        in the mean, so sample (coin, hour) pairs independently.
        """
        market = MarketSimulator(universe)
        rng = np.random.default_rng(0)
        ids = rng.integers(3, universe.n_coins, size=400)
        hours = rng.uniform(1000, CFG.horizon_hours - 100, size=400)
        rets = np.array([
            float(market.window_return(np.array([c]), h, 60)[0])
            for c, h in zip(ids, hours)
        ])
        assert abs(float(np.mean(rets))) < 0.02


@settings(max_examples=20, deadline=None)
@given(
    coin=st.integers(min_value=0, max_value=CFG.n_coins - 1),
    hour=st.integers(min_value=100, max_value=CFG.horizon_hours - 100),
)
def test_property_prices_finite_everywhere(coin, hour):
    universe = CoinUniverse.generate(CFG)
    market = MarketSimulator(universe)
    p = market.close_price(np.array([coin]), np.array([float(hour)]))
    v = market.hourly_volume(np.array([coin]), np.array([float(hour)]))
    assert np.isfinite(p).all() and (p > 0).all()
    assert np.isfinite(v).all() and (v > 0).all()
