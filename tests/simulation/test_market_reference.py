"""The simulator's noise draws against their full-key reference formulas.

``MarketSimulator`` hashes each coin's stream prefix once and extends it
per element, takes octave/burst interpolation edges from a per-block
table when the query is dense in blocks, and evaluates the pump overlays
per (coin, profile) row in one branch per pair.  The reference below
draws every value the direct way, ``hash_normal(seed, stream, coin, ...,
hour or block)`` on fully broadcast arrays, and evaluates the pump
overlays with its own copy of their formulas: every (element, profile)
pair of the flat broadcast query, every branch through ``np.where`` and
``np.add.at`` accumulation in registration order.  The two must agree bit
for bit on every query shape: grids, flat per-element queries, scalars and
empty queries, in a plain world, a world with pump events and a phase
world.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import (
    CoinUniverse,
    MarketSimulator,
    SyntheticWorld,
    generate_phase_world,
)
from repro.simulation.market import (
    _OCTAVE_PERIODS,
    _OCTAVE_SIGMA,
    _OCTAVE_STREAM,
    _PRICE_STREAM,
    _VOLUME_BURST_AMPLITUDE,
    _VOLUME_BURST_PERIODS,
    _VOLUME_BURST_STREAM,
    _VOLUME_STREAM,
    MOOD_PRICE_COEFF,
    MOOD_PRICE_LAG,
    PUMP_PEAK_MINUTES,
)
from repro.utils import ReproConfig, hash_normal

CFG = ReproConfig.tiny()
#: A multiple of every octave and burst period (4..4096 and 6, 24, 96).
BOUNDARY = 3 * 4096.0


class _PumpOverlays:
    """The pump-event overlays, flat pair by flat pair.

    Built from the market's registered :class:`PumpProfile` objects, not
    from its overlay tables: each query element is paired with every
    profile of its coin in registration order, every term is evaluated on
    every pair and selected with ``np.where``, and the pairs accumulate
    into the element with ``np.add.at``.
    """

    def __init__(self, market: MarketSimulator):
        n = market.universe.n_coins
        rows = [(c, p) for c in sorted(market._profiles)
                for p in market._profiles[c]]
        self.count = np.bincount(np.array([c for c, _ in rows], dtype=np.int64),
                                 minlength=n)
        self.start = np.cumsum(self.count) - self.count

        def column(field):
            return np.array([getattr(p, field) for _, p in rows], dtype=float)

        self.time = column("time")
        self.accum = column("accum_log")
        self.peak = column("peak_log")
        self.settle = column("settle_log")
        self.tau = column("dump_tau")
        self.volpeak = column("volume_peak_log")
        self.vip_count = np.array([len(p.vip_times) for _, p in rows],
                                  dtype=np.int64)
        self.vip_start = np.cumsum(self.vip_count) - self.vip_count
        self.vip_time = np.array([t for _, p in rows for t in p.vip_times])
        self.vip_size = np.array([v for _, p in rows for v in p.vip_sizes])

    @staticmethod
    def _ranges(starts, counts):
        return np.concatenate(
            [np.arange(s, s + k) for s, k in zip(starts, counts)]
            + [np.zeros(0, dtype=np.int64)]
        ).astype(np.int64)

    def pairs(self, coin_ids, hours):
        counts = self.count[coin_ids]
        sel = np.flatnonzero(counts)
        rep = np.repeat(sel, counts[sel])
        prof = self._ranges(self.start[coin_ids[sel]], counts[sel])
        return sel, rep, prof, hours[rep] - self.time[prof]

    def vip_sum(self, prof, d, width, scale):
        vip = np.zeros_like(d)
        vcount = self.vip_count[prof]
        vrep = np.repeat(np.arange(len(prof)), vcount)
        vidx = self._ranges(self.vip_start[prof], vcount)
        dv = d[vrep]
        bump = np.where(
            dv < 0,
            self.vip_size[vidx] * scale
            * np.exp(-0.5 * ((dv - self.vip_time[vidx]) / width) ** 2),
            0.0,
        )
        np.add.at(vip, vrep, bump)
        return vip

    def add_price(self, out, coin_ids, hours):
        sel, rep, prof, d = self.pairs(coin_ids, hours)
        pre = np.where((d >= -76) & (d < -61), 0.012, 0.0)
        ramp_frac = np.clip((d + 61.0) / 60.0, 0.0, 1.0)
        accum = np.where(d < 0, self.accum[prof] * ramp_frac, 0.0)
        vip = self.vip_sum(prof, d, width=0.8, scale=1.0)
        peak_at = PUMP_PEAK_MINUTES / 60.0
        rise = np.where(
            (d >= 0) & (d < peak_at),
            self.accum[prof]
            + (self.peak[prof] - self.accum[prof]) * (d / peak_at),
            0.0,
        )
        decay = np.where(
            d >= peak_at,
            self.settle[prof]
            + (self.peak[prof] - self.settle[prof])
            * np.exp(-np.maximum(d - peak_at, 0.0) / self.tau[prof]),
            0.0,
        )
        overlay = np.zeros_like(out)
        np.add.at(overlay, rep, pre + accum + vip + rise + decay)
        out[sel] += overlay[sel]

    def add_volume(self, out, coin_ids, hours):
        sel, rep, prof, d = self.pairs(coin_ids, hours)
        ramp = np.where(
            (d >= -57) & (d < 0), 0.55 * np.clip((d + 57.0) / 57.0, 0, 1), 0.0
        )
        vip = self.vip_sum(prof, d, width=0.6, scale=28.0)
        spike = np.where(
            d >= 0, self.volpeak[prof] * np.exp(-np.maximum(d, 0) / 0.45), 0.0,
        )
        aftermath = np.where(d >= 0, 0.8 * np.exp(-np.maximum(d, 0) / 24.0),
                             0.0)
        overlay = np.zeros_like(out)
        np.add.at(overlay, rep, ramp + vip + spike + aftermath)
        out[sel] += overlay[sel]


class _Reference:
    """Every draw hashes its full key over broadcast arrays.

    Pump overlays come from :class:`_PumpOverlays`.  The phase overlays
    are the market's own code, with the reference passed as their
    ``market``, so the squeeze's price noise and the up-hour returns are
    reference values too.
    """

    def __init__(self, market: MarketSimulator):
        self.market = market
        self.overlays = _PumpOverlays(market)

    def _interpolated(self, stream, j, coin_ids, hours, period):
        seed = self.market.seed
        block = np.floor(hours / period).astype(np.int64)
        frac = hours / period - block
        w = frac * frac * (3.0 - 2.0 * frac)
        left = hash_normal(seed, stream, coin_ids, j, block)
        right = hash_normal(seed, stream, coin_ids, j, block + 1)
        return (1.0 - w) * left + w * right

    def price_noise(self, coin_ids, hours):
        m = self.market
        hour_idx = np.floor(hours).astype(np.int64)
        hourly = m._sigma[coin_ids] * hash_normal(
            m.seed, _PRICE_STREAM, coin_ids, hour_idx
        )
        octaves = np.zeros(np.broadcast(coin_ids, hours).shape)
        for j, period in enumerate(_OCTAVE_PERIODS):
            amplitude = _OCTAVE_SIGMA * np.sqrt(period)
            octaves = octaves + amplitude * self._interpolated(
                _OCTAVE_STREAM, j, coin_ids, hours, period
            )
        return hourly, octaves * m._octave_scale[coin_ids]

    @staticmethod
    def _broadcast(coin_ids, hours):
        return np.broadcast_arrays(np.asarray(coin_ids, dtype=np.int64),
                                   np.asarray(hours, dtype=float))

    def log_close(self, coin_ids, hours):
        m = self.market
        coin_ids, hours = self._broadcast(coin_ids, hours)
        noise, octaves = self.price_noise(coin_ids, hours)
        out = (np.log(m.universe.base_price[coin_ids])
               + m._seasonal(coin_ids, hours) + noise + octaves)
        btc = coin_ids == 0
        if btc.any():
            out = out + np.where(
                btc, MOOD_PRICE_COEFF * m.market_mood(hours - MOOD_PRICE_LAG),
                0.0,
            )
        flat = np.ascontiguousarray(out).reshape(-1)
        if m._profiles:
            self.overlays.add_price(flat, coin_ids.reshape(-1),
                                    hours.reshape(-1))
        if m._phases is not None:
            m._phases.add_price_overlay(self, flat, coin_ids.reshape(-1),
                                        hours.reshape(-1))
        return flat.reshape(out.shape)

    def hourly_volume(self, coin_ids, hours):
        m = self.market
        coin_ids, hours = self._broadcast(coin_ids, hours)
        hour_idx = np.floor(hours).astype(np.int64)
        noise = m._volume_sigma[coin_ids] * hash_normal(
            m.seed, _VOLUME_STREAM, coin_ids, hour_idx
        )
        bursts = np.zeros(coin_ids.shape)
        for j, period in enumerate(_VOLUME_BURST_PERIODS):
            bursts = bursts + _VOLUME_BURST_AMPLITUDE * self._interpolated(
                _VOLUME_BURST_STREAM, j, coin_ids, hours, period
            )
        tod = 0.25 * np.sin(2 * np.pi * (hours % 24) / 24.0 - 1.2)
        out = m._volume_base[coin_ids] + tod + noise + bursts
        flat = np.ascontiguousarray(out).reshape(-1)
        if m._profiles:
            self.overlays.add_volume(flat, coin_ids.reshape(-1),
                                     hours.reshape(-1))
        if m._phases is not None:
            m._phases.add_volume_overlay(self, flat, coin_ids.reshape(-1),
                                         hours.reshape(-1))
        return np.exp(flat.reshape(out.shape))

    def window_volume_profile(self, coin_ids, pump_hour, max_hours):
        coin_ids = np.asarray(coin_ids, dtype=np.int64)
        grid = pump_hour - np.arange(1, max_hours + 1, dtype=float)
        return self.hourly_volume(
            coin_ids[:, None],
            np.broadcast_to(grid, (len(coin_ids), max_hours)),
        )


def _plain():
    return MarketSimulator(CoinUniverse.generate(CFG))


def _events():
    return SyntheticWorld.generate(CFG).market


def _phases():
    return generate_phase_world(CFG).market


@pytest.fixture(scope="module", params=[_plain, _events, _phases],
                ids=["plain", "events", "phases"])
def market(request):
    return request.param()


def _profile_counts(market):
    counts = np.zeros(market.universe.n_coins, dtype=np.int64)
    if market._profiles:
        counts += market._overlays().count
    if market._phases is not None:
        counts += market._phases.count
    return counts


def _coin_set(market):
    """Coin 0 (the mood term) and one coin per profile count 0..9."""
    counts = _profile_counts(market)
    picks = [0, 1]
    for k in range(10):
        hit = np.flatnonzero(counts == k)
        if len(hit):
            picks.append(int(hit[len(hit) // 2]))
    return np.unique(np.asarray(picks, dtype=np.int64))


def _pump_times(market, coins):
    """Pump hours of the picked coins, or fixed hours in a plain world."""
    times = [p.time for c in coins for p in market.profiles_for(c)]
    if market._phases is not None:
        ix = market._phases
        for c in coins:
            times.extend(ix.time[ix.start[c]:ix.start[c] + ix.count[c]])
    return sorted(set(times))[:6] or [5000.0, 9000.5]


def _same(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def _grid_hours(market, coins):
    rows = [BOUNDARY - np.arange(0.0, 73.0),          # exact block edges
            BOUNDARY + 0.5 - np.arange(0.0, 9.0) * 8,  # fractional hours
            BOUNDARY + np.array([0.25, 0.75, 6.0, 24.0, 96.0, 4096.0])]
    for t in _pump_times(market, coins):
        rows.append(t + 1.0 - np.arange(0.0, 80.0))
        rows.append(np.array([t - 1.0] + [t - x - 1.0
                                          for x in (1, 3, 6, 12, 24, 48, 60, 72)]))
    return rows


class TestGridQueries:
    def test_log_close_grids(self, market):
        ref = _Reference(market)
        coins = _coin_set(market)
        for hours in _grid_hours(market, coins):
            _same(market.log_close(coins[:, None], hours[None, :]),
                  ref.log_close(coins[:, None], hours[None, :]))

    def test_hourly_volume_grids(self, market):
        ref = _Reference(market)
        coins = _coin_set(market)
        for hours in _grid_hours(market, coins):
            _same(market.hourly_volume(coins[:, None], hours[None, :]),
                  ref.hourly_volume(coins[:, None], hours[None, :]))

    def test_window_volume_profile(self, market):
        ref = _Reference(market)
        coins = _coin_set(market)
        pumps = [BOUNDARY, BOUNDARY + 72.0, BOUNDARY + 0.5]
        pumps += [t + 2.0 for t in _pump_times(market, coins)]
        for pump in pumps:
            for span in (1, 24, 72):
                _same(market.window_volume_profile(coins, pump, span),
                      ref.window_volume_profile(coins, pump, span))

    def test_every_listed_candidate(self, market):
        """A full candidate list, as the feature-cache miss path asks."""
        ref = _Reference(market)
        time = _pump_times(market, _coin_set(market))[-1] + 0.5
        coins = market.universe.listed_coins(0, time)
        _same(market.window_volume_profile(coins, time, 72),
              ref.window_volume_profile(coins, time, 72))
        hours = np.array([time - 1.0, time - 2.0, time - 49.0, time - 73.0])
        _same(market.log_close(coins[:, None], hours[None, :]),
              ref.log_close(coins[:, None], hours[None, :]))


class TestFlatAndDegenerateQueries:
    def test_flat_aligned_queries_span_the_horizon(self, market):
        ref = _Reference(market)
        coins = _coin_set(market)
        rng = np.random.default_rng(17)
        for size in (1, 2, 20, 300):
            c = rng.choice(coins, size)
            h = rng.uniform(0.0, CFG.horizon_hours, size)
            h[::3] = np.floor(h[::3])
            _same(market.log_close(c, h), ref.log_close(c, h))
            _same(market.hourly_volume(c, h), ref.hourly_volume(c, h))

    def test_one_block_flat_query(self, market):
        """All times in one block: the table holds exactly two edges."""
        ref = _Reference(market)
        c = _coin_set(market)
        h = np.full(len(c), BOUNDARY + 1.5)
        _same(market.log_close(c, h), ref.log_close(c, h))
        _same(market.hourly_volume(c, h), ref.hourly_volume(c, h))

    def test_scalar_and_row_queries(self, market):
        ref = _Reference(market)
        _same(market.log_close(0, 500.5), ref.log_close(0, 500.5))
        _same(market.hourly_volume(5, 500.5), ref.hourly_volume(5, 500.5))
        hours = np.arange(400.0, 472.0)
        _same(market.log_close(7, hours), ref.log_close(7, hours))
        _same(market.hourly_volume(7, hours), ref.hourly_volume(7, hours))

    def test_empty_queries(self, market):
        ref = _Reference(market)
        empty = np.zeros(0, dtype=np.int64)
        _same(market.log_close(empty, np.zeros(0)),
              ref.log_close(empty, np.zeros(0)))
        _same(market.hourly_volume(empty, np.zeros(0)),
              ref.hourly_volume(empty, np.zeros(0)))
        hours = (BOUNDARY - np.arange(72.0))[None, :]
        _same(market.log_close(empty[:, None], hours),
              ref.log_close(empty[:, None], hours))
        _same(market.hourly_volume(empty[:, None], hours),
              ref.hourly_volume(empty[:, None], hours))
        _same(market.window_volume_profile(empty, BOUNDARY, 72),
              ref.window_volume_profile(empty, BOUNDARY, 72))
        assert market.window_volume_profile(empty, BOUNDARY, 72).shape == (0, 72)


def _busiest(market, k=4):
    """The ``k`` coins holding the most profiles (pump and phase)."""
    counts = _profile_counts(market)
    return np.sort(np.argsort(-counts, kind="stable")[:k]).astype(np.int64)


def _branch_hours(times):
    """Hours around each pump: before it, inside its two peak minutes, at
    and just after the peak, and 400+ hours on, where the volume spike
    ``exp(-d / 0.45)`` has underflowed to exactly zero."""
    offsets = np.array([-80.0, -61.0, -30.0, -0.5, 0.0, 0.25 / 60, 1.5 / 60,
                        2.0 / 60, 3.0 / 60, 1.0, 30.0, 401.0, 2000.0])
    return (np.asarray(times, dtype=float)[:, None] + offsets).reshape(-1)


class TestOverlayBranches:
    def test_grids_over_the_busiest_coins(self, market):
        ref = _Reference(market)
        coins = _busiest(market)
        hours = _branch_hours(_pump_times(market, coins))[None, :]
        _same(market.log_close(coins[:, None], hours),
              ref.log_close(coins[:, None], hours))
        _same(market.hourly_volume(coins[:, None], hours),
              ref.hourly_volume(coins[:, None], hours))

    def test_flat_queries_over_the_busiest_coins(self, market):
        ref = _Reference(market)
        coins, hours = [], []
        for coin in _busiest(market):
            own = _branch_hours(_pump_times(market, [coin]))
            coins.append(np.full(len(own), coin))
            hours.append(own)
        coins, hours = np.concatenate(coins), np.concatenate(hours)
        _same(market.log_close(coins, hours), ref.log_close(coins, hours))
        _same(market.hourly_volume(coins, hours),
              ref.hourly_volume(coins, hours))

    def test_window_profiles_straddling_pumps(self, market):
        ref = _Reference(market)
        coins = _busiest(market)
        for t in _pump_times(market, coins):
            for pump in (t, t + 1.01, t + 36.5, t + 73.0, t + 500.0):
                _same(market.window_volume_profile(coins, pump, 72),
                      ref.window_volume_profile(coins, pump, 72))


@pytest.fixture(scope="module")
def event_market():
    return _events()


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    width=st.integers(min_value=1, max_value=100),
    start=st.floats(min_value=100.0, max_value=CFG.horizon_hours - 200.0),
    step=st.sampled_from([0.25, 0.5, 1.0, 3.0]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_random_grids_match_reference(event_market, n, width, start,
                                               step, seed):
    ref = _Reference(event_market)
    coins = np.random.default_rng(seed).choice(event_market.universe.n_coins, n)
    hours = start + step * np.arange(width)
    _same(event_market.log_close(coins[:, None], hours[None, :]),
          ref.log_close(coins[:, None], hours[None, :]))
    _same(event_market.hourly_volume(coins[:, None], hours[None, :]),
          ref.hourly_volume(coins[:, None], hours[None, :]))


def test_vip_sum_matches_unmasked_form(event_market):
    """Pairs at or after their pump add exact zeros; only d < 0 bumps count."""
    ix = event_market._overlays()
    coins = np.flatnonzero(ix.count)
    offsets = np.arange(-60.0, 6.0, 0.5)
    hours = (ix.time[ix.start[coins]][:, None] + offsets[None, :]).reshape(-1)
    _, _, prof, d = ix.pairs(np.repeat(coins, len(offsets)), hours[:, None])
    d = d.reshape(-1)
    assert (d < 0).any() and (d >= 0).any()
    for width, scale in ((0.8, 1.0), (0.6, 28.0)):
        expected = np.zeros_like(d)
        vcount = ix.vip_count[prof]
        vsel = np.flatnonzero(vcount)
        vc = vcount[vsel]
        vrep = np.repeat(vsel, vc)
        vidx = np.concatenate([np.arange(s, s + k) for s, k in
                               zip(ix.vip_start[prof[vsel]], vc)])
        dv = d[vrep]
        bump = np.where(
            dv < 0,
            ix.vip_size[vidx] * scale
            * np.exp(-0.5 * ((dv - ix.vip_time[vidx]) / width) ** 2),
            0.0,
        )
        np.add.at(expected, vrep, bump)
        _same(ix.vip_sum(prof, d, width, scale), expected)
