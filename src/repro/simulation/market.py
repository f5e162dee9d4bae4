"""Exchange market simulator — the Binance-klines substitute (§4.2 data).

Every coin has a deterministic hourly log-price process

    log p_c(h) = log base_c + seasonal_c(h) + sigma_c * eta(c, h) + overlay_c(h)

where ``seasonal`` is a small set of per-coin Fourier components (slow market
cycles), ``eta`` is counter-based hash noise (so any window can be evaluated
in O(window) with *consistent* overlapping answers), and ``overlay`` encodes
the paper's P&D anatomy (§2, Figure 4):

* **accumulation** — organizers buy from ~60h before the pump, ramping the
  price ≈ +9.5% by one hour before (Figure 4c peaks at x = 60);
* **pre-pump hikes** — VIP buy-ins create short price/volume spikes between
  48h and 1h before (Figure 4b/4d);
* **pump** — the price multiplies within ~2 minutes of the scheduled time;
* **dump** — exponential decay to at-or-below the pre-accumulation level.

Volume follows the same structure with a much larger pump spike and a
"frequent trading onset" ~57 hours before the pump (Figure 4b).

Each noise draw is a hashed normal keyed ``(seed, stream, coin, [octave,]
hour or block)``.  The simulator hashes every per-coin prefix once, at
construction: eleven uint64 arrays of ``n_coins`` states (price, volume,
six price octaves, three volume bursts).  A draw gathers the states of the
queried coins and extends them by the hour or block key
(:func:`~repro.utils.hashrng.extend_hash`), one mix per element.  Octave
and burst noise interpolate between hashed block edges; where the query
grid is dense in hours (a candidates x 72 h window) both edges come from
one table of the distinct blocks per coin.  The values are bit-for-bit the
full-key hashes, and nothing is precomputed over the horizon or kept
between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.simulation.coins import CoinUniverse
from repro.sources.base import SourceDataError
from repro.utils.hashrng import (
    extend_hash,
    hash_normal,
    hash_uint64,
    load_ndtri,
    normal_from_bits,
)

# Stream tags so the same (coin, hour) key yields independent noises.
_PRICE_STREAM = 1
_VOLUME_STREAM = 2
_RANGE_STREAM = 3
_MINUTE_STREAM = 4
_MOOD_STREAM = 5
_OCTAVE_STREAM = 6

# Brownian-like multi-scale noise: interpolated hashed noise at octave
# periods approximates a 1/f^2 spectrum, so an x-hour return carries
# ~sqrt(x)-scaled idiosyncratic noise — the reason pre-pump accumulation is
# a *statistical* signal (Figure 4c averages hundreds of events) rather
# than a giveaway on every single event.
_OCTAVE_PERIODS = (4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0)
_OCTAVE_SIGMA = 0.012

# Volume burst octaves: fixed-amplitude log-volume excursions at hour-to-
# day scales (news, listings, other groups' activity).
_VOLUME_BURST_PERIODS = (6.0, 24.0, 96.0)
_VOLUME_BURST_AMPLITUDE = 0.55
_VOLUME_BURST_STREAM = 7

PUMP_PEAK_MINUTES = 2  # price tops out ~2 minutes after the coin release

# Investor mood influences BTC with this delay (hours); §7 observes that
# sentiment intensity has a *delayed* impact on price movement.
MOOD_PRICE_LAG = 48
MOOD_PRICE_COEFF = 0.16


@dataclass(frozen=True)
class PumpProfile:
    """Per-event market-impact parameters (log-scale effects)."""

    time: float          # pump time in fractional hours
    accum_log: float     # accumulation lift reached 1h before the pump
    peak_log: float      # pump peak on top of accumulation
    settle_log: float    # post-dump level relative to pre-accumulation
    dump_tau: float      # hours for the pump spike to decay
    vip_times: tuple[float, ...]   # pre-pump hike offsets (negative hours)
    vip_sizes: tuple[float, ...]   # log-size of each pre-pump hike
    volume_peak_log: float         # pump-hour volume lift


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate integer ranges ``[start, start+count)`` into one index array.

    Equivalent to ``np.concatenate([np.arange(s, s + c) for s, c in ...])``
    without the Python loop; used to expand per-coin profile (and per-profile
    VIP) ranges into flat gather indices.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return np.repeat(starts, counts) + within


def _edge_normals(keys: np.ndarray, block: np.ndarray):
    """Normals keyed by ``keys`` extended with ``block`` and ``block + 1``.

    ``keys`` are per-element prefix states (one per queried coin) that
    broadcast against ``block``.  On a query dense in blocks, such as a
    candidates x 72 h grid, one table of each key's blocks ``lo .. hi + 1``
    serves both interpolation edges through two gathers; it is built only
    when it holds no more draws than the two edge arrays would.  A sparse
    query (flat per-element times spanning years) hashes both edges
    directly.  Either way each value is the same full-key hash.
    """
    cells = math.prod(np.broadcast_shapes(keys.shape, block.shape))
    if cells:
        lo = int(block.min())
        n = int(block.max()) - lo + 2
        if keys.size * n <= 2 * cells:
            table = normal_from_bits(
                extend_hash(keys[..., None], np.arange(lo, lo + n))
            ).reshape(-1)
            rows = np.arange(0, keys.size * n, n).reshape(keys.shape)
            at = rows + (block - lo)
            return table[at], table[at + 1]
    return (normal_from_bits(extend_hash(keys, block)),
            normal_from_bits(extend_hash(keys, block + 1)))


class _ProfileTable:
    """Per-coin profile lists flattened for vectorized overlay evaluation.

    Coin ``c``'s profiles are the flat rows ``start[c] .. start[c] +
    count[c]`` in registration order, and ``time`` holds each row's pump
    hour.  Keeping that order lets an overlay accumulate with
    ``np.add.at`` in exactly the sequence a per-coin loop would, so results
    are bit-for-bit identical to looping coins and profiles.
    """

    def __init__(self, n_coins: int, by_coin: dict[int, list]):
        self.count = np.zeros(n_coins, dtype=np.int64)
        self.start = np.zeros(n_coins, dtype=np.int64)
        self.rows: list = []
        for coin in sorted(by_coin):
            self.start[coin] = len(self.rows)
            self.count[coin] = len(by_coin[coin])
            self.rows.extend(by_coin[coin])
        self.time = np.array([p.time for p in self.rows], dtype=np.float64)

    def pairs(self, coin_ids: np.ndarray, hours: np.ndarray):
        """Expand query elements into (element, profile) pairs.

        Returns ``(sel, rep, prof, d)`` — the elements that have any profile,
        the element index of each pair, the flat profile index of each pair,
        and the hour offset from the pump — or ``None`` when no element's
        coin has registered profiles.
        """
        counts = self.count[coin_ids]
        sel = np.flatnonzero(counts)
        if len(sel) == 0:
            return None
        c = counts[sel]
        rep = np.repeat(sel, c)
        prof = _concat_ranges(self.start[coin_ids[sel]], c)
        d = hours[rep] - self.time[prof]
        return sel, rep, prof, d


class _OverlayIndex(_ProfileTable):
    """Pump-profile table; VIP bumps per profile in declaration order."""

    def __init__(self, n_coins: int, profiles: dict[int, list[PumpProfile]]):
        super().__init__(n_coins, profiles)
        rows = self.rows
        self.accum = np.array([p.accum_log for p in rows], dtype=np.float64)
        self.peak = np.array([p.peak_log for p in rows], dtype=np.float64)
        self.settle = np.array([p.settle_log for p in rows], dtype=np.float64)
        self.tau = np.array([p.dump_tau for p in rows], dtype=np.float64)
        self.volpeak = np.array([p.volume_peak_log for p in rows],
                                dtype=np.float64)
        self.vip_count = np.array([len(p.vip_times) for p in rows],
                                  dtype=np.int64)
        self.vip_start = np.cumsum(self.vip_count) - self.vip_count
        self.vip_time = np.array([t for p in rows for t in p.vip_times],
                                 dtype=np.float64)
        self.vip_size = np.array([v for p in rows for v in p.vip_sizes],
                                 dtype=np.float64)

    def vip_sum(self, prof: np.ndarray, d: np.ndarray,
                width: float, scale: float) -> np.ndarray:
        """Per-pair sum of pre-pump VIP bumps, accumulated in VIP order.

        Only pairs before their pump (``d < 0``) are expanded; all VIPs of
        a pair share its ``d``, and every other pair keeps its ``+0.0``.
        """
        vip = np.zeros_like(d)
        vcount = self.vip_count[prof]
        vsel = np.flatnonzero((d < 0) & (vcount > 0))
        if len(vsel):
            vc = vcount[vsel]
            vrep = np.repeat(vsel, vc)
            vidx = _concat_ranges(self.vip_start[prof[vsel]], vc)
            bump = self.vip_size[vidx] * scale * np.exp(
                -0.5 * ((d[vrep] - self.vip_time[vidx]) / width) ** 2
            )
            np.add.at(vip, vrep, bump)
        return vip


class MarketSimulator:
    """Deterministic OHLCV oracle for every coin at hour/minute resolution."""

    def __init__(self, universe: CoinUniverse, seed: int | None = None):
        self.universe = universe
        self.seed = universe.config.seed if seed is None else seed
        n = universe.n_coins
        rng = np.random.default_rng(self.seed * 104729 + 3)
        # Per-coin seasonal components: two slow sinusoids.
        self._amp1 = rng.uniform(0.05, 0.35, n)
        self._period1 = rng.uniform(1500.0, 8000.0, n)
        self._phase1 = rng.uniform(0, 2 * np.pi, n)
        self._amp2 = rng.uniform(0.02, 0.15, n)
        self._period2 = rng.uniform(200.0, 900.0, n)
        self._phase2 = rng.uniform(0, 2 * np.pi, n)
        self._sigma = rng.uniform(0.002, 0.006, n)
        # Per-coin volatility multiplier for the octave (random-walk) noise.
        self._octave_scale = rng.uniform(0.7, 1.4, n)
        # Volume model parameters.  Hourly volumes of small caps are wildly
        # bursty; iid noise plus multi-scale bursts keep pre-pump elevation
        # from being a trivial giveaway.
        self._volume_base = 0.72 * np.log(universe.market_cap) - 6.0
        self._volume_sigma = rng.uniform(0.4, 0.8, n)
        # Per-coin hash states of every coin-keyed noise stream (see the
        # module docstring); the parameter RNG above is not consumed.
        coins = np.arange(n, dtype=np.int64)
        self._price_keys = hash_uint64(self.seed, _PRICE_STREAM, coins)
        self._volume_keys = hash_uint64(self.seed, _VOLUME_STREAM, coins)
        self._octave_keys = [hash_uint64(self.seed, _OCTAVE_STREAM, coins, j)
                             for j in range(len(_OCTAVE_PERIODS))]
        self._burst_keys = [
            hash_uint64(self.seed, _VOLUME_BURST_STREAM, coins, j)
            for j in range(len(_VOLUME_BURST_PERIODS))
        ]
        # Every candle query draws hashed normals: import their inverse
        # CDF (scipy, ~0.3 s) with the simulator, not in the first query
        # a freshly booted server answers.
        load_ndtri()
        self._profiles: dict[int, list[PumpProfile]] = {}
        self._overlay_index: _OverlayIndex | None = None
        # Accumulation/ignition phase overlays (repro.simulation.phases);
        # None for every world that never calls attach_phases, keeping the
        # base simulation bit-for-bit unchanged.
        self._phases = None

    # -- event registration -----------------------------------------------------

    def attach_events(self, events: Iterable) -> None:
        """Register pump events; each must expose ``coin_id`` and ``profile``."""
        for event in events:
            self._profiles.setdefault(int(event.coin_id), []).append(event.profile)
        self._overlay_index = None  # flattened table rebuilt lazily

    def attach_phases(self, profiles: Iterable) -> None:
        """Register accumulation/ignition phase profiles.

        ``profiles`` are :class:`repro.simulation.phases.PhaseProfile`
        rows; the import is lazy so the (phases → market) module edge
        stays acyclic at import time.
        """
        from repro.simulation.phases import PhaseIndex

        self._phases = PhaseIndex(self.universe.n_coins, profiles)

    @property
    def has_phases(self) -> bool:
        """True when phase overlays are attached (phase-aware worlds)."""
        return self._phases is not None

    def _overlays(self) -> _OverlayIndex:
        if self._overlay_index is None:
            self._overlay_index = _OverlayIndex(self.universe.n_coins, self._profiles)
        return self._overlay_index

    def profiles_for(self, coin_id: int) -> list[PumpProfile]:
        """Registered pump profiles of one coin (possibly empty)."""
        return self._profiles.get(int(coin_id), [])

    def _coin_index(self, coin_ids) -> np.ndarray:
        """``coin_ids`` as int64, refusing ids outside the universe."""
        coin_ids = np.asarray(coin_ids, dtype=np.int64)
        n = self.universe.n_coins
        if coin_ids.size and (coin_ids.min() < 0 or coin_ids.max() >= n):
            raise SourceDataError(
                f"candle query references coin ids outside the catalog "
                f"(0..{n - 1})"
            )
        return coin_ids

    def _interpolated(self, keys: np.ndarray, coin_ids: np.ndarray,
                      hours: np.ndarray, period: float) -> np.ndarray:
        """Smoothstep between hashed per-block normals of one stream."""
        block = np.floor(hours / period).astype(np.int64)
        frac = hours / period - block
        w = frac * frac * (3.0 - 2.0 * frac)  # smoothstep
        left, right = _edge_normals(keys[coin_ids], block)
        return (1.0 - w) * left + w * right

    # -- price ---------------------------------------------------------------

    def _seasonal(self, coin_ids: np.ndarray, hours: np.ndarray) -> np.ndarray:
        c = coin_ids
        h = hours
        return self._amp1[c] * np.sin(2 * np.pi * h / self._period1[c] + self._phase1[c]) \
            + self._amp2[c] * np.sin(2 * np.pi * h / self._period2[c] + self._phase2[c])

    def _add_price_overlay(self, out: np.ndarray, coin_ids: np.ndarray,
                           hours: np.ndarray) -> None:
        """Add event overlays to flat log-prices, vectorized over all coins.

        Every (query element, pump profile) pair is expanded into flat
        arrays, evaluated with the same elementwise formulas as the original
        per-coin loop, and accumulated with ``np.add.at`` in registration
        order — bit-for-bit identical to looping coins and profiles.
        """
        pairs = self._overlays().pairs(coin_ids, hours)
        if pairs is None:
            return
        ix = self._overlays()
        sel, rep, prof, d = pairs
        # Pre-accumulation micro-premium: makes returns measured from
        # x=72 slightly smaller than from x=60, as in Figure 4(c).
        pre = np.where((d >= -76) & (d < -61), 0.012, 0.0)
        # Accumulation ramp over [-61, 0).
        ramp_frac = np.clip((d + 61.0) / 60.0, 0.0, 1.0)
        accum = np.where(d < 0, ix.accum[prof] * ramp_frac, 0.0)
        # VIP pre-pump hikes: short gaussian bumps.
        vip = ix.vip_sum(prof, d, width=0.8, scale=1.0)
        # Pump spike and dump decay.
        peak_at = PUMP_PEAK_MINUTES / 60.0
        rise = np.where(
            (d >= 0) & (d < peak_at),
            ix.accum[prof] + (ix.peak[prof] - ix.accum[prof]) * (d / peak_at),
            0.0,
        )
        decay = np.where(
            d >= peak_at,
            ix.settle[prof]
            + (ix.peak[prof] - ix.settle[prof])
            * np.exp(-np.maximum(d - peak_at, 0.0) / ix.tau[prof]),
            0.0,
        )
        overlay = np.zeros_like(out)
        np.add.at(overlay, rep, pre + accum + vip + rise + decay)
        out[sel] += overlay[sel]

    def _octave_noise(self, coin_ids: np.ndarray, hours: np.ndarray) -> np.ndarray:
        """Brownian-like idiosyncratic price noise, O(octaves) per query.

        Each octave interpolates hashed per-block normals with a smoothstep,
        giving a continuous path whose x-hour increments have standard
        deviation roughly ``_OCTAVE_SIGMA * sqrt(x)``.
        """
        out = np.zeros(np.broadcast_shapes(coin_ids.shape, hours.shape))
        for keys, period in zip(self._octave_keys, _OCTAVE_PERIODS):
            amplitude = _OCTAVE_SIGMA * np.sqrt(period)
            out = out + amplitude * self._interpolated(keys, coin_ids, hours,
                                                       period)
        return out * self._octave_scale[coin_ids]

    def price_noise(self, coin_ids: np.ndarray, hours: np.ndarray):
        """Idiosyncratic log-price noise as ``(hourly, octaves)``.

        ``log_close`` adds the two terms in turn; the phase overlay's quiet
        squeeze damps their sum.  ``coin_ids`` (int64) and ``hours``
        broadcast together.
        """
        hour_idx = np.floor(hours).astype(np.int64)
        hourly = self._sigma[coin_ids] * normal_from_bits(
            extend_hash(self._price_keys[coin_ids], hour_idx)
        )
        return hourly, self._octave_noise(coin_ids, hours)

    def market_mood(self, hours) -> np.ndarray:
        """Latent investor-mood process in roughly [-2, 2].

        Piecewise-linear interpolation of daily hash noise — continuous,
        stochastic and O(1) per query.  Telegram sentiment chatter tracks
        this process, and BTC's price responds to it ``MOOD_PRICE_LAG``
        hours later, which is what makes sentiment features informative for
        the §7 forecasting task.
        """
        hours = np.asarray(hours, dtype=float)
        block = np.floor(hours / 24.0).astype(np.int64)
        frac = (hours / 24.0) - block
        left = hash_normal(self.seed, _MOOD_STREAM, block)
        right = hash_normal(self.seed, _MOOD_STREAM, block + 1)
        return (1.0 - frac) * left + frac * right

    def log_close(self, coin_ids, hours) -> np.ndarray:
        """Log close price; ``coin_ids`` and ``hours`` broadcast together."""
        coin_ids = self._coin_index(coin_ids)
        hours = np.asarray(hours, dtype=float)
        noise, octaves = self.price_noise(coin_ids, hours)
        base = np.log(self.universe.base_price[coin_ids])
        out = base + self._seasonal(coin_ids, hours) + noise + octaves
        # Delayed mood impact on BTC (coin 0) for the forecasting task.
        btc_mask = coin_ids == 0
        if btc_mask.any():
            out = out + np.where(
                btc_mask,
                MOOD_PRICE_COEFF * self.market_mood(hours - MOOD_PRICE_LAG),
                0.0,
            )
        # Apply event overlays only for coins that have any.
        if self._profiles or self._phases is not None:
            flat_coins, flat_hours = (
                a.reshape(-1) for a in np.broadcast_arrays(coin_ids, hours)
            )
            flat_out = np.ascontiguousarray(out).reshape(-1)
            if self._profiles:
                self._add_price_overlay(flat_out, flat_coins, flat_hours)
            if self._phases is not None:
                self._phases.add_price_overlay(self, flat_out, flat_coins,
                                               flat_hours)
            out = flat_out.reshape(out.shape)
        return out

    def close_price(self, coin_ids, hours) -> np.ndarray:
        """Close price in pairing-coin units."""
        return np.exp(self.log_close(coin_ids, hours))

    def window_return(self, coin_ids, pump_hour: float, x: int) -> np.ndarray:
        """Return over the paper's window ``(x+1, 1]`` hours before ``pump_hour``.

        ``return = p(t-1) / p(t-x-1) - 1`` — the Figure 4(c) statistic and
        the §5.1 market-movement feature.
        """
        coin_ids = np.asarray(coin_ids, dtype=np.int64)
        p_end = self.log_close(coin_ids, np.full(coin_ids.shape, pump_hour - 1.0))
        p_start = self.log_close(coin_ids, np.full(coin_ids.shape, pump_hour - x - 1.0))
        return np.exp(p_end - p_start) - 1.0

    # -- volume ---------------------------------------------------------------

    def _add_volume_overlay(self, out: np.ndarray, coin_ids: np.ndarray,
                            hours: np.ndarray) -> None:
        """Add event overlays to flat log-volumes (see ``_add_price_overlay``)."""
        pairs = self._overlays().pairs(coin_ids, hours)
        if pairs is None:
            return
        ix = self._overlays()
        sel, rep, prof, d = pairs
        # Frequent-trading onset ~57h before the pump (Figure 4b).
        ramp = np.where(
            (d >= -57) & (d < 0), 0.55 * np.clip((d + 57.0) / 57.0, 0, 1), 0.0
        )
        vip = ix.vip_sum(prof, d, width=0.6, scale=28.0)
        spike = np.where(
            d >= 0,
            ix.volpeak[prof] * np.exp(-np.maximum(d, 0) / 0.45),
            0.0,
        )
        aftermath = np.where(d >= 0, 0.8 * np.exp(-np.maximum(d, 0) / 24.0), 0.0)
        overlay = np.zeros_like(out)
        np.add.at(overlay, rep, ramp + vip + spike + aftermath)
        out[sel] += overlay[sel]

    def hourly_volume(self, coin_ids, hours) -> np.ndarray:
        """Traded volume (pairing-coin units) during the hour ending at ``h``."""
        coin_ids = self._coin_index(coin_ids)
        hours = np.asarray(hours, dtype=float)
        hour_idx = np.floor(hours).astype(np.int64)
        noise = self._volume_sigma[coin_ids] * normal_from_bits(
            extend_hash(self._volume_keys[coin_ids], hour_idx)
        )
        bursts = np.zeros(np.broadcast_shapes(coin_ids.shape, hours.shape))
        for keys, period in zip(self._burst_keys, _VOLUME_BURST_PERIODS):
            bursts = bursts + _VOLUME_BURST_AMPLITUDE * self._interpolated(
                keys, coin_ids, hours, period
            )
        # Mild time-of-day seasonality (UTC evening is busier).
        tod = 0.25 * np.sin(2 * np.pi * (hours % 24) / 24.0 - 1.2)
        log_volume = self._volume_base[coin_ids] + tod + noise + bursts
        if self._profiles or self._phases is not None:
            flat_coins, flat_hours = (
                a.reshape(-1) for a in np.broadcast_arrays(coin_ids, hours)
            )
            flat = np.ascontiguousarray(log_volume).reshape(-1)
            if self._profiles:
                self._add_volume_overlay(flat, flat_coins, flat_hours)
            if self._phases is not None:
                self._phases.add_volume_overlay(self, flat, flat_coins,
                                                flat_hours)
            log_volume = flat.reshape(log_volume.shape)
        return np.exp(log_volume)

    def window_volume_profile(self, coin_ids, pump_hour: float,
                              max_hours: int) -> np.ndarray:
        """Hourly volumes at offsets ``1..max_hours`` before the pump.

        Returns ``(len(coin_ids), max_hours)``; the mean of the first ``x``
        columns is the average hourly volume over the window ``(x+1, 1]``
        before the pump, so one query serves every window span a feature
        matrix needs.
        """
        coin_ids = np.asarray(coin_ids, dtype=np.int64)
        offsets = np.arange(1, max_hours + 1, dtype=float)  # hours before pump
        grid_hours = pump_hour - offsets  # (max_hours,)
        return self.hourly_volume(coin_ids[:, None], grid_hours[None, :])

    def typical_trade_size(self, coin_ids) -> np.ndarray:
        """Per-coin typical trade size used by the trade-count proxy."""
        return np.exp(self._volume_base[self._coin_index(coin_ids)]) / 180.0

    def trade_count_from_volume(self, volume: np.ndarray,
                                coin_ids) -> np.ndarray:
        """Proxy trade count for already-known volumes (single source of
        truth for the formula, shared with the feature layer)."""
        return volume / np.maximum(self.typical_trade_size(coin_ids), 1e-12)

    # -- OHLCV bars -------------------------------------------------------------

    def ohlcv_hourly(self, coin_id: int, start_hour: int, n_hours: int) -> np.ndarray:
        """Hourly bars ``(n_hours, 5)``: open, high, low, close, volume.

        Open of bar ``h`` equals close of ``h-1``; the high/low extend the
        open-close range by non-negative hash-noise wicks, so the OHLC
        invariant ``low <= min(open, close) <= max(open, close) <= high``
        holds by construction.
        """
        if n_hours < 1:
            raise ValueError("n_hours must be positive")
        hours = np.arange(start_hour - 1, start_hour + n_hours, dtype=float)
        closes = self.close_price(np.full(len(hours), coin_id), hours)
        opens = closes[:-1]
        close = closes[1:]
        hour_idx = hours[1:].astype(np.int64)
        wick = np.abs(
            hash_normal(self.seed, _RANGE_STREAM, coin_id, hour_idx)
        ) * 0.004 + 1e-6
        high = np.maximum(opens, close) * np.exp(wick)
        low = np.minimum(opens, close) * np.exp(-wick)
        volume = self.hourly_volume(np.full(n_hours, coin_id), hours[1:])
        return np.stack([opens, high, low, close, volume], axis=1)

    # -- minute-level series (Figure 4 a, b, d) ----------------------------------

    def minute_close(self, coin_id: int, around_hour: float,
                     minute_offsets: Sequence[int]) -> np.ndarray:
        """Close price at minute resolution around a reference hour."""
        offsets = np.asarray(minute_offsets, dtype=float)
        hours = around_hour + offsets / 60.0
        base = self.log_close(np.full(len(offsets), coin_id), hours)
        minute_idx = np.floor(around_hour * 60 + offsets).astype(np.int64)
        micro = 0.0012 * hash_normal(self.seed, _MINUTE_STREAM, coin_id, minute_idx)
        return np.exp(base + micro)

    def minute_volume(self, coin_id: int, around_hour: float,
                      minute_offsets: Sequence[int]) -> np.ndarray:
        """Per-minute traded volume around a reference hour."""
        offsets = np.asarray(minute_offsets, dtype=float)
        hours = around_hour + offsets / 60.0
        hourly = self.hourly_volume(np.full(len(offsets), coin_id), hours)
        minute_idx = np.floor(around_hour * 60 + offsets).astype(np.int64)
        jitter = np.exp(
            0.35 * hash_normal(self.seed, _MINUTE_STREAM + 7, coin_id, minute_idx)
        )
        return hourly / 60.0 * jitter
