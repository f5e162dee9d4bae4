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
and burst noise interpolate between hashed block edges.

A query takes one of two shapes, chosen by the shapes of its arguments
alone:

* **grid** — a column of coins against one shared row of hours, which is
  what a feature-cache miss sends (candidates x the window hours).  Both
  interpolation edges of a stream come from one table of each coin's
  blocks, gathered with one column index, and the pump overlays expand
  one (coin, profile) row per pair over the shared hours;
* **flat** — anything else, broadcast to one hour per element (a history
  encode: one pump time per sample, spanning years).  The six price
  octaves (or three volume bursts) are drawn in one stacked pass, both
  edges hashed directly.

Either way each overlay pair evaluates only the branch it is in, because
the other branches' terms are exact zeros.  The values are bit-for-bit
the full-key hashes and the flat per-element overlay sums
(``tests/simulation/test_market_reference.py``), and nothing is
precomputed over the horizon or kept between calls.
"""

from __future__ import annotations

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
_OCTAVE_PERIOD_ARRAY = np.array(_OCTAVE_PERIODS)
_OCTAVE_AMPLITUDES = _OCTAVE_SIGMA * np.sqrt(_OCTAVE_PERIOD_ARRAY)

# Volume burst octaves: fixed-amplitude log-volume excursions at hour-to-
# day scales (news, listings, other groups' activity).
_VOLUME_BURST_PERIODS = (6.0, 24.0, 96.0)
_VOLUME_BURST_AMPLITUDE = 0.55
_VOLUME_BURST_STREAM = 7
_VOLUME_BURST_PERIOD_ARRAY = np.array(_VOLUME_BURST_PERIODS)
_VOLUME_BURST_AMPLITUDES = np.full(len(_VOLUME_BURST_PERIODS),
                                   _VOLUME_BURST_AMPLITUDE)

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


def _rows(coin_ids: np.ndarray, hours: np.ndarray):
    """A candle query as ``(coins, hours, shape)`` rows.

    A grid query (a column of coins against one row of hours, which is
    what a feature-cache miss sends) keeps its ``(1, K)`` hour row shared
    by every coin.  Any other query is flat: ``coin_ids`` and ``hours``
    are broadcast and flattened into one ``(R, 1)`` hour per row.  Every
    row computes to a ``(R, K)`` block that reshapes to ``shape``.
    """
    if (coin_ids.ndim == 2 and coin_ids.shape[1] == 1
            and hours.ndim == 2 and hours.shape[0] == 1):
        return coin_ids[:, 0], hours, (len(coin_ids), hours.shape[1])
    coin_ids, hours = np.broadcast_arrays(coin_ids, hours)
    return coin_ids.reshape(-1), hours.reshape(-1, 1), coin_ids.shape


def _flat(coins: np.ndarray, hours: np.ndarray):
    """Query rows back as flat ``(coin_ids, hours)``, one per element."""
    return tuple(a.reshape(-1)
                 for a in np.broadcast_arrays(coins[:, None], hours))


def _smoothstep_blocks(hours: np.ndarray, period):
    """Interpolation block index and smoothstep weight of ``hours``."""
    scaled = hours / period
    block = np.floor(scaled).astype(np.int64)
    frac = scaled - block
    return block, frac * frac * (3.0 - 2.0 * frac)


def _grid_edges(keys: np.ndarray, block: np.ndarray):
    """Normals keyed by ``keys[r]`` extended with ``block`` and ``block + 1``.

    ``keys`` holds one prefix state per coin row and ``block`` the
    ``(1, K)`` block row they share.  When the row is dense in blocks
    (a 72 h window), one table per coin of the blocks ``lo .. hi + 1``
    serves both edges, each gathered with one column index; it is built
    only when it holds no more draws than the two edge arrays would.
    Either way each value is the same full-key hash.
    """
    cols = block[0]
    if len(cols):
        lo = int(cols.min())
        n = int(cols.max()) - lo + 2
        if n <= 2 * len(cols):
            table = normal_from_bits(
                extend_hash(keys[:, None], np.arange(lo, lo + n))
            )
            at = cols - lo
            return table[:, at], table[:, at + 1]
    return (normal_from_bits(extend_hash(keys[:, None], block)),
            normal_from_bits(extend_hash(keys[:, None], block + 1)))


def _interpolated(keys: np.ndarray, periods: np.ndarray,
                  amplitudes: np.ndarray, coins: np.ndarray,
                  hours: np.ndarray) -> np.ndarray:
    """``sum_j amplitudes[j] * smoothstep(normals of stream j)`` over rows.

    ``keys`` is ``(streams, n_coins)`` prefix states, one stream per
    period.  A grid (shared hour row) interpolates stream by stream from
    per-coin block tables; flat rows draw every stream's edges in one
    stacked pass, hashing both edges directly.  The streams add in order
    onto zeros either way, so every value keeps its bits.
    """
    out = np.zeros(np.broadcast_shapes((len(coins), 1), hours.shape))
    if len(hours) == 1:
        for row, period, amplitude in zip(keys, periods, amplitudes):
            block, w = _smoothstep_blocks(hours, period)
            left, right = _grid_edges(row[coins], block)
            out += _blend(left, right, w, amplitude)
        return out
    block, w = _smoothstep_blocks(hours[:, 0], periods[:, None])
    stream_keys = keys[:, coins]
    terms = _blend(normal_from_bits(extend_hash(stream_keys, block)),
                   normal_from_bits(extend_hash(stream_keys, block + 1)),
                   w, amplitudes[:, None])
    for term in terms:
        out += term[:, None]
    return out


def _blend(left: np.ndarray, right: np.ndarray, w: np.ndarray,
           amplitude) -> np.ndarray:
    """``amplitude * ((1 - w) * left + w * right)``, computed in the
    buffers of the two fresh edge draws: a 449 x 72 grid's temporaries
    cost more than its arithmetic."""
    left *= 1.0 - w
    right *= w
    left += right
    left *= amplitude
    return left


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

    def pairs(self, coins: np.ndarray, hours: np.ndarray):
        """Expand query rows into (row, profile) pairs.

        ``hours`` is ``(1, K)`` (one hour row every coin shares) or
        ``(R, 1)`` (one hour per row; see :func:`_rows`).  Returns
        ``(sel, rep, prof, d)`` — the rows that have any profile, the row
        of each pair, the flat profile index of each pair, and the
        ``(pairs, K)`` hour offsets from the pump — or ``None`` when no
        row's coin has registered profiles.
        """
        counts = self.count[coins]
        sel = np.flatnonzero(counts)
        if len(sel) == 0:
            return None
        c = counts[sel]
        rep = np.repeat(sel, c)
        prof = _concat_ranges(self.start[coins[sel]], c)
        row_hours = hours if len(hours) == 1 else hours[rep]
        d = row_hours - self.time[prof][:, None]
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


def _accumulate(out: np.ndarray, pairs, branches) -> None:
    """Add each (row, profile) pair's overlay term to its row of ``out``.

    ``pairs`` is :meth:`_ProfileTable.pairs`' result and ``branches`` are
    ``(mask, term)`` pairs: ``term(prof, d)`` is evaluated only on the
    pair elements ``mask(d)`` selects, and every other element adds an
    exact ``+0.0`` (the terms of the other branches are zeros there).
    Pairs accumulate onto zeros with ``np.add.at`` in registration order,
    as a per-profile loop would.
    """
    sel, rep, prof, d = pairs
    per_element = np.broadcast_to(prof[:, None], d.shape)
    term = np.zeros_like(d)
    for mask, formula in branches:
        m = mask(d)
        if m.any():
            term[m] = formula(per_element[m], d[m])
    overlay = np.zeros_like(out)
    np.add.at(overlay, rep, term)
    out[sel] += overlay[sel]


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
        self._octave_keys = np.stack([
            hash_uint64(self.seed, _OCTAVE_STREAM, coins, j)
            for j in range(len(_OCTAVE_PERIODS))
        ])
        self._burst_keys = np.stack([
            hash_uint64(self.seed, _VOLUME_BURST_STREAM, coins, j)
            for j in range(len(_VOLUME_BURST_PERIODS))
        ])
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

    # -- price ---------------------------------------------------------------

    def _seasonal(self, coin_ids: np.ndarray, hours: np.ndarray) -> np.ndarray:
        c = coin_ids
        h = hours
        return self._amp1[c] * np.sin(2 * np.pi * h / self._period1[c] + self._phase1[c]) \
            + self._amp2[c] * np.sin(2 * np.pi * h / self._period2[c] + self._phase2[c])

    def _add_price_overlay(self, out: np.ndarray, coins: np.ndarray,
                           hours: np.ndarray) -> None:
        """Add pump-event overlays to log-price rows (see :func:`_rows`).

        Each (row, profile) pair evaluates only its own branch: the
        pre-pump terms before the pump, the rise inside its peak minutes
        and the decay after them.  The other branches' terms are exact
        zeros there, so the sums are those of evaluating every term on
        every pair.
        """
        ix = self._overlays()
        pairs = ix.pairs(coins, hours)
        if pairs is None:
            return
        peak_at = PUMP_PEAK_MINUTES / 60.0

        def before(p, d):
            # Pre-accumulation micro-premium: makes returns measured from
            # x=72 slightly smaller than from x=60, as in Figure 4(c).
            pre = np.where((d >= -76) & (d < -61), 0.012, 0.0)
            # Accumulation ramp over [-61, 0).
            ramp_frac = np.clip((d + 61.0) / 60.0, 0.0, 1.0)
            # VIP pre-pump hikes: short gaussian bumps.
            return (pre + ix.accum[p] * ramp_frac
                    + ix.vip_sum(p, d, width=0.8, scale=1.0))

        def rise(p, d):  # the pump spike
            return ix.accum[p] + (ix.peak[p] - ix.accum[p]) * (d / peak_at)

        def decay(p, d):  # the dump
            return ix.settle[p] + (ix.peak[p] - ix.settle[p]) * np.exp(
                -(d - peak_at) / ix.tau[p]
            )

        _accumulate(out, pairs, (
            (lambda d: d < 0, before),
            (lambda d: (d >= 0) & (d < peak_at), rise),
            (lambda d: d >= peak_at, decay),
        ))

    def _price_rows(self, coins: np.ndarray, hours: np.ndarray):
        """Hourly and octave log-price noise of query rows.

        The octaves are Brownian-like idiosyncratic noise: each
        interpolates hashed per-block normals with a smoothstep, giving a
        continuous path whose x-hour increments have standard deviation
        roughly ``_OCTAVE_SIGMA * sqrt(x)``.
        """
        c = coins[:, None]
        hourly = self._sigma[c] * normal_from_bits(
            extend_hash(self._price_keys[c], np.floor(hours).astype(np.int64))
        )
        octaves = _interpolated(self._octave_keys, _OCTAVE_PERIOD_ARRAY,
                                _OCTAVE_AMPLITUDES, coins, hours)
        return hourly, octaves * self._octave_scale[c]

    def price_noise(self, coin_ids: np.ndarray, hours: np.ndarray):
        """Idiosyncratic log-price noise as ``(hourly, octaves)``.

        ``log_close`` adds the two terms in turn; the phase overlay's quiet
        squeeze damps their sum.  ``coin_ids`` (int64) and ``hours``
        broadcast together.
        """
        coins, rows, shape = _rows(np.asarray(coin_ids, dtype=np.int64),
                                   np.asarray(hours, dtype=float))
        hourly, octaves = self._price_rows(coins, rows)
        return hourly.reshape(shape), octaves.reshape(shape)

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
        coins, hours, shape = _rows(self._coin_index(coin_ids),
                                    np.asarray(hours, dtype=float))
        noise, octaves = self._price_rows(coins, hours)
        c = coins[:, None]
        base = np.log(self.universe.base_price[c])
        out = base + self._seasonal(c, hours) + noise + octaves
        # Delayed mood impact on BTC (coin 0) for the forecasting task.
        btc_mask = c == 0
        if btc_mask.any():
            out = out + np.where(
                btc_mask,
                MOOD_PRICE_COEFF * self.market_mood(hours - MOOD_PRICE_LAG),
                0.0,
            )
        # Apply event overlays only for coins that have any.
        if self._profiles:
            self._add_price_overlay(out, coins, hours)
        if self._phases is not None:
            self._phases.add_price_overlay(self, out.reshape(-1),
                                           *_flat(coins, hours))
        return out.reshape(shape)

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

    def _add_volume_overlay(self, out: np.ndarray, coins: np.ndarray,
                            hours: np.ndarray) -> None:
        """Add pump-event overlays to log-volume rows (see
        ``_add_price_overlay``)."""
        ix = self._overlays()
        pairs = ix.pairs(coins, hours)
        if pairs is None:
            return

        def before(p, d):
            # Frequent-trading onset ~57h before the pump (Figure 4b).
            ramp = np.where(d >= -57, 0.55 * np.clip((d + 57.0) / 57.0, 0, 1),
                            0.0)
            return ramp + ix.vip_sum(p, d, width=0.6, scale=28.0)

        def after(p, d):  # the pump spike, then its aftermath
            return (ix.volpeak[p] * np.exp(-d / 0.45)
                    + 0.8 * np.exp(-d / 24.0))

        _accumulate(out, pairs, (
            (lambda d: d < 0, before),
            (lambda d: d >= 0, after),
        ))

    def hourly_volume(self, coin_ids, hours) -> np.ndarray:
        """Traded volume (pairing-coin units) during the hour ending at ``h``."""
        coins, hours, shape = _rows(self._coin_index(coin_ids),
                                    np.asarray(hours, dtype=float))
        c = coins[:, None]
        noise = self._volume_sigma[c] * normal_from_bits(
            extend_hash(self._volume_keys[c], np.floor(hours).astype(np.int64))
        )
        bursts = _interpolated(self._burst_keys, _VOLUME_BURST_PERIOD_ARRAY,
                               _VOLUME_BURST_AMPLITUDES, coins, hours)
        # Mild time-of-day seasonality (UTC evening is busier).
        tod = 0.25 * np.sin(2 * np.pi * (hours % 24) / 24.0 - 1.2)
        log_volume = self._volume_base[c] + tod + noise + bursts
        if self._profiles:
            self._add_volume_overlay(log_volume, coins, hours)
        if self._phases is not None:
            self._phases.add_volume_overlay(self, log_volume.reshape(-1),
                                            *_flat(coins, hours))
        return np.exp(log_volume).reshape(shape)

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
