"""Accumulation/ignition phase generators for SyntheticWorld scenarios.

The base simulator already plants the paper's *statistical* pre-pump
anatomy (Figure 4 ramps).  Phase profiles plant the sharper
microstructure patterns the §5.1 window features do **not** capture —
the ground truth the :mod:`repro.signals` engine is built to hit:

* **accumulation** — an extra slow log-price run-up with buy-side
  turnover imbalance (volume concentrated in up-hours);
* **quiet squeeze** — idiosyncratic price noise damped in the final
  hours before ignition (volatility compression);
* **ignition** — a last-hours volume surge with the price still pinned
  (volume-price decoupling).

Every event's target coin gets a full-strength profile; a few decoy
coins get the same treatment at a fraction of the amplitude, so signals
separate targets by *degree*, not by mere presence of activity.

Phase parameters derive from event fields through the counter-based
hash (no stateful RNG stream is consumed), and the simulator applies
them only when :meth:`MarketSimulator.attach_phases` was called — a
world without phases stays bit-for-bit identical to before this module
existed (pinned by tests/simulation/test_phases.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.markets import PAIR_SYMBOLS
from repro.simulation.market import _ProfileTable
from repro.utils.hashrng import hash_uniform

#: Hash stream tag for phase parameters (market streams use 1..7).
_PHASE_STREAM = 11

#: Phase window boundaries, hours relative to the pump.
ACCUMULATION_START = -60.0
IGNITION_START = -6.0
#: Idiosyncratic-noise damping window (the pre-ignition "quiet squeeze").
COMPRESSION_START = -18.0

#: Decoy coins per event, at this fraction of the target's amplitudes.
DECOYS_PER_EVENT = 2
DECOY_SCALE = 0.35


@dataclass(frozen=True)
class PhaseProfile:
    """One coin's accumulation/ignition treatment around one pump."""

    coin_id: int
    time: float                 # pump time in fractional hours
    runup_log: float            # extra log-price drift over accumulation
    accum_volume_log: float     # log-volume lift over accumulation
    ignition_volume_log: float  # log-volume surge over ignition
    imbalance_log: float        # up-hour vs down-hour log-volume skew
    noise_damp: float           # fraction of price noise removed pre-pump


def _profile(event, coin_id: int, seed: int, tag: int,
             scale: float) -> PhaseProfile:
    """Derive one coin's phase parameters from hashed event fields."""
    u = np.array([
        float(hash_uniform(seed, _PHASE_STREAM, event.event_id, tag, k))
        for k in range(4)
    ])
    return PhaseProfile(
        coin_id=int(coin_id),
        time=float(event.time),
        runup_log=scale * (0.05 + 0.04 * u[0]),
        accum_volume_log=scale * (0.45 + 0.30 * u[1]),
        ignition_volume_log=scale * (1.10 + 0.50 * u[2]),
        imbalance_log=scale * (0.30 + 0.20 * u[3]),
        noise_damp=min(scale * 0.75, 0.95),
    )


def phase_profiles_for(events: Iterable, n_coins: int,
                       seed: int) -> list[PhaseProfile]:
    """Target + decoy phase profiles for every pump event."""
    tradable = n_coins - len(PAIR_SYMBOLS)
    if tradable <= 0:
        raise ValueError("universe has no tradable coins for phases")
    profiles = []
    for event in events:
        profiles.append(_profile(event, event.coin_id, seed, 0, 1.0))
        for j in range(DECOYS_PER_EVENT):
            pick = int(hash_uniform(
                seed, _PHASE_STREAM, event.event_id, 100 + j
            ) * tradable)
            decoy = len(PAIR_SYMBOLS) + (pick % tradable)
            if decoy == event.coin_id:
                decoy = len(PAIR_SYMBOLS) + ((pick + 1) % tradable)
            profiles.append(_profile(event, decoy, seed, 100 + j,
                                     DECOY_SCALE))
    return profiles


def _smoothstep(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, 0.0, 1.0)
    return x * x * (3.0 - 2.0 * x)


class PhaseIndex(_ProfileTable):
    """Flattened phase-profile table for vectorized overlay evaluation.

    Shares the market's per-coin layout and pair expansion, so phase terms
    accumulate with ``np.add.at`` in registration order — deterministic
    regardless of query shape.
    """

    def __init__(self, n_coins: int, profiles: Iterable[PhaseProfile]):
        by_coin: dict[int, list[PhaseProfile]] = {}
        for profile in profiles:
            by_coin.setdefault(profile.coin_id, []).append(profile)
        super().__init__(n_coins, by_coin)
        rows = self.rows
        self.runup = np.array([p.runup_log for p in rows], dtype=np.float64)
        self.avol = np.array([p.accum_volume_log for p in rows],
                             dtype=np.float64)
        self.ivol = np.array([p.ignition_volume_log for p in rows],
                             dtype=np.float64)
        self.imb = np.array([p.imbalance_log for p in rows], dtype=np.float64)
        self.damp = np.array([p.noise_damp for p in rows], dtype=np.float64)

    def add_price_overlay(self, market, out: np.ndarray,
                          coin_ids: np.ndarray, hours: np.ndarray) -> None:
        """Accumulation run-up and pre-ignition noise damping (flat arrays)."""
        pairs = self.pairs(coin_ids, hours[:, None])
        if pairs is None:
            return
        sel, rep, prof, d = pairs
        d = d.reshape(-1)
        span = -ACCUMULATION_START
        ramp = self.runup[prof] * _smoothstep((d - ACCUMULATION_START) / span)
        # Carry the accumulated premium through the pump, then fade it with
        # the dump so the post-event price path stays continuous-ish.
        term = np.where(d < 0, ramp,
                        self.runup[prof] * np.exp(-np.maximum(d, 0.0) / 6.0))
        # Quiet squeeze: remove a fraction of this hour's idiosyncratic
        # noise (the same draws the base price used) inside the
        # compression window only, so the recent-window return std drops
        # below the 72 h baseline.
        squeeze = (d >= COMPRESSION_START) & (d < 0)
        if squeeze.any():
            q = np.flatnonzero(squeeze)
            hourly, octaves = market.price_noise(coin_ids[rep[q]],
                                                 hours[rep[q]])
            noise = hourly + octaves
            damped = np.zeros_like(d)
            damped[q] = -self.damp[prof[q]] * noise
            term = term + damped
        overlay = np.zeros_like(out)
        np.add.at(overlay, rep, term)
        out[sel] += overlay[sel]

    def add_volume_overlay(self, market, out: np.ndarray,
                           coin_ids: np.ndarray, hours: np.ndarray) -> None:
        """Accumulation lift, buy-side imbalance and ignition surge."""
        pairs = self.pairs(coin_ids, hours[:, None])
        if pairs is None:
            return
        sel, rep, prof, d = pairs
        d = d.reshape(-1)
        accum = (d >= ACCUMULATION_START) & (d < IGNITION_START)
        span = IGNITION_START - ACCUMULATION_START
        lift = np.where(
            accum,
            self.avol[prof] * _smoothstep((d - ACCUMULATION_START) / span),
            0.0,
        )
        surge_frac = _smoothstep((d - IGNITION_START) / -IGNITION_START)
        surge = np.where(
            (d >= IGNITION_START) & (d < 0),
            self.ivol[prof] * surge_frac,
            np.where(d >= 0,
                     self.ivol[prof] * np.exp(-np.maximum(d, 0.0) / 12.0),
                     0.0),
        )
        # Buy-side turnover: skew volume toward up-hours during the whole
        # pre-pump window (the signed hourly return comes from the full
        # price path, phases included, of the affected coins only).
        window = (d >= ACCUMULATION_START) & (d < 0)
        imbalance = np.zeros_like(d)
        if window.any():
            q = np.flatnonzero(window)
            qc = coin_ids[rep[q]]
            qh = np.floor(hours[rep[q]])
            up = market.log_close(qc, qh) - market.log_close(qc, qh - 1.0) > 0
            imbalance[q] = np.where(up, self.imb[prof[q]],
                                    -0.5 * self.imb[prof[q]])
        overlay = np.zeros_like(out)
        np.add.at(overlay, rep, lift + surge + imbalance)
        out[sel] += overlay[sel]


def generate_phase_world(config):
    """A SyntheticWorld whose pump events exhibit explicit phases.

    Identical to :meth:`SyntheticWorld.generate` — same coins, channels,
    events and messages (no RNG stream is perturbed) — with phase
    overlays attached to the market afterwards.
    """
    from repro.simulation.world import SyntheticWorld

    world = SyntheticWorld.generate(config)
    world.market.attach_phases(phase_profiles_for(
        world.events.events, world.coins.n_coins, world.config.seed
    ))
    return world


__all__ = [
    "ACCUMULATION_START",
    "COMPRESSION_START",
    "DECOY_SCALE",
    "DECOYS_PER_EVENT",
    "IGNITION_START",
    "PhaseIndex",
    "PhaseProfile",
    "generate_phase_world",
    "phase_profiles_for",
]
