"""P&D event scheduling — who pumps what, where and when.

The scheduler turns each channel's latent strategy into a chronological
stream of pump events with the paper's empirical regularities:

* exchange mix ≈ Binance 63% / Yobit 21% / Hotbit 9% / Kucoin 3% (§4.2);
* multi-channel coordination (≈2.25 channels per Binance event);
* mid-cap, socially-loud targets (Figure 3, A1);
* ~60% of pumped coins were pumped before (§4.1);
* per-channel re-pump periodicity — the skip-correlation SNN exploits;
* larger pump magnitudes on thin exchanges (Yobit) than on Binance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.markets import PAIR_SYMBOLS
from repro.simulation.channels import ChannelPopulation, PumpChannel
from repro.simulation.coins import CoinUniverse
from repro.simulation.market import PumpProfile
from repro.utils.config import ReproConfig


@dataclass(frozen=True)
class PumpEvent:
    """One coordinated pump-and-dump.

    ``channel_ids[0]`` is the organizer; the rest joined the coordination.
    ``time`` is fractional hours since the world epoch.
    """

    event_id: int
    coin_id: int
    exchange_id: int
    pair: str
    time: float
    channel_ids: tuple[int, ...]
    profile: PumpProfile

    @property
    def hour(self) -> int:
        return int(np.floor(self.time))

    @property
    def n_channels(self) -> int:
        return len(self.channel_ids)


@dataclass
class EventLog:
    """All scheduled events plus per-channel chronological views."""

    events: list[PumpEvent] = field(default_factory=list)

    def by_channel(self) -> dict[int, list[PumpEvent]]:
        """channel_id -> its events, chronological (an event appears in
        every participating channel's history, as in the paper's Table 3)."""
        table: dict[int, list[PumpEvent]] = {}
        for event in self.events:
            for cid in event.channel_ids:
                table.setdefault(cid, []).append(event)
        for history in table.values():
            history.sort(key=lambda e: e.time)
        return table

    def samples(self) -> list[tuple[int, PumpEvent]]:
        """(channel_id, event) quintuple-equivalents — the paper's 'samples'."""
        out = []
        for event in self.events:
            for cid in event.channel_ids:
                out.append((cid, event))
        return out


class EventScheduler:
    """Generate the event log for a world."""

    def __init__(self, config: ReproConfig, universe: CoinUniverse,
                 channels: ChannelPopulation):
        self.config = config
        self.universe = universe
        self.channels = channels
        self._rng = np.random.default_rng(config.seed * 48611 + 29)

    # -- coin choice -------------------------------------------------------------

    def _candidate_weights(self, channel: PumpChannel, listed: np.ndarray,
                           pumped_before: set[int]) -> np.ndarray:
        """Selection weights over listed coins implementing A1 + A3."""
        universe = self.universe
        ranks = listed.astype(float) + 1.0
        log_center = np.log(channel.band_center)
        band = np.exp(
            -0.5 * ((np.log(ranks) - log_center) / channel.band_width) ** 2
        )
        cluster_boost = np.where(
            np.isin(universe.cluster[listed], channel.clusters), 4.0, 1.0
        )
        social = np.exp(0.45 * universe.social_score()[listed])
        seen_boost = np.array(
            [2.2 if int(c) in pumped_before else 1.0 for c in listed]
        )
        weights = band * cluster_boost * social * seen_boost
        # Pairing majors are never pump targets.
        weights[listed < len(PAIR_SYMBOLS)] = 0.0
        return weights

    _NO_REPEAT_RECENT = 2  # organizers never pump a coin twice in a row (§5.2)

    def _choose_coin(self, channel: PumpChannel, exchange_id: int, hour: float,
                     history: list[int], pumped_before: set[int]) -> int | None:
        rng = self._rng
        listed = self.universe.listed_coins(exchange_id, hour)
        if len(listed) <= len(PAIR_SYMBOLS):
            return None
        # Periodic re-pump: replay the coin selected `period` events ago.
        # (The paper: "a channel might pump a specific coin periodically but
        # never pump the coin continuously".)
        if (
            len(history) >= channel.period
            and rng.random() < channel.repump_prob
        ):
            replay = history[-channel.period]
            recent = set(history[-self._NO_REPEAT_RECENT:])
            if replay not in recent and self.universe.is_listed(
                replay, exchange_id, hour
            ):
                return int(replay)
        weights = self._candidate_weights(channel, listed, pumped_before)
        # Forbid immediate repeats: others would guess the coin otherwise.
        recent = history[-self._NO_REPEAT_RECENT:]
        for coin in recent:
            weights[listed == coin] = 0.0
        total = weights.sum()
        if total <= 0:
            return None
        return int(rng.choice(listed, p=weights / total))

    # -- scheduling ---------------------------------------------------------------

    def _pump_time(self, base_hour: float) -> float:
        """Snap to a 'scheduled' evening hour with a small minute offset."""
        rng = self._rng
        day = int(base_hour // 24)
        scheduled = int(rng.choice([15, 16, 17, 18, 19, 20], p=[0.1, 0.2, 0.35, 0.2, 0.1, 0.05]))
        minute_offset = float(rng.integers(0, 3)) / 60.0  # release lag 0-2 min
        return day * 24.0 + scheduled + minute_offset

    def _profile(self, exchange_id: int, time: float,
                 organizer: PumpChannel) -> PumpProfile:
        rng = self._rng
        # Thin exchanges pump harder (paper: Binance return ≈29% of Yobit's).
        if exchange_id == 0:
            peak = rng.uniform(np.log(1.35), np.log(2.4))
        elif exchange_id == 1:
            peak = rng.uniform(np.log(2.6), np.log(6.0))
        else:
            peak = rng.uniform(np.log(1.8), np.log(4.0))
        n_vip = int(rng.integers(1, 4))
        vip_times = tuple(float(t) for t in -rng.uniform(2.0, 40.0, n_vip))
        vip_sizes = tuple(float(s) for s in rng.uniform(0.008, 0.03, n_vip))
        return PumpProfile(
            time=time,
            accum_log=float(np.clip(rng.normal(0.095, 0.02), 0.04, 0.18)),
            peak_log=float(peak),
            settle_log=float(rng.normal(-0.02, 0.02)),
            dump_tau=float(rng.uniform(0.5, 3.0)),
            vip_times=vip_times,
            vip_sizes=vip_sizes,
            volume_peak_log=float(rng.uniform(2.6, 4.2)),
        )

    def _coordinators(self, organizer: PumpChannel,
                      hour: float) -> tuple[int, ...]:
        """Organizer plus 0-3 allied channels (cluster-mates join pumps)."""
        rng = self._rng
        allies: list[int] = []
        if rng.random() < 0.62:
            candidates = [
                c for c in self.channels.alive_pump_channels()
                if c.channel_id != organizer.channel_id
                and c.active_from <= hour
                and set(c.clusters) & set(organizer.clusters)
            ]
            if candidates:
                count = min(len(candidates), int(rng.integers(1, 4)))
                chosen = rng.choice(len(candidates), size=count, replace=False)
                allies = [candidates[int(i)].channel_id for i in chosen]
        return (organizer.channel_id, *allies)

    def schedule(self) -> EventLog:
        """Produce the full event log, chronologically sorted."""
        rng = self._rng
        config = self.config
        alive = self.channels.alive_pump_channels()
        if not alive:
            raise ValueError("no alive pump channels to schedule events for")
        # Organizer propensity grows with channel size.
        propensity = np.array([np.log1p(c.subscribers) for c in alive])
        propensity = propensity / propensity.sum()
        # Mild acceleration over time: later periods hold slightly more events.
        u = rng.random(config.n_events) ** 0.85
        base_hours = np.sort(u * (config.horizon_hours - 200.0) + 100.0)

        log = EventLog()
        per_channel_coins: dict[int, list[int]] = {c.channel_id: [] for c in alive}
        pumped_before: set[int] = set()
        event_id = 0
        for base_hour in base_hours:
            organizer = alive[int(rng.choice(len(alive), p=propensity))]
            if organizer.active_from > base_hour:
                continue
            exchange_id = int(
                rng.choice(config.n_exchanges, p=organizer.exchange_weights)
            )
            time = self._pump_time(base_hour)
            coin = self._choose_coin(
                organizer, exchange_id, time,
                per_channel_coins[organizer.channel_id], pumped_before,
            )
            if coin is None:
                continue
            pair = str(rng.choice(PAIR_SYMBOLS, p=[0.85, 0.1, 0.05]))
            channel_ids = self._coordinators(organizer, base_hour)
            event = PumpEvent(
                event_id=event_id,
                coin_id=coin,
                exchange_id=exchange_id,
                pair=pair,
                time=time,
                channel_ids=channel_ids,
                profile=self._profile(exchange_id, time, organizer),
            )
            log.events.append(event)
            event_id += 1
            pumped_before.add(coin)
            for cid in channel_ids:
                if cid in per_channel_coins:
                    per_channel_coins[cid].append(coin)
        log.events.sort(key=lambda e: e.time)
        return log
