"""Telegram message generation — the raw-text substrate of §3.

Produces the full message stream the data-collection pipeline consumes:

* per-event pump choreography: announcement → countdowns/rules → "next
  message will be the coin name" → coin release (occasionally an OCR-proof
  image) → post-pump review, in *every* coordinating channel;
* VIP pre-releases in private partner channels (hours before the pump);
* cluster-themed coin chatter (same-cluster coins co-occur — the semantic
  signal behind Figure 6 and the cold-start word embeddings);
* sentiment chatter whose polarity tracks the latent market mood (the §7
  forecasting signal);
* invitation adverts realizing the channel graph's edges (snowball food);
* keyword-free generic noise the §3.2 filter must discard.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.simulation.channels import ChannelPopulation
from repro.simulation.coins import CoinUniverse
from repro.simulation.events import PumpEvent
from repro.simulation.market import MarketSimulator
from repro.types import OCR_IMAGE_TEXT, Message
from repro.utils.config import ReproConfig
from repro.utils.timeutil import to_timestamp

__all__ = ["MessageGenerator"]

_COUNTDOWN_OFFSETS = (36.0, 24.0, 12.0, 6.0, 3.0, 1.0, 0.5)

_GENERIC_BANK = (
    "gm everyone, wish you a wonderful day",
    "anyone watching the football game tonight?",
    "what wallet do you recommend for staking?",
    "the conference last week was interesting",
    "happy new year to this community",
    "did you read the whitepaper they published?",
    "my internet keeps dropping today, sorry if i miss replies",
    "welcome to all new members, say hi",
    "weather is crazy here, stuck inside all weekend",
    "who is going to the meetup in singapore?",
)

_POSITIVE_BANK = (
    "btc looking very bullish today, huge gains incoming",
    "bitcoin breakout soon, feeling extremely good about this rally",
    "massive green candles, btc to the moon, easy profit",
    "loving this bitcoin strength, buy the dip, gains everywhere",
    "btc recovery is strong, very confident, great opportunity",
)

_NEGATIVE_BANK = (
    "btc looking weak, fear everywhere, expecting a crash",
    "bitcoin dumping hard, terrible losses today",
    "this btc chart is bleeding, panic selling everywhere",
    "bearish on bitcoin, risky market, expecting lower lows",
    "btc collapse incoming, worried about my bags",
)

_TOPIC_TEMPLATES = (
    "{a} and {b} charts look similar, watching both closely",
    "accumulating {a}, also keeping an eye on {b} and {c}",
    "{a} volume rising, {b} might follow like last time",
    "anyone holding {a}? thinking of swapping some into {b}",
    "{a} {b} {c} all in the same sector, one of them will move",
)

# Pump-adjacent vocabulary in innocent contexts: these pass the keyword
# filter but are ground-truth non-pump, giving the Table 1 classifiers a
# realistic error surface instead of a trivially separable corpus.
_HARD_NEGATIVE_BANK = (
    "that pump yesterday was crazy, glad i stayed out of it",
    "be careful with pump groups, members always hold the bag",
    "stop asking when pump, nobody can time this market",
    "my portfolio could use a pump to be honest",
    "price target for btc this year? any predictions",
    "i never sell at a loss, i just hold until it is green again",
    "3 hours left until the binance maintenance window, be ready",
    "the volume on binance today is absolutely insane",
    "lost money following paid signals last month, never again",
    "they said buy fast and hold, classic recipe to get dumped on",
    "reminder that the exchange delists three pairs tomorrow",
    "only 10 minutes left in the trading competition, good luck",
    # Terse countdowns for maintenance windows / trading competitions: these
    # are *string-identical* to terse pump countdowns, so no text classifier
    # can resolve them — the irreducible error real annotators face.
    "36 hours left!",
    "24 hours left!",
    "12 hours left!",
    "6 hours left!",
    "3 hours left!",
    "1 hours left!",
    "30 minutes left!",
    "10 minutes left!",
)


class MessageGenerator:
    """Deterministic message-stream builder for a world."""

    def __init__(self, config: ReproConfig, universe: CoinUniverse,
                 channels: ChannelPopulation, market: MarketSimulator):
        self.config = config
        self.universe = universe
        self.channels = channels
        self.market = market
        self._rng = np.random.default_rng(config.seed * 92821 + 5)
        self._next_id = 0
        self._pools: dict[int, np.ndarray] = {}

    def _emit(self, out: list[Message], channel_id: int, time: float, text: str,
              kind: str, event_id: int = -1) -> None:
        out.append(Message(self._next_id, int(channel_id), float(time), text,
                           kind, event_id))
        self._next_id += 1

    # -- pump choreography ---------------------------------------------------

    def _announcement_text(self, event: PumpEvent) -> str:
        exchange = self.universe.exchange_name(event.exchange_id)
        when = to_timestamp(event.hour)
        return (
            f"BIG PUMP ANNOUNCEMENT! Next pump on {exchange} at {when} UTC. "
            f"Pair: {event.pair}. Transfer your {event.pair} in advance and be "
            f"ready to buy fast. Our next target will bring huge profit!"
        )

    def _countdown_text(self, hours_left: float, event: PumpEvent) -> str:
        exchange = self.universe.exchange_name(event.exchange_id)
        # A slice of countdowns is terse — low lexical overlap with the
        # announcement templates, which keeps detection from being trivial.
        if self._rng.random() < 0.15:
            if hours_left >= 1.0:
                return f"{int(hours_left)} hours left!"
            return f"{int(hours_left * 60)} minutes left!"
        if hours_left >= 1.0:
            lead = f"{int(hours_left)} hours left until the pump on {exchange}!"
        else:
            lead = f"Only {int(hours_left * 60)} minutes left! Stay tuned."
        return lead + " Pump rules: buy fast, hold, do not sell immediately."

    def _release_text(self, event: PumpEvent) -> str:
        if self._rng.random() < 0.06:
            return OCR_IMAGE_TEXT  # anti-OCR image release
        symbol = self.universe.symbols[event.coin_id]
        if self._rng.random() < 0.5:
            return symbol
        return f"Coin: {symbol}"

    def _review_text(self, event: PumpEvent) -> str:
        symbol = self.universe.symbols[event.coin_id]
        gain = int((np.exp(event.profile.peak_log) - 1.0) * 100)
        return (
            f"What a pump! {symbol} reached +{gain}% within minutes. "
            f"Congrats to everyone who followed the signal, huge profit!"
        )

    def generate_event_messages(self, events: Iterable[PumpEvent]) -> list[Message]:
        """Full pump choreography for every event and coordinating channel."""
        rng = self._rng
        out: list[Message] = []
        for event in events:
            for channel_id in event.channel_ids:
                announce_at = event.time - rng.uniform(48.0, 120.0)
                self._emit(out, channel_id, announce_at,
                           self._announcement_text(event), "announcement",
                           event.event_id)
                for offset in _COUNTDOWN_OFFSETS:
                    if rng.random() < 0.85:
                        self._emit(out, channel_id, event.time - offset,
                                   self._countdown_text(offset, event),
                                   "countdown", event.event_id)
                self._emit(out, channel_id, event.time - 2.0 / 60.0,
                           "The next message will be the coin name!",
                           "final_call", event.event_id)
                self._emit(out, channel_id, event.time,
                           self._release_text(event), "release", event.event_id)
                if rng.random() < 0.8:
                    self._emit(out, channel_id, event.time + rng.uniform(0.2, 2.0),
                               self._review_text(event), "review", event.event_id)
            # VIP pre-release in the organizer's private channel.
            organizer = self.channels.pump_by_id().get(event.channel_ids[0])
            if organizer is not None and organizer.vip_channel_id is not None:
                lead = rng.uniform(0.5, 6.0)
                symbol = self.universe.symbols[event.coin_id]
                self._emit(
                    out, organizer.vip_channel_id, event.time - lead,
                    f"VIP early call: {symbol}. Accumulate quietly before the "
                    f"public release.",
                    "vip_release", event.event_id,
                )
        return out

    # -- chatter -------------------------------------------------------------------

    def _cluster_symbols(self, cluster: int) -> np.ndarray:
        """The cluster's symbols as the array ``rng.choice`` would build
        from their list, built once per cluster."""
        pool = self._pools.get(cluster)
        if pool is None:
            ids = np.flatnonzero(self.universe.cluster == cluster)
            ids = ids[ids >= 3]  # skip pairing majors
            pool = np.array([self.universe.symbols[i] for i in ids])
            self._pools[cluster] = pool
        return pool

    def _topic_text(self, cluster: int) -> str:
        rng = self._rng
        pool = self._cluster_symbols(cluster)
        if len(pool) < 3:
            return _GENERIC_BANK[rng.integers(len(_GENERIC_BANK))]
        picks = rng.choice(pool, size=3, replace=False)
        template = _TOPIC_TEMPLATES[rng.integers(len(_TOPIC_TEMPLATES))]
        return template.format(a=picks[0].lower(), b=picks[1].lower(),
                               c=picks[2].lower())

    def _sentiment_text(self, mood: float) -> str:
        """BTC chatter whose polarity follows the latent market ``mood``
        at the message's time."""
        p_pos = 1.0 / (1.0 + np.exp(-(2.2 * mood + self._rng.normal(0, 0.5))))
        bank = _POSITIVE_BANK if self._rng.random() < p_pos else _NEGATIVE_BANK
        return bank[self._rng.integers(len(bank))]

    def generate_chatter(self) -> list[Message]:
        """Background traffic for every channel plus invitation adverts."""
        rng = self._rng
        config = self.config
        out: list[Message] = []
        horizon = float(config.horizon_hours)
        pump_by_id = self.channels.pump_by_id()

        def channel_chatter(channel_id: int, cluster: int, count: int) -> None:
            times = np.sort(rng.uniform(0, horizon, count))
            # The mood is elementwise in time and draws nothing from rng.
            moods = self.market.market_mood(times)
            for t, mood in zip(times, moods):
                roll = rng.random()
                if roll < 0.3:
                    self._emit(out, channel_id, t, self._topic_text(cluster), "topic")
                elif roll < 0.5:
                    self._emit(out, channel_id, t, self._sentiment_text(float(mood)),
                               "sentiment")
                elif roll < 0.72:
                    self._emit(out, channel_id, t,
                               _HARD_NEGATIVE_BANK[
                                   rng.integers(len(_HARD_NEGATIVE_BANK))],
                               "generic")
                else:
                    self._emit(out, channel_id, t,
                               _GENERIC_BANK[rng.integers(len(_GENERIC_BANK))],
                               "generic")

        for channel in self.channels.pump_channels:
            if channel.deleted:
                continue
            cluster = channel.clusters[0]
            channel_chatter(channel.channel_id, cluster,
                            max(4, config.chatter_per_channel // 2))
        for channel in self.channels.noise_channels:
            channel_chatter(channel.channel_id, channel.cluster,
                            config.chatter_per_channel)

        # Invitation adverts realize the exploration graph's edges.
        for src, dst in self.channels.invitations.edges():
            for _ in range(int(rng.integers(1, 3))):
                t = rng.uniform(0, horizon)
                self._emit(
                    out, src, t,
                    f"Our partner channel posts the best signals, join "
                    f"t.me/joinchat/{dst} before the next big move!",
                    "invite",
                )
        return out

    # -- dense BTC stream for the forecasting task (§7) -----------------------------

    def generate_btc_stream(self, start_hour: int, end_hour: int,
                            per_hour: float = 4.0) -> list[Message]:
        """Dense BTC-related group chatter between two hours.

        Message volume varies by hour (Poisson) and polarity tracks the
        market mood, mirroring the trading groups of §7.
        """
        if end_hour <= start_hour:
            raise ValueError("end_hour must exceed start_hour")
        rng = self._rng
        out: list[Message] = []
        group_ids = [c.channel_id for c in self.channels.noise_channels[:8]] or [1]
        for hour in range(start_hour, end_hour):
            count = int(rng.poisson(per_hour))
            for _ in range(count):
                t = hour + rng.random()
                channel = group_ids[rng.integers(len(group_ids))]
                if rng.random() < 0.75:
                    mood = float(self.market.market_mood(np.array([t]))[0])
                    self._emit(out, channel, t, self._sentiment_text(mood),
                               "sentiment")
                else:
                    self._emit(out, channel, t,
                               _GENERIC_BANK[rng.integers(len(_GENERIC_BANK))],
                               "generic")
        return out

    # -- facade ---------------------------------------------------------------------

    def generate_all(self, events: Sequence[PumpEvent]) -> list[Message]:
        """Event choreography + chatter, chronologically sorted."""
        messages = self.generate_event_messages(events) + self.generate_chatter()
        messages.sort(key=lambda m: m.time)
        return messages
