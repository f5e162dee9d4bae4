"""The SyntheticWorld facade — one call builds the entire substrate.

A world bundles the coin universe, channel population, scheduled P&D
events, the market simulator (with event overlays attached) and the full
Telegram message stream.  Everything is deterministic in ``config.seed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.simulation.channels import ChannelPopulation
from repro.simulation.coins import CoinUniverse
from repro.simulation.events import EventLog, EventScheduler
from repro.simulation.market import MarketSimulator
from repro.simulation.messages import MessageGenerator
from repro.types import Message
from repro.utils.config import ReproConfig


@dataclass
class SyntheticWorld:
    """A fully-materialized simulated ecosystem."""

    config: ReproConfig
    coins: CoinUniverse
    channels: ChannelPopulation
    events: EventLog
    market: MarketSimulator
    messages: list[Message]

    @classmethod
    def generate(cls, config: ReproConfig | None = None) -> "SyntheticWorld":
        """Build a world (config defaults to the fast ``small`` scale)."""
        config = config or ReproConfig.small()
        coins = CoinUniverse.generate(config)
        channels = ChannelPopulation.generate(config, coins)
        market = MarketSimulator(coins)
        events = EventScheduler(config, coins, channels).schedule()
        market.attach_events(events.events)
        messages = MessageGenerator(config, coins, channels, market).generate_all(
            events.events
        )
        return cls(
            config=config,
            coins=coins,
            channels=channels,
            events=events,
            market=market,
            messages=messages,
        )

    # -- convenience views -------------------------------------------------------

    @cached_property
    def messages_by_channel(self) -> dict[int, list[Message]]:
        """channel_id -> chronological messages."""
        table: dict[int, list[Message]] = {}
        for message in self.messages:
            table.setdefault(message.channel_id, []).append(message)
        for messages in table.values():
            messages.sort(key=lambda m: m.time)
        return table

    def telegram_corpus(self) -> list[str]:
        """All message texts (the word2vec pre-training corpus of §5.3)."""
        return [m.text for m in self.messages]

    def message_generator(self) -> MessageGenerator:
        """A fresh generator sharing this world's substrate (used by §7)."""
        return MessageGenerator(self.config, self.coins, self.channels, self.market)

    def summary(self) -> dict[str, int]:
        """Counts in the shape of the paper's Table 2."""
        events = self.events.events
        return {
            "samples": sum(e.n_channels for e in events),
            "events": len(events),
            "channels": len({cid for e in events for cid in e.channel_ids}),
            "coins": len({e.coin_id for e in events}),
            "exchanges": len({e.exchange_id for e in events}),
            "messages": len(self.messages),
        }
