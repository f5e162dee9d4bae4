"""Tests for channels, events, messages and the world facade."""

import numpy as np
import pytest

from repro.simulation import (
    ChannelPopulation,
    CoinUniverse,
    EventScheduler,
    MarketSimulator,
    MessageGenerator,
    SyntheticWorld,
)
from repro.types import PUMP_KINDS
from repro.utils import ReproConfig

CFG = ReproConfig.tiny()


@pytest.fixture(scope="module")
def world():
    return SyntheticWorld.generate(CFG)


class TestChannels:
    def test_deterministic(self, world):
        again = ChannelPopulation.generate(CFG, world.coins)
        assert [c.channel_id for c in again.pump_channels] == [
            c.channel_id for c in world.channels.pump_channels
        ]

    def test_channel_ids_unique(self, world):
        ids = world.channels.all_channel_ids()
        assert len(ids) == len(set(ids))

    def test_seed_list_contains_deleted_channels(self, world):
        seeds_all = world.channels.seed_channel_ids(include_deleted=True)
        seeds_alive = world.channels.seed_channel_ids(include_deleted=False)
        assert len(seeds_alive) <= len(seeds_all)

    def test_exchange_weights_are_distributions(self, world):
        for channel in world.channels.pump_channels:
            assert channel.exchange_weights.shape == (CFG.n_exchanges,)
            assert abs(channel.exchange_weights.sum() - 1.0) < 1e-9

    def test_invitation_graph_covers_alive_channels(self, world):
        graph = world.channels.invitations
        alive = {c.channel_id for c in world.channels.alive_pump_channels()}
        nodes = set(graph.nodes)
        assert alive <= nodes

    def test_bigger_channels_prefer_bigger_caps(self, world):
        chans = world.channels.pump_channels
        subs = np.array([c.subscribers for c in chans], dtype=float)
        centers = np.array([c.band_center for c in chans])
        # Rank correlation between size and band center must be negative
        # (low rank index = big cap).
        order_subs = np.argsort(np.argsort(subs)).astype(float)
        order_cent = np.argsort(np.argsort(centers)).astype(float)
        corr = np.corrcoef(order_subs, order_cent)[0, 1]
        assert corr < 0.1


class TestEvents:
    def test_events_sorted_and_ids_unique(self, world):
        times = [e.time for e in world.events.events]
        assert times == sorted(times)
        ids = [e.event_id for e in world.events.events]
        assert len(ids) == len(set(ids))

    def test_pumped_coins_are_listed_and_not_majors(self, world):
        for event in world.events.events:
            assert event.coin_id >= 3
            assert world.coins.is_listed(event.coin_id, event.exchange_id, event.time)

    def test_exchange_mix_is_binance_heavy(self, world):
        exchanges = [e.exchange_id for e in world.events.events]
        share = exchanges.count(0) / len(exchanges)
        assert share > 0.4

    def test_multi_channel_events_exist(self, world):
        counts = [e.n_channels for e in world.events.events]
        assert max(counts) >= 2
        assert 1.2 < np.mean(counts) < 4.0

    def test_repump_rate_substantial(self, world):
        seen = set()
        repumps = 0
        for event in world.events.events:
            if event.coin_id in seen:
                repumps += 1
            seen.add(event.coin_id)
        assert repumps / len(world.events.events) > 0.25

    def test_by_channel_is_chronological(self, world):
        for history in world.events.by_channel().values():
            times = [e.time for e in history]
            assert times == sorted(times)

    def test_organizer_is_first_channel(self, world):
        pump_ids = {c.channel_id for c in world.channels.pump_channels}
        for event in world.events.events:
            assert event.channel_ids[0] in pump_ids

    def test_intra_channel_homogeneity(self, world):
        """Per-channel spread of log cap is below the global spread (A3)."""
        caps = world.coins.market_cap
        global_spread = np.std(
            [np.log(caps[e.coin_id]) for e in world.events.events]
        )
        spreads = []
        for history in world.events.by_channel().values():
            if len(history) >= 5:
                spreads.append(np.std([np.log(caps[e.coin_id]) for e in history]))
        assert spreads, "no channel with enough history"
        assert np.mean(spreads) < global_spread


class TestMessages:
    def test_every_event_has_release_and_announcement(self, world):
        kinds_by_event: dict[int, set] = {}
        for message in world.messages:
            if message.event_id >= 0:
                kinds_by_event.setdefault(message.event_id, set()).add(message.kind)
        for event in world.events.events:
            kinds = kinds_by_event[event.event_id]
            assert "release" in kinds
            assert "announcement" in kinds

    def test_pump_message_label_matches_kinds(self, world):
        for message in world.messages:
            assert message.is_pump_message == (message.kind in PUMP_KINDS)

    def test_messages_sorted_by_time(self, world):
        times = [m.time for m in world.messages]
        assert times == sorted(times)

    def test_release_text_contains_symbol_or_image(self, world):
        symbol_set = set(world.coins.symbols)
        for message in world.messages:
            if message.kind == "release":
                stripped = message.text.replace("Coin: ", "")
                assert stripped in symbol_set or "image" in stripped

    def test_invites_reference_real_channels(self, world):
        import re

        all_ids = set(world.channels.all_channel_ids())
        for message in world.messages:
            if message.kind == "invite":
                target = int(re.search(r"joinchat/(\d+)", message.text).group(1))
                assert target in all_ids

    def test_btc_stream_density_and_kinds(self, world):
        gen = world.message_generator()
        stream = gen.generate_btc_stream(100, 200, per_hour=3.0)
        assert 100 < len(stream) < 600
        assert {m.kind for m in stream} <= {"sentiment", "generic"}

    def test_btc_stream_rejects_bad_range(self, world):
        with pytest.raises(ValueError):
            world.message_generator().generate_btc_stream(10, 10)

    def test_sentiment_tracks_mood(self, world):
        """Positive-bank messages dominate when the mood is high."""
        from repro.text import SentimentAnalyzer

        gen = world.message_generator()
        stream = gen.generate_btc_stream(0, CFG.forecast_hours, per_hour=2.0)
        analyzer = SentimentAnalyzer()
        mood = world.market.market_mood(np.array([m.time for m in stream]))
        compound = np.array([analyzer.score(m.text).compound for m in stream])
        mask = np.abs(mood) > 1.0
        corr = np.corrcoef(mood[mask], compound[mask])[0, 1]
        assert corr > 0.3


class TestWorldFacade:
    def test_summary_shape(self, world):
        summary = world.summary()
        assert summary["events"] > 0
        assert summary["samples"] >= summary["events"]
        assert summary["coins"] <= summary["samples"]
        assert summary["messages"] == len(world.messages)

    def test_deterministic_world(self):
        w1 = SyntheticWorld.generate(CFG)
        w2 = SyntheticWorld.generate(CFG)
        assert [e.coin_id for e in w1.events.events] == [
            e.coin_id for e in w2.events.events
        ]
        assert [m.text for m in w1.messages[:200]] == [
            m.text for m in w2.messages[:200]
        ]

    def test_different_seeds_differ(self):
        w1 = SyntheticWorld.generate(CFG)
        w2 = SyntheticWorld.generate(CFG.with_(seed=CFG.seed + 1))
        assert [e.coin_id for e in w1.events.events] != [
            e.coin_id for e in w2.events.events
        ]

    def test_corpus_matches_messages(self, world):
        corpus = world.telegram_corpus()
        assert len(corpus) == len(world.messages)

    def test_messages_by_channel_complete(self, world):
        total = sum(len(v) for v in world.messages_by_channel.values())
        assert total == len(world.messages)
