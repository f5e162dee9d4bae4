"""Tests for the OCR-image market-reaction fallback."""

import numpy as np
import pytest

from repro.data import ChannelExplorer, run_detection_pipeline, sessionize
from repro.data.market_resolution import (
    find_image_release_sessions,
    recover_image_samples,
    resolve_image_release,
)
from repro.data.sessions import Session
from repro.markets import EXCHANGE_NAMES
from repro.simulation import SyntheticWorld
from repro.types import OCR_IMAGE_TEXT, Message
from repro.utils import ReproConfig

CFG = ReproConfig.tiny()


@pytest.fixture(scope="module")
def world():
    return SyntheticWorld.generate(CFG)


def _image_session(channel_id: int, time: float) -> Session:
    return Session(channel_id=channel_id, messages=[
        Message(0, channel_id, time - 24.0,
                "BIG PUMP ANNOUNCEMENT! Next pump on Binance at soon UTC. "
                "Pair: BTC.", "announcement"),
        Message(1, channel_id, time, OCR_IMAGE_TEXT, "release"),
    ])


class TestResolution:
    def test_finds_image_sessions(self, world):
        sessions = [
            _image_session(1, 1000.0),
            Session(channel_id=2, messages=[
                Message(2, 2, 0.0, "plain text", "generic")
            ]),
        ]
        assert len(find_image_release_sessions(sessions)) == 1

    def test_resolves_actual_pump_coin(self, world):
        # Use a real event from the world: its pump spike is in the market.
        event = next(e for e in world.events.events if e.exchange_id == 0)
        session = _image_session(event.channel_ids[0], event.time)
        resolution = resolve_image_release(session, world.market, exchange_id=0)
        assert resolution.coin_id == event.coin_id
        assert resolution.spike_return > 0.25

    def test_quiet_time_resolves_to_none(self, world):
        # Pick an hour without any event within a day.
        event_hours = {int(e.time) for e in world.events.events}
        quiet = next(
            h for h in range(2000, CFG.horizon_hours)
            if all(abs(h - eh) > 48 for eh in event_hours)
        )
        session = _image_session(1, float(quiet))
        resolution = resolve_image_release(session, world.market, exchange_id=0)
        assert resolution.coin_id is None

    def test_session_without_image_resolves_none(self, world):
        session = Session(channel_id=1, messages=[
            Message(0, 1, 100.0, "pump soon", "countdown")
        ])
        resolution = resolve_image_release(session, world.market)
        assert resolution.coin_id is None


class TestRecoveryOnPipeline:
    def test_recovery_adds_samples(self, world):
        explorer = ChannelExplorer(world.channels, world.messages, max_hops=2)
        collected = explorer.collect_messages(
            explorer.explore(world.channels.seed_channel_ids())
        )
        names = EXCHANGE_NAMES[: CFG.n_exchanges]
        outcome = run_detection_pipeline(collected, world.coins.symbols, names,
                                         n_label=500, seed=0)
        sessions = sessionize(outcome.detected)
        recovered = recover_image_samples(sessions, world.market,
                                          world.coins.symbols, names)
        # The tiny world has few image releases; recovery may be empty but
        # must never invent coins for text-resolvable sessions.
        truth = {
            (cid, e.coin_id): e.time
            for e in world.events.events for cid in e.channel_ids
        }
        for sample in recovered:
            key = (sample.channel_id, sample.coin_id)
            assert key in truth
            assert abs(truth[key] - sample.time) < 2.0
