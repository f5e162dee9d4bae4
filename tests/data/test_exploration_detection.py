"""Tests for snowball exploration and pump-message detection."""

import numpy as np
import pytest

from repro.data import (
    ChannelExplorer,
    DETECTION_THRESHOLD,
    PumpMessageDetector,
    extract_invite_links,
    run_detection_pipeline,
)
from repro.markets import EXCHANGE_NAMES
from repro.simulation import SyntheticWorld
from repro.utils import ReproConfig

CFG = ReproConfig.tiny()


@pytest.fixture(scope="module")
def world():
    return SyntheticWorld.generate(CFG)


@pytest.fixture(scope="module")
def explorer(world):
    return ChannelExplorer(world.channels, world.messages, max_hops=2)


class TestInviteLinks:
    def test_extracts_ids(self):
        assert extract_invite_links("join t.me/joinchat/123 now") == [123]

    def test_multiple_links(self):
        text = "t.me/joinchat/1 and t.me/joinchat/2"
        assert extract_invite_links(text) == [1, 2]

    def test_no_links(self):
        assert extract_invite_links("no links here") == []


class TestExploration:
    def test_dead_seeds_detected(self, world, explorer):
        result = explorer.explore(world.channels.seed_channel_ids())
        expected_dead = {
            c.channel_id for c in world.channels.pump_channels
            if c.is_seed and c.deleted
        }
        assert set(result.dead_seed_ids) == expected_dead

    def test_discovers_new_channels(self, world, explorer):
        result = explorer.explore(world.channels.seed_channel_ids())
        assert len(result.discovered_ids) > 0
        seeds = set(result.seed_ids)
        assert all(cid not in seeds for cid in result.discovered_ids)

    def test_hop_bound_respected(self, world, explorer):
        result = explorer.explore(world.channels.seed_channel_ids())
        assert max(result.hops.values()) <= 2

    def test_zero_hops_explores_only_seeds(self, world):
        explorer0 = ChannelExplorer(world.channels, world.messages, max_hops=0)
        result = explorer0.explore(world.channels.seed_channel_ids())
        alive_seeds = set(world.channels.seed_channel_ids(include_deleted=False))
        assert set(result.explored_ids) <= alive_seeds
        assert not result.discovered_ids

    def test_more_hops_finds_no_fewer(self, world):
        seeds = world.channels.seed_channel_ids()
        one = ChannelExplorer(world.channels, world.messages, max_hops=1).explore(seeds)
        two = ChannelExplorer(world.channels, world.messages, max_hops=2).explore(seeds)
        assert set(one.explored_ids) <= set(two.explored_ids)

    def test_collect_messages_only_from_explored(self, world, explorer):
        result = explorer.explore(world.channels.seed_channel_ids())
        collected = explorer.collect_messages(result)
        explored = set(result.explored_ids)
        assert all(m.channel_id in explored for m in collected)
        times = [m.time for m in collected]
        assert times == sorted(times)

    def test_invalid_hops_rejected(self, world):
        with pytest.raises(ValueError):
            ChannelExplorer(world.channels, world.messages, max_hops=-1)


class TestDetection:
    @pytest.fixture(scope="class")
    def outcome(self, world, explorer):
        result = explorer.explore(world.channels.seed_channel_ids())
        collected = explorer.collect_messages(result)
        return run_detection_pipeline(
            collected,
            coin_symbols=world.coins.symbols,
            exchange_names=EXCHANGE_NAMES[: CFG.n_exchanges],
            n_label=800,
            seed=CFG.seed,
        )

    def test_both_models_reported(self, outcome):
        assert set(outcome.reports) == {"lr", "rf"}

    def test_detection_quality_matches_paper_band(self, outcome):
        for report in outcome.reports.values():
            assert report.auc > 0.9
            assert report.f1 > 0.75
            assert report.recall > 0.8  # low threshold maximizes recall

    def test_filter_reduces_and_detection_reduces_further(self, outcome):
        assert outcome.n_filtered < outcome.n_total
        assert len(outcome.detected) <= outcome.n_filtered

    def test_detected_mostly_pump(self, outcome):
        truth = np.array([m.is_pump_message for m in outcome.detected])
        assert truth.mean() > 0.7

    def test_invalid_model_name(self):
        with pytest.raises(ValueError):
            PumpMessageDetector(model="svm")

    def test_detector_fit_predict_roundtrip(self):
        texts = ["pump now soon target", "hello weather nice"] * 30
        labels = [1.0, 0.0] * 30
        detector = PumpMessageDetector(model="lr").fit(texts, labels)
        probs = detector.predict_proba(["pump now soon target"])
        assert probs[0] > 0.5
