"""Tests for incremental dataset maintenance."""

import pytest

from repro.data import ChannelExplorer, run_detection_pipeline
from repro.data.updater import DatasetUpdater
from repro.markets import EXCHANGE_NAMES
from repro.simulation import SyntheticWorld
from repro.utils import ReproConfig

CFG = ReproConfig.tiny()


@pytest.fixture(scope="module")
def world():
    return SyntheticWorld.generate(CFG)


@pytest.fixture(scope="module")
def setup(world):
    """Initial pipeline run on the first 60% of the timeline."""
    explorer = ChannelExplorer(world.channels, world.messages, max_hops=2)
    collected = explorer.collect_messages(
        explorer.explore(world.channels.seed_channel_ids())
    )
    cutoff = CFG.horizon_hours * 0.6
    early = [m for m in collected if m.time <= cutoff]
    late = [m for m in collected if m.time > cutoff]
    names = EXCHANGE_NAMES[: CFG.n_exchanges]
    outcome = run_detection_pipeline(early, world.coins.symbols, names,
                                     n_label=500, seed=0)
    return early, late, outcome, names


class TestDatasetUpdater:
    def test_update_appends_new_samples(self, world, setup):
        early, late, outcome, names = setup
        from repro.data import extract_samples, sessionize

        initial = extract_samples(sessionize(outcome.detected),
                                  world.coins.symbols, names)
        detector = self._refit_detector(early, world, names)
        updater = DatasetUpdater(detector, world.coins.symbols, names,
                                 samples=initial)
        before = len(updater.samples)
        result = updater.update(late)
        assert result.new_messages == len(late)
        assert result.new_detected > 0
        assert len(result.new_samples) > 0
        assert len(updater.samples) == before + len(result.new_samples)

    @staticmethod
    def _refit_detector(messages, world, names):
        from repro.data import PumpMessageDetector
        import numpy as np

        rng = np.random.default_rng(0)
        idx = rng.choice(len(messages), size=min(500, len(messages)),
                         replace=False)
        labelled = [messages[i] for i in idx]
        return PumpMessageDetector(model="rf").fit(
            [m.text for m in labelled],
            [float(m.is_pump_message) for m in labelled],
        )

    def test_empty_update_is_noop(self, world, setup):
        early, late, outcome, names = setup
        detector = self._refit_detector(early, world, names)
        updater = DatasetUpdater(detector, world.coins.symbols, names)
        result = updater.update([])
        assert result.new_messages == 0
        assert result.new_samples == []

    def test_duplicate_batches_are_idempotent(self, world, setup):
        early, late, outcome, names = setup
        detector = self._refit_detector(early, world, names)
        updater = DatasetUpdater(detector, world.coins.symbols, names)
        first = updater.update(late)
        count = len(updater.samples)
        second = updater.update(late)
        # Re-feeding the same batch yields no duplicate samples.
        assert len(updater.samples) == count
        assert not second.new_samples

    def test_samples_stay_sorted(self, world, setup):
        early, late, outcome, names = setup
        detector = self._refit_detector(early, world, names)
        updater = DatasetUpdater(detector, world.coins.symbols, names)
        updater.update(late[: len(late) // 2])
        updater.update(late[len(late) // 2:])
        times = [s.time for s in updater.samples]
        assert times == sorted(times)
