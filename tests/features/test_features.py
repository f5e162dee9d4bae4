"""Tests for feature generation and the assembler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import PnDSample, collect
from repro.features import (
    COIN_FEATURE_NAMES,
    FeatureAssembler,
    MARKET_FEATURE_NAMES,
    NUMERIC_FEATURE_NAMES,
    coin_feature_matrix,
    encode_history,
    pad_coin_id,
)
from repro.markets import pump_candidates
from repro.signals import SignalEngine
from repro.simulation import SyntheticWorld, generate_phase_world
from repro.sources import SyntheticWorldSource
from repro.utils import ReproConfig

CFG = ReproConfig.tiny()


@pytest.fixture(scope="module")
def world():
    return SyntheticWorld.generate(CFG)


@pytest.fixture(scope="module")
def assembler(world):
    source = SyntheticWorldSource(world)
    return FeatureAssembler(source, collect(source, n_label=600).dataset)


@pytest.fixture(scope="module")
def assembled(assembler):
    return assembler.assemble()


def market_columns(assembler, ids, time):
    """The market-movement columns of ``candidate_block``."""
    start = len(COIN_FEATURE_NAMES)
    block = assembler.candidate_block(ids, time)
    return block[:, start:start + len(MARKET_FEATURE_NAMES)]


class TestCoinFeatures:
    def test_shape_and_names_align(self, world):
        ids = np.arange(5, 15)
        matrix = coin_feature_matrix(world.market, ids, time=5000.0)
        assert matrix.shape == (10, len(COIN_FEATURE_NAMES))
        assert np.isfinite(matrix).all()

    def test_big_coins_have_bigger_caps(self, world):
        matrix = coin_feature_matrix(world.market, np.array([3, world.coins.n_coins - 1]),
                                     time=5000.0)
        cap_col = COIN_FEATURE_NAMES.index("log_market_cap")
        assert matrix[0, cap_col] > matrix[1, cap_col]

    def test_stable_features_unaffected_by_pump(self, world):
        """Stats taken 72h before the pump ignore the accumulation window."""
        event = world.events.events[0]
        ids = np.array([event.coin_id])
        with_pump = coin_feature_matrix(world.market, ids, event.time)
        # A market without overlays gives nearly the same stable features.
        from repro.simulation import MarketSimulator

        clean = MarketSimulator(world.coins)
        without = coin_feature_matrix(clean, ids, event.time)
        np.testing.assert_allclose(with_pump[0, :4], without[0, :4])
        assert abs(with_pump[0, 4] - without[0, 4]) < 0.2


class TestMarketFeatures:
    def test_shape(self, assembler):
        ids = np.arange(5, 10)
        matrix = market_columns(assembler, ids, time=4000.0)
        assert matrix.shape == (5, len(MARKET_FEATURE_NAMES))
        assert np.isfinite(matrix).all()

    def test_pumped_coin_shows_precursors(self, world, assembler):
        """The pumped coin's 60h return exceeds typical candidates' (A2)."""
        deltas = []
        for event in world.events.events[:20]:
            ids = np.array([event.coin_id, (event.coin_id + 17) % world.coins.n_coins])
            matrix = market_columns(assembler, ids, event.time)
            col = MARKET_FEATURE_NAMES.index("return_60h")
            deltas.append(matrix[0, col] - matrix[1, col])
        assert np.mean(deltas) > 0.03


class TestSequenceEncoding:
    def _history(self, n):
        return [
            PnDSample(channel_id=1, coin_id=10 + i, exchange_id=0, pair="BTC",
                      time=100.0 * (i + 1))
            for i in range(n)
        ]

    def test_newest_first_layout(self, world):
        seq = encode_history(world.market, self._history(3), length=5)
        assert seq.coin_ids[0] == 12  # most recent pump at position 0
        assert seq.coin_ids[2] == 10
        assert seq.mask.tolist() == [1, 1, 1, 0, 0]

    def test_padding_uses_pad_id(self, world):
        seq = encode_history(world.market, [], length=4)
        assert (seq.coin_ids == pad_coin_id(world.coins.n_coins)).all()
        assert seq.mask.sum() == 0
        assert np.allclose(seq.numeric, 0.0)

    def test_truncates_to_most_recent(self, world):
        seq = encode_history(world.market, self._history(8), length=3)
        assert seq.coin_ids.tolist() == [17, 16, 15]

    def test_invalid_length(self, world):
        with pytest.raises(ValueError):
            encode_history(world.market, [], length=0)


class TestAssembler:
    def test_splits_cover_everything(self, assembled):
        total = len(assembled.train) + len(assembled.validation) + len(assembled.test)
        assert total > 0
        assert len(assembled.train) > len(assembled.test)

    def test_numeric_standardized_on_train(self, assembled):
        means = assembled.train.numeric.mean(axis=0)
        stds = assembled.train.numeric.std(axis=0)
        assert np.abs(means).max() < 1e-6
        assert np.all((stds > 0.5) & (stds < 2.0))

    def test_feature_count_matches_names(self, assembled):
        assert assembled.train.numeric.shape[1] == len(NUMERIC_FEATURE_NAMES)

    def test_sequence_shared_within_list(self, assembled):
        split = assembled.train
        first_list = split.list_id == split.list_id[0]
        seqs = split.seq_coin_idx[first_list]
        assert (seqs == seqs[0]).all()

    def test_pad_rows_are_zero(self, assembled):
        split = assembled.train
        pad_mask = split.seq_mask == 0
        assert np.allclose(split.seq_numeric[pad_mask], 0.0)

    def test_coin_ids_in_vocab(self, assembled):
        for split in (assembled.train, assembled.validation, assembled.test):
            assert split.coin_idx.max() < assembled.n_coin_ids
            assert split.seq_coin_idx.max() < assembled.n_coin_ids

    def test_ranking_lists_have_one_positive(self, assembled):
        split = assembled.test
        scores = np.zeros(len(split))
        lists = split.ranking_lists(scores)
        for arr in lists:
            assert arr[:, 1].sum() == 1


@pytest.fixture(scope="module")
def phase_collected():
    source = SyntheticWorldSource(
        generate_phase_world(CFG.with_(horizon_hours=2600)))
    return source, collect(source, n_label=600).dataset


@pytest.fixture(scope="module", params=("plain", "phase", "phase-signals"))
def block_assembler(request, world, phase_collected):
    """An assembler over the plain tiny world, the phase-overlay world,
    or the phase world with the signal engine's channels appended."""
    if request.param == "plain":
        source = SyntheticWorldSource(world)
        return FeatureAssembler(source,
                                collect(source, n_label=600).dataset)
    source, dataset = phase_collected
    engine = (SignalEngine.from_source(source)
              if request.param == "phase-signals" else None)
    return FeatureAssembler(source, dataset, signal_engine=engine)


class TestCandidateBlockRows:
    """A coin's channel-independent row, signal channels included, does
    not depend on which coins share the call, so a training list (the
    positive plus sampled negatives) and a served ranking (every
    candidate) give it the same features."""

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_row_is_the_same_alone_in_any_subset_and_in_full(
            self, block_assembler, data):
        assembler = block_assembler
        event = data.draw(st.sampled_from(
            [e for e in assembler.dataset.examples if e.label == 1]
        ))
        coins = pump_candidates(assembler.source.coins, 0, event.time)
        full = assembler.candidate_block(coins, event.time)
        picked = data.draw(st.lists(
            st.integers(0, len(coins) - 1), min_size=1, unique=True,
        ))
        np.testing.assert_array_equal(
            assembler.candidate_block(coins[picked], event.time),
            full[picked],
        )
        alone = picked[0]
        np.testing.assert_array_equal(
            assembler.candidate_block(coins[[alone]], event.time)[0],
            full[alone],
        )
