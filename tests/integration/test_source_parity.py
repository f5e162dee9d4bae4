"""SyntheticWorldSource parity: the adapter changes *nothing*.

``_assemble_direct`` replicates the pre-refactor ``FeatureAssembler``
verbatim — subscribers read straight off the world's channel population,
market queries straight off ``world.market`` — and every array it
produces must match the source-mediated assembler bit for bit.  The same
must hold for the scores and HR@k of all four deep ranker families.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import HR_KS, evaluate_scores, predict_scores
from repro.features import AssembledSplit
from repro.features.coin import coin_feature_matrix
from repro.features.market_windows import (
    MARKET_FEATURE_NAMES,
    WINDOW_HOURS,
    price_window_hours,
    window_columns,
)
from repro.features.sequence import SEQUENCE_NUMERIC_NAMES, encode_history, pad_coin_id
from repro.ml.scaling import StandardScaler
from tests.conftest import TINY_ARCHS

# The session fixtures (tests/conftest.py) are the source-mediated path:
# ``tiny_assembled`` is assembled through ``tiny_source``, and
# ``tiny_predictors`` holds one 1-epoch ranker per family trained on it.


@pytest.fixture(scope="module")
def direct(tiny_world, tiny_collection):
    return _assemble_direct(tiny_world, tiny_collection.dataset)


def _assemble_direct(world, dataset):
    """The pre-refactor assembly path, reading the world directly."""
    examples = dataset.examples
    market = world.market
    subscribers = {
        c.channel_id: c.subscribers for c in world.channels.pump_channels
    }
    channel_ids = sorted({e.channel_id for e in examples})
    channel_index = {cid: i for i, cid in enumerate(channel_ids)}
    seq_len = world.config.sequence_length
    n = len(examples)
    n_numeric = 1 + len(coin_feature_matrix(market, np.array([3]), 100.0)[0]) \
        + len(MARKET_FEATURE_NAMES)
    channel_idx = np.zeros(n, dtype=np.int64)
    coin_idx = np.zeros(n, dtype=np.int64)
    numeric = np.zeros((n, n_numeric))
    seq_coin_idx = np.zeros((n, seq_len), dtype=np.int64)
    seq_numeric = np.zeros((n, seq_len, len(SEQUENCE_NUMERIC_NAMES)))
    seq_mask = np.zeros((n, seq_len))
    label = np.array([e.label for e in examples], dtype=np.float64)
    list_id = np.array([e.list_id for e in examples], dtype=np.int64)
    split_name = np.array([e.split for e in examples])
    all_coins = np.fromiter((e.coin_id for e in examples), dtype=np.int64,
                            count=n)

    order = np.argsort(list_id, kind="mergesort")
    boundaries = np.flatnonzero(np.diff(list_id[order])) + 1
    starts = np.concatenate(([0], boundaries))
    stops = np.concatenate((boundaries, [n]))
    for start, stop in zip(starts, stops):
        rows = order[start:stop]
        first = examples[rows[0]]
        coins = all_coins[rows]
        channel_feature = np.log(subscribers.get(first.channel_id, 1000) + 1.0)
        hours = price_window_hours(first.time)[None, :]
        block = np.concatenate([
            np.full((len(rows), 1), channel_feature),
            coin_feature_matrix(market, coins, first.time),
            window_columns(
                market, coins, market.log_close(coins[:, None], hours),
                market.window_volume_profile(coins, first.time,
                                             WINDOW_HOURS[-1]),
            ),
        ], axis=1)
        history = dataset.history_before(first.channel_id, first.time, seq_len)
        sequence = encode_history(market, history, seq_len)
        channel_idx[rows] = channel_index[first.channel_id]
        coin_idx[rows] = coins
        numeric[rows] = block
        seq_coin_idx[rows] = sequence.coin_ids
        seq_numeric[rows] = sequence.numeric
        seq_mask[rows] = sequence.mask

    train_mask = split_name == "train"
    numeric = StandardScaler().fit(numeric[train_mask]).transform(numeric)
    flat = seq_numeric.reshape(-1, seq_numeric.shape[-1])
    seq_scaler = StandardScaler().fit(
        seq_numeric[train_mask].reshape(-1, seq_numeric.shape[-1])
    )
    seq_numeric = seq_scaler.transform(flat).reshape(seq_numeric.shape)
    seq_numeric *= seq_mask[:, :, None]
    return {
        "channel_idx": channel_idx, "coin_idx": coin_idx, "numeric": numeric,
        "seq_coin_idx": seq_coin_idx, "seq_numeric": seq_numeric,
        "seq_mask": seq_mask, "label": label, "list_id": list_id,
        "split": split_name,
        "n_coin_ids": pad_coin_id(world.coins.n_coins) + 1,
    }


class TestAssembledFeatureParity:
    def test_bit_for_bit_arrays(self, direct, tiny_assembled):
        for split_name in ("train", "validation", "test"):
            split = tiny_assembled.split(split_name)
            mask = direct["split"] == split_name
            for field in ("channel_idx", "coin_idx", "numeric",
                          "seq_coin_idx", "seq_numeric", "seq_mask",
                          "label", "list_id"):
                np.testing.assert_array_equal(
                    getattr(split, field), direct[field][mask],
                    err_msg=f"{split_name}.{field} diverged from the "
                            "pre-refactor direct-world path",
                )
        assert tiny_assembled.n_coin_ids == direct["n_coin_ids"]


class TestRankerFamilyParity:
    @pytest.mark.parametrize("name", TINY_ARCHS)
    def test_rankings_and_hr_identical(self, name, direct, tiny_assembled,
                                       tiny_predictors):
        model = tiny_predictors[name].model
        scores = predict_scores(model, tiny_assembled.test)
        hr_source = evaluate_scores(tiny_assembled.test, scores, HR_KS)

        # The direct path's test split must yield identical scores + HR@k.
        mask = direct["split"] == "test"
        direct_test = AssembledSplit(
            channel_idx=direct["channel_idx"][mask],
            coin_idx=direct["coin_idx"][mask],
            numeric=direct["numeric"][mask],
            seq_coin_idx=direct["seq_coin_idx"][mask],
            seq_numeric=direct["seq_numeric"][mask],
            seq_mask=direct["seq_mask"][mask],
            label=direct["label"][mask],
            list_id=direct["list_id"][mask],
        )
        direct_scores = predict_scores(model, direct_test)
        np.testing.assert_array_equal(scores, direct_scores)
        assert evaluate_scores(direct_test, direct_scores, HR_KS) == hr_source
