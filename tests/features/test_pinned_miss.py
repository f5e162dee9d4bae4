"""The feature-cache miss's output, pinned bit for bit.

A served miss is one :meth:`FeatureAssembler.candidate_block` per
(exchange, time), and a history miss is one :func:`encode_history` per
window.  Both are pinned as sha256 digests on the session tiny world
(``tests/conftest.py``), so any rewrite of the candle queries under them
must keep every bit.
"""

from __future__ import annotations

import numpy as np

from repro.features import COIN_FEATURE_NAMES, coin_feature_matrix, encode_history
from repro.markets import pump_candidates
from tests.conftest import digest_rows

#: (exchange, time) of the pinned candidate blocks.  1500.0 is before the
#: tiny world's first pump (1671.02); 2898.0 and 2898.01 put t − 1 at and
#: 0.01 h after the exchange-0 pump at 2897.0, inside its two peak
#: minutes; 2962.5 straddles it; the rest mix integral and fractional
#: hours on every exchange, late enough for spikes 400+ h old.
BLOCK_QUERIES = (
    (0, 1500.0), (0, 2897.0), (0, 2898.0), (0, 2898.01), (0, 2962.5),
    (0, 3403.04), (2, 4700.25), (3, 8700.75), (1, 12000.0), (0, 20000.0),
    (0, 23249.37), (2, 26000.5),
)

# Recorded with digest_rows at the commit before candidate_block read one
# price grid and one volume grid (four market reads then: the stable
# price and volume, the return grid and the volume profile).
CANDIDATE_BLOCKS_SHA256 = (
    "a273cc638deadc5ff5e611c1372648b23fcf908e1b4ce086a43084c35d8f3198"
)
HISTORY_ENCODINGS_SHA256 = (
    "756ebc2d715a8afe563d720759567a0fe6f81a28f0b63d596d70cc57f1858556"
)


def _blocks(assembler):
    catalog = assembler.source.coins
    for exchange, time in BLOCK_QUERIES:
        coins = pump_candidates(catalog, exchange, time)
        yield exchange, time, coins, assembler.candidate_block(coins, time)


def _history_windows(dataset, length):
    """Every window a ranking can encode: the last ``length`` samples up
    to and including each sample of each channel."""
    for channel_id in sorted(dataset.history):
        samples = dataset.history[channel_id]
        for i in range(len(samples)):
            yield channel_id, i, samples[max(0, i + 1 - length):i + 1]


def test_candidate_blocks_are_pinned(tiny_assembler):
    rows = []
    for exchange, time, coins, block in _blocks(tiny_assembler):
        rows.extend((exchange, time, coin, *values)
                    for coin, values in zip(coins, block))
    assert len(rows) == 564
    assert digest_rows(rows) == CANDIDATE_BLOCKS_SHA256


def test_history_encodings_are_pinned(tiny_source, tiny_collection):
    length = tiny_source.sequence_length
    rows = []
    for channel_id, i, window in _history_windows(tiny_collection.dataset,
                                                  length):
        encoded = encode_history(tiny_source.market, window, length)
        rows.append((channel_id, i, *encoded.coin_ids,
                     *encoded.numeric.ravel(), *encoded.mask))
    assert len(rows) == 59
    assert digest_rows(rows) == HISTORY_ENCODINGS_SHA256


def test_stable_columns_equal_coin_feature_matrix(tiny_assembler):
    """The block's coin-stable columns are the history encoder's rows."""
    stable = len(COIN_FEATURE_NAMES)
    market = tiny_assembler.source.market
    for _, time, coins, block in _blocks(tiny_assembler):
        expected = coin_feature_matrix(market, coins, time)
        assert block[:, :stable].tobytes() == expected.tobytes()
        assert np.isfinite(block).all()
