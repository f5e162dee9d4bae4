"""Pump-history sequence features (§5.1, "sequence" group).

Pumped coins are grouped by channel and ordered chronologically; each
position carries the coin's id plus its stable statistics.  Position 1 is
the temporally **closest** pump (matching Figure 10's ``P1``); sequences
shorter than ``length`` are left-padded with a dedicated PAD coin id and
zero numerics, with a mask distinguishing real positions.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.data.sessions import PnDSample
from repro.features.coin import COIN_FEATURE_NAMES, coin_feature_matrix
from repro.sources.base import MarketDataSource
from repro.telemetry import span

SEQUENCE_NUMERIC_NAMES = COIN_FEATURE_NAMES  # per-position numeric features
N_SEQUENCE_FEATURES = 1 + len(SEQUENCE_NUMERIC_NAMES)  # + coin_id


@dataclass(frozen=True)
class SequenceFeatures:
    """Fixed-length encoded pump history of one channel at one time."""

    coin_ids: np.ndarray   # (N,) int; PAD id where mask == 0
    numeric: np.ndarray    # (N, K-1) float
    mask: np.ndarray       # (N,) float; 1 for real positions


def pad_coin_id(n_coins: int) -> int:
    """The reserved PAD id (one past the last real coin)."""
    return n_coins


def encode_history(market: MarketDataSource, history: Sequence[PnDSample],
                   length: int) -> SequenceFeatures:
    """Encode a channel's pump history, newest first.

    ``history`` must be chronological (oldest first); the most recent pump
    lands at position 0 of the output, mirroring the paper's ``P1``.
    """
    if length < 1:
        raise ValueError("sequence length must be positive")
    n_coins = market.universe.n_coins
    coin_ids = np.full(length, pad_coin_id(n_coins), dtype=np.int64)
    numeric = np.zeros((length, len(SEQUENCE_NUMERIC_NAMES)))
    mask = np.zeros(length)
    recent = list(history)[-length:][::-1]  # newest first
    if recent:
        ids = np.array([s.coin_id for s in recent], dtype=np.int64)
        times = np.array([s.time for s in recent], dtype=np.float64)
        coin_ids[: len(recent)] = ids
        mask[: len(recent)] = 1.0
        # Stable stats are evaluated at each pump's own time; one batched
        # query covers the whole history instead of one call per sample.
        numeric[: len(recent)] = coin_feature_matrix(market, ids, times)
    return SequenceFeatures(coin_ids=coin_ids, numeric=numeric, mask=mask)


# Signature of a pump-history lookup: (channel_id, time, length) -> samples
# strictly before ``time``, chronological.  Matches
# :meth:`repro.data.dataset.TargetCoinDataset.history_before`.
HistoryLookup = Callable[[int, float, int], Sequence[PnDSample]]


class SequenceFeatureCache:
    """LRU of encoded pump histories keyed by the window they encode.

    The key is the content of the window :func:`encode_history` reads:
    the last ``length`` samples' ``(coin_id, time)`` pairs.  An encoding
    is a market query per sample, and feature assembly, scaler fitting,
    offline ranking and the serving layer all ask for the same windows
    again and again, so memoizing it turns repeated lookups into O(1).

    A content key is exact for any history source.  The offline dataset
    is immutable; the serving layer's per-channel histories grow as
    announcements stream in, and a grown history is a different window,
    hence a miss, never a stale hit.  Windows equal in content share one
    entry whichever channel they belong to.
    """

    def __init__(self, market: MarketDataSource, history_fn: HistoryLookup,
                 length: int, max_entries: int = 8192):
        if length < 1:
            raise ValueError("sequence length must be positive")
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.market = market
        self.history_fn = history_fn
        self.length = length
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._store: "OrderedDict[tuple, SequenceFeatures]" = OrderedDict()

    def get(self, channel_id: int, time: float) -> SequenceFeatures:
        """Encoded ``history_fn`` history of ``channel_id`` before ``time``."""
        return self.encode(self.history_fn(channel_id, time, self.length))

    def encode(self, history: Sequence[PnDSample],
               encoder: Callable[..., SequenceFeatures] = encode_history,
               ) -> SequenceFeatures:
        """Encoding of a chronological ``history``'s last ``length`` samples.

        ``encoder`` does the work on a miss; a caller may pass its own
        binding of :func:`encode_history` so that its misses are made
        through a name it owns.
        """
        window = list(history)[-self.length:]
        key = tuple((s.coin_id, s.time) for s in window)
        features = self._store.get(key)
        if features is not None:
            self._store.move_to_end(key)
            self.hits += 1
            return features
        self.misses += 1
        # Only the miss path opens a span: a hit is a dict lookup, and the
        # offline assembly loop calls this hot enough that even a no-op
        # span check per hit would show up.
        with span("sequence.encode", positions=len(window)):
            features = encoder(self.market, window, self.length)
        self._store[key] = features
        while len(self._store) > self.max_entries:
            self._store.popitem(last=False)
        return features
