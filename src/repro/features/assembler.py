"""FeatureAssembler — model-ready tensors for the target-coin task.

Assembles, for every example of a :class:`~repro.data.dataset.TargetCoinDataset`:

* ``channel_idx`` — dense channel index (embedding input);
* ``coin_idx`` — candidate coin id (embedding input, PAD-aware);
* ``numeric`` — channel + coin-stable + market-movement features,
  standardized with train-split statistics only;
* ``seq_coin_idx`` / ``seq_numeric`` / ``seq_mask`` — the channel's encoded
  pump history (identical across the candidates of one ranking list, so it
  is computed once per list);
* ``label``, ``list_id``, ``split``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import ServingSlice, TargetCoinDataset, TargetCoinExample
from repro.features.coin import COIN_FEATURE_NAMES, STABLE_LEAD_HOURS, stable_columns
from repro.features.market_windows import (
    MARKET_FEATURE_NAMES,
    WINDOW_HOURS,
    price_window_hours,
    window_columns,
)
from repro.features.sequence import (
    SEQUENCE_NUMERIC_NAMES,
    SequenceFeatureCache,
    pad_coin_id,
)
from repro.ml.scaling import StandardScaler
from repro.sources.base import DataSource

CHANNEL_FEATURE_NAMES = ("log_subscribers",)

NUMERIC_FEATURE_NAMES = CHANNEL_FEATURE_NAMES + COIN_FEATURE_NAMES + MARKET_FEATURE_NAMES


@dataclass
class AssembledSplit:
    """Arrays of one split, aligned row-by-row."""

    channel_idx: np.ndarray    # (B,)
    coin_idx: np.ndarray       # (B,)
    numeric: np.ndarray        # (B, D)
    seq_coin_idx: np.ndarray   # (B, N)
    seq_numeric: np.ndarray    # (B, N, K-1)
    seq_mask: np.ndarray       # (B, N)
    label: np.ndarray          # (B,)
    list_id: np.ndarray        # (B,)

    def __len__(self) -> int:
        return len(self.label)

    def ranking_lists(self, scores: np.ndarray) -> list[np.ndarray]:
        """Group (score, label) pairs by list for HR@k evaluation."""
        out = []
        for list_id in np.unique(self.list_id):
            mask = self.list_id == list_id
            out.append(np.stack([scores[mask], self.label[mask]], axis=1))
        return out


@dataclass
class AssembledDataset:
    """All three splits plus vocabulary sizes for embedding layers."""

    train: AssembledSplit
    validation: AssembledSplit
    test: AssembledSplit
    n_channels: int
    n_coin_ids: int       # includes the PAD id
    sequence_length: int
    channel_index: dict[int, int] = field(default_factory=dict)

    def split(self, name: str) -> AssembledSplit:
        if name not in ("train", "validation", "test"):
            raise ValueError(f"unknown split {name!r}")
        return getattr(self, name)


class FeatureAssembler:
    """Build :class:`AssembledDataset` from a data source + extracted dataset.

    The assembler owns the raw numeric row (:meth:`candidate_block` and
    :meth:`numeric_rows`); the predictor built on top computes served
    rows through the same two methods.  Ranking reads only the dataset's
    :class:`~repro.data.dataset.ServingSlice`, so an assembler over a
    slice serves like one over the dataset; only :meth:`assemble` needs
    the dataset's examples.

    ``signal_engine`` optionally appends market-microstructure signal
    channels (squashed per-signal scores plus the composite; see
    :mod:`repro.signals`) to every example's numeric block.  It is duck
    typed — anything with ``feature_names`` and
    ``feature_block(coins, time)`` works — so this module never imports
    the signals package (which sits above the feature layer).
    """

    def __init__(self, source: DataSource,
                 dataset: TargetCoinDataset | ServingSlice,
                 signal_engine=None):
        self.source = source
        self.dataset = dataset
        self.signal_engine = signal_engine
        self.sequence_length = self.source.sequence_length
        self.channel_index = {
            cid: i for i, cid in enumerate(dataset.channel_ids)
        }
        self.subscribers = self.source.channels.subscriber_counts()
        # Encoded pump histories, shared with the predictor built on top so
        # scaler fitting and offline ranking reuse assembly-time encodings.
        self.sequence_cache = SequenceFeatureCache(
            self.source.market, dataset.history_before, self.sequence_length
        )

    @property
    def numeric_feature_names(self) -> tuple[str, ...]:
        """Numeric column names, signal channels (if any) last."""
        names = NUMERIC_FEATURE_NAMES
        if self.signal_engine is not None:
            names = names + tuple(self.signal_engine.feature_names)
        return names

    def candidate_block(self, coins: np.ndarray, time: float) -> np.ndarray:
        """Raw channel-independent columns for candidates at ``time``:
        coin-stable, market-movement, then signal channels (if any).

        Two market reads serve both groups: one log-price grid over the
        window hours plus ``t - STABLE_LEAD_HOURS``, and one 72-column
        volume profile, which holds the stable hour too.  The stable
        columns are :func:`~repro.features.coin.coin_feature_matrix`'s, bit
        for bit.
        """
        market = self.source.market
        coins = np.asarray(coins, dtype=np.int64)
        hours = np.append(price_window_hours(time), time - STABLE_LEAD_HOURS)
        logs = market.log_close(coins[:, None], hours[None, :])
        volumes = market.window_volume_profile(coins, time, WINDOW_HOURS[-1])
        parts = [
            stable_columns(market.universe, coins, logs[:, -1],
                           volumes[:, STABLE_LEAD_HOURS - 1]),
            window_columns(market, coins, logs[:, :-1], volumes),
        ]
        if self.signal_engine is not None:
            parts.append(self.signal_engine.feature_block(coins, time))
        return np.concatenate(parts, axis=1)

    def numeric_rows(self, channel_id: int, block: np.ndarray) -> np.ndarray:
        """Raw numeric rows, in :attr:`numeric_feature_names` order: the
        channel column (log subscribers) before a :meth:`candidate_block`."""
        channel_feature = np.log(self.subscribers.get(channel_id, 1000) + 1.0)
        return np.concatenate([
            np.full((len(block), 1), channel_feature), block,
        ], axis=1)

    # -- assembly -------------------------------------------------------------

    def assemble(self) -> AssembledDataset:
        examples = self.dataset.examples
        n = len(examples)
        n_numeric = len(self.numeric_feature_names)
        channel_idx = np.zeros(n, dtype=np.int64)
        coin_idx = np.zeros(n, dtype=np.int64)
        numeric = np.zeros((n, n_numeric))
        seq_len = self.sequence_length
        seq_coin_idx = np.zeros((n, seq_len), dtype=np.int64)
        seq_numeric = np.zeros((n, seq_len, len(SEQUENCE_NUMERIC_NAMES)))
        seq_mask = np.zeros((n, seq_len))
        label = np.array([e.label for e in examples], dtype=np.float64)
        list_id = np.array([e.list_id for e in examples], dtype=np.int64)
        split_name = np.array([e.split for e in examples])
        all_coins = np.fromiter(
            (e.coin_id for e in examples), dtype=np.int64, count=n
        )

        # Group rows by ranking list: one market/sequence computation and one
        # set of batched array writes per list (no per-row Python iteration).
        order = np.argsort(list_id, kind="mergesort")
        boundaries = np.flatnonzero(np.diff(list_id[order])) + 1
        starts = np.concatenate(([0], boundaries)) if n else np.empty(0, np.int64)
        stops = np.concatenate((boundaries, [n])) if n else np.empty(0, np.int64)
        for start, stop in zip(starts, stops):
            rows = order[start:stop]
            self._fill_list(rows, examples, all_coins, channel_idx, coin_idx,
                            numeric, seq_coin_idx, seq_numeric, seq_mask)

        # Standardize numerics (and sequence numerics) on train stats only.
        train_mask = split_name == "train"
        scaler = StandardScaler().fit(numeric[train_mask])
        numeric = scaler.transform(numeric)
        flat = seq_numeric.reshape(-1, seq_numeric.shape[-1])
        seq_scaler = StandardScaler().fit(
            seq_numeric[train_mask].reshape(-1, seq_numeric.shape[-1])
        )
        seq_numeric = seq_scaler.transform(flat).reshape(seq_numeric.shape)
        seq_numeric *= seq_mask[:, :, None]  # keep PAD rows at exact zero

        def build(mask: np.ndarray) -> AssembledSplit:
            return AssembledSplit(
                channel_idx=channel_idx[mask],
                coin_idx=coin_idx[mask],
                numeric=numeric[mask],
                seq_coin_idx=seq_coin_idx[mask],
                seq_numeric=seq_numeric[mask],
                seq_mask=seq_mask[mask],
                label=label[mask],
                list_id=list_id[mask],
            )

        return AssembledDataset(
            train=build(train_mask),
            validation=build(split_name == "validation"),
            test=build(split_name == "test"),
            n_channels=len(self.channel_index),
            n_coin_ids=pad_coin_id(self.source.coins.n_coins) + 1,
            sequence_length=seq_len,
            channel_index=dict(self.channel_index),
        )

    def _fill_list(self, rows: np.ndarray, examples: list[TargetCoinExample],
                   all_coins, channel_idx, coin_idx, numeric, seq_coin_idx,
                   seq_numeric, seq_mask) -> None:
        """Fill feature rows for one ranking list (shared channel + time).

        All writes are list-level batched assignments; the sequence encoding
        (identical across the list's candidates) broadcasts over the rows.
        """
        first = examples[rows[0]]
        time = first.time
        channel_id = first.channel_id
        coins = all_coins[rows]
        numeric[rows] = self.numeric_rows(channel_id,
                                          self.candidate_block(coins, time))
        sequence = self.sequence_cache.get(channel_id, time)
        channel_idx[rows] = self.channel_index[channel_id]
        coin_idx[rows] = coins
        seq_coin_idx[rows] = sequence.coin_ids
        seq_numeric[rows] = sequence.numeric
        seq_mask[rows] = sequence.mask
