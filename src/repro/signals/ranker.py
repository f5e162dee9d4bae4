"""SignalRanker — the heuristic, training-free baseline ranker.

Ranks an announcement's candidate coins purely by composite signal score.
No model, no fitting: this is the floor any *trained* signal-aware ranker
must clear, and a deployable fallback when no artifact is available.

``evaluate`` scores a :class:`TargetCoinDataset` split list-by-list and
returns the same HR@k dict the trained rankers report, so the baseline
drops straight into the ``repro eval`` comparison tables.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.predictor import Ranking
from repro.markets import pump_candidates
from repro.ml import hit_ratio_at_k
from repro.signals.engine import SignalEngine

HR_KS = (1, 3, 5, 10, 20, 30)


class SignalRanker:
    """Rank candidates by composite market-signal score alone."""

    def __init__(self, source, engine: SignalEngine | None = None):
        self.source = source
        self.engine = engine or SignalEngine.from_source(source)

    def candidates(self, exchange_id: int, time: float) -> np.ndarray:
        """Eligible coins: listed on the exchange, not a pairing major."""
        return pump_candidates(self.source.coins, exchange_id, time)

    def rank(self, channel_id: int, exchange_id: int,
             time: float) -> Ranking:
        """Score every candidate for one announcement (Ranking-compatible)."""
        coins = self.candidates(exchange_id, time)
        if len(coins) == 0:
            return Ranking(channel_id=channel_id, exchange_id=exchange_id,
                           pump_time=time, coin_ids=(), probabilities=(),
                           symbols=())
        composite = self.engine.composite(coins, time)
        order = np.argsort(-composite, kind="stable")
        ranked = coins[order]
        symbols = self.source.coins.symbols
        return Ranking(channel_id=channel_id, exchange_id=exchange_id,
                       pump_time=time, coin_ids=ranked,
                       probabilities=composite[order],
                       symbols=[symbols[coin] for coin in ranked.tolist()])

    def rank_lists(self, dataset, split: str = "test") -> list[np.ndarray]:
        """``(score, label)`` arrays per ranking list of a dataset split."""
        by_list: dict[int, list] = {}
        for example in dataset.examples:
            if example.split == split:
                by_list.setdefault(example.list_id, []).append(example)
        lists = []
        for list_id in sorted(by_list):
            rows = by_list[list_id]
            coins = np.array([e.coin_id for e in rows], dtype=np.int64)
            composite = self.engine.composite(coins, rows[0].time)
            labels = np.array([e.label for e in rows], dtype=np.float64)
            lists.append(np.stack([composite, labels], axis=1))
        return lists

    def evaluate(self, dataset, split: str = "test",
                 ks: Sequence[int] = HR_KS) -> dict[int, float]:
        """HR@k of the heuristic on a dataset split."""
        return hit_ratio_at_k(self.rank_lists(dataset, split), ks)
