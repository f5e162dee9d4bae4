"""Memoized feature computation for the prediction service.

Coin-stable and market-movement features are channel-independent: every
announcement on the same exchange at the same (bucketed) time scores the
same candidate matrix.  P&Ds are coordinated — many channels release the
same event within the same hour — so memoizing the block by
``(exchange, time-bucket, candidate-set)`` turns the dominant feature cost
into a dictionary lookup.

``bucket_hours`` quantizes the *feature evaluation time* down to the
bucket's start (never forward — no lookahead).  ``bucket_hours=0`` keeps
exact times, in which case cache hits still occur whenever coordinated
channels announce at identical timestamps.  Quantization is applied whether
or not memoization is enabled, so caching never changes scores.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

import numpy as np

from repro.serving.stats import ServiceStats
from repro.telemetry import span

# ComputeFn(exchange_id, coins, time) -> raw feature block (len(coins), D).
ComputeFn = Callable[[int, np.ndarray, float], np.ndarray]


def bucket_time(time: float, bucket_hours: float) -> float:
    """Quantize a timestamp down to its bucket start (identity when 0)."""
    if bucket_hours <= 0:
        return time
    return float(np.floor(time / bucket_hours) * bucket_hours)


class FeatureCache:
    """LRU-memoized coin/market feature blocks.

    Parameters
    ----------
    compute:
        The underlying feature function (typically the predictor's raw
        coin+market block).
    bucket_hours:
        Time-bucket width for both the cache key and the evaluation time.
    max_entries:
        LRU capacity; ``0`` disables memoization (every call recomputes,
        still at the bucketed time, still counted as a miss).
    stats:
        Hit/miss counters land here.
    """

    def __init__(self, compute: ComputeFn, *, bucket_hours: float = 1.0,
                 max_entries: int = 512, stats: ServiceStats | None = None):
        if max_entries < 0:
            raise ValueError("max_entries must be >= 0")
        self.compute = compute
        self.bucket_hours = bucket_hours
        self.max_entries = max_entries
        self.stats = stats or ServiceStats()
        self._entries: "OrderedDict[tuple, np.ndarray]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def features(self, exchange_id: int, coins: np.ndarray,
                 time: float) -> np.ndarray:
        """The raw feature block for ``coins``, memoized per time bucket.

        The candidate set is part of the key: listings change over time, and
        a stale block for a different coin set must never be returned.
        """
        at = bucket_time(time, self.bucket_hours)
        key = (int(exchange_id), at, coins.tobytes())
        with span("cache.features", candidates=len(coins)) as current:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.stats.cache_hits += 1
                current.set("hit", True)
                return cached
            self.stats.cache_misses += 1
            current.set("hit", False)
            block = self.compute(exchange_id, coins, at)
            if self.max_entries:
                self._entries[key] = block
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
            return block
