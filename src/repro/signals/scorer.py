"""CompositeScorer — weighted squashed signals plus interaction bonuses.

Raw signal scores live on wildly different scales (log-ratios, signed
shares, log-price drifts), so each is squashed with ``tanh(raw / scale)``
into ``(-1, 1)`` before weighing.  Interaction bonuses reward *co-firing*
pairs — e.g. a volume surge on top of a long run-up is far stronger
evidence than either alone — mirroring the weighted-scorer-with-bonuses
design the related detection repos use.

Everything is pure float64 array math with a fixed evaluation order, so
composite scores are bit-for-bit reproducible for a given source.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Interaction:
    """A bonus applied when two squashed signals both clear a threshold."""

    first: str
    second: str
    threshold: float
    bonus: float


#: Per-signal tanh scales: the raw score that maps to ``tanh(1) ≈ 0.76``.
DEFAULT_SCALES = {
    "volume_surge": 0.5,
    "volume_price_decoupling": 0.5,
    "volatility_compression": 0.6,
    "price_runup": 0.05,
    "turnover_imbalance": 0.4,
    "momentum_divergence": 0.004,
}

#: Per-signal weights in the composite sum.
DEFAULT_WEIGHTS = {
    "volume_surge": 1.0,
    "volume_price_decoupling": 0.8,
    "volatility_compression": 0.6,
    "price_runup": 1.0,
    "turnover_imbalance": 0.7,
    "momentum_divergence": 0.6,
}

#: Co-firing bonuses: ignition (surge on run-up), stealth accumulation
#: (decoupled volume into a quiet book), one-sided tape (surge + buy-side
#: imbalance).
DEFAULT_INTERACTIONS = (
    Interaction("volume_surge", "price_runup", 0.3, 0.5),
    Interaction("volume_price_decoupling", "volatility_compression", 0.3, 0.4),
    Interaction("volume_surge", "turnover_imbalance", 0.3, 0.3),
)


@dataclass(frozen=True)
class CompositeScorer:
    """Combine per-signal raw scores into one composite per coin."""

    signal_names: tuple
    weights: dict = field(default_factory=dict)
    scales: dict = field(default_factory=dict)
    interactions: tuple = DEFAULT_INTERACTIONS

    def __post_init__(self):
        index = {name: i for i, name in enumerate(self.signal_names)}
        for interaction in self.interactions:
            for name in (interaction.first, interaction.second):
                if name not in index:
                    raise ValueError(
                        f"interaction references unknown signal {name!r}"
                    )
        object.__setattr__(self, "_index", index)
        weights = np.array([
            self.weights.get(name, DEFAULT_WEIGHTS.get(name, 1.0))
            for name in self.signal_names
        ])
        scales = np.array([
            self.scales.get(name, DEFAULT_SCALES.get(name, 1.0))
            for name in self.signal_names
        ])
        if (scales <= 0).any():
            raise ValueError("signal scales must be positive")
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_scales", scales)

    def weight_of(self, name: str) -> float:
        """Effective composite weight of one signal."""
        return float(self._weights[self._index[name]])

    def scale_of(self, name: str) -> float:
        """Effective tanh scale of one signal."""
        return float(self._scales[self._index[name]])

    def squash(self, raw: np.ndarray) -> np.ndarray:
        """Per-signal ``tanh(raw / scale)``, shape-preserving."""
        return np.tanh(raw / self._scales[None, :])

    def composite(self, raw: np.ndarray) -> np.ndarray:
        """``(n_coins,)`` composite from ``(n_coins, n_signals)`` raw scores."""
        squashed = self.squash(raw)
        # Weighted columns summed elementwise in signal order, not
        # ``squashed @ weights``: a BLAS product's bits depend on how many
        # rows share the call, and a coin's composite must not.
        score = np.zeros(len(squashed))
        for column, weight in enumerate(self._weights):
            score = score + squashed[:, column] * weight
        for interaction in self.interactions:
            both = (
                (squashed[:, self._index[interaction.first]]
                 > interaction.threshold)
                & (squashed[:, self._index[interaction.second]]
                   > interaction.threshold)
            )
            score = score + interaction.bonus * both
        return score
