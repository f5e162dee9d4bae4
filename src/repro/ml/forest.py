"""Random forest classifier: bagged CART trees with feature subsampling.

The paper's strongest hand-crafted-feature baseline (Tables 1 and 5) and the
model its data pipeline uses for pump-message detection.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.ml.tree import DecisionTreeClassifier


def _issparse(x) -> bool:
    """True when ``x`` is a scipy sparse matrix, without requiring scipy.

    A serving process without scipy cannot have produced one, so the
    import failure itself answers the question.
    """
    try:
        from scipy import sparse
    except ImportError:
        return False
    return sparse.issparse(x)


class RandomForestClassifier:
    """Bootstrap-aggregated decision trees.

    Parameters
    ----------
    n_estimators, max_depth, min_samples_leaf:
        Usual forest knobs.
    max_features:
        Per-node feature subsample; default ``"sqrt"``.
    max_samples:
        Optional cap on bootstrap sample size — keeps training tractable on
        the ~100k-row target-coin matrix.
    class_weight:
        ``None`` or ``"balanced"``; balanced mode oversamples the minority
        class inside each bootstrap.
    """

    def __init__(self, n_estimators: int = 30, max_depth: int = 12,
                 min_samples_leaf: int = 2, max_features="sqrt",
                 max_samples: int | None = None, class_weight: str | None = None,
                 seed: int = 0):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.max_samples = max_samples
        self.class_weight = class_weight
        self.seed = seed
        self.trees_: list[DecisionTreeClassifier] = []

    def _bootstrap(self, rng: np.random.Generator, y: np.ndarray) -> np.ndarray:
        n = len(y)
        size = min(n, self.max_samples) if self.max_samples else n
        if self.class_weight == "balanced":
            pos = np.flatnonzero(y == 1)
            neg = np.flatnonzero(y == 0)
            if len(pos) and len(neg):
                half = size // 2
                return np.concatenate([
                    rng.choice(pos, size=half, replace=True),
                    rng.choice(neg, size=size - half, replace=True),
                ])
        return rng.choice(n, size=size, replace=True)

    def fit(self, x, y) -> "RandomForestClassifier":
        if _issparse(x):
            x = np.asarray(x.todense())
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        root_rng = np.random.default_rng(self.seed)
        self.trees_ = []
        for _ in range(self.n_estimators):
            rng = np.random.default_rng(root_rng.integers(2**63))
            idx = self._bootstrap(rng, y)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                rng=rng,
            )
            tree.fit(x[idx], y[idx])
            self.trees_.append(tree)
        return self

    def _check_fitted(self) -> None:
        if not self.trees_:
            raise RuntimeError("model is not fitted")

    def predict_proba(self, x) -> np.ndarray:
        """Average of per-tree leaf probabilities, P(y=1)."""
        self._check_fitted()
        if _issparse(x):
            x = np.asarray(x.todense())
        x = np.asarray(x, dtype=float)
        acc = np.zeros(len(x))
        for tree in self.trees_:
            acc += tree.predict_proba(x)
        return acc / len(self.trees_)

    def predict_proba_one(self, row: Mapping[int, float]) -> float:
        """P(y=1) of one sparse row, ``{column: value}``; an absent column
        reads 0.0.

        Walks each tree's node lists with Python scalars and sums the
        leaves in tree order from 0.0, as :meth:`predict_proba` does, so
        the score equals that row's batch score bit for bit.
        """
        self._check_fitted()
        acc = 0.0
        for tree in self.trees_:
            feature, threshold = tree.feature_, tree.threshold_
            left, right = tree.left_, tree.right_
            node = 0
            column = feature[0]
            while column >= 0:
                if row.get(column, 0.0) <= threshold[node]:
                    node = left[node]
                else:
                    node = right[node]
                column = feature[node]
            acc += tree.value_[node]
        return acc / len(self.trees_)

    def predict(self, x, threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(x) >= threshold).astype(int)

    def feature_importances(self) -> np.ndarray:
        """Split-frequency importances (how often each feature splits)."""
        self._check_fitted()
        counts = np.zeros(self.trees_[0].n_features_)
        for tree in self.trees_:
            for column in tree.feature_:
                if column >= 0:
                    counts[column] += 1
        total = counts.sum()
        return counts / total if total else counts
