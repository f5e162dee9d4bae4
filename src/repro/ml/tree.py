"""CART decision tree classifier (gini impurity), the unit of the forest.

Implemented with vectorized per-feature threshold scans: at each node, for
every candidate feature we sort the feature column once and evaluate every
split point from cumulative class counts, so node-splitting cost is
``O(features * n log n)``.

A fitted tree is five flat, parallel node lists in preorder (a parent
precedes its children): ``feature_``, ``threshold_``, ``left_``,
``right_`` and ``value_`` (the node's P(y=1)).  A leaf has ``feature_ ==
-1``.  Batch scoring routes index partitions over them with numpy; the
forest walks them for one row with Python scalars.
"""

from __future__ import annotations

import numpy as np


def _best_split_for_feature(values: np.ndarray, y: np.ndarray):
    """Return (gini, threshold) of the best binary split on one feature.

    ``y`` must be 0/1.  Returns ``None`` when the feature is constant.
    """
    order = np.argsort(values, kind="mergesort")
    v = values[order]
    labels = y[order]
    n = len(y)
    # Candidate boundaries: positions where the sorted value changes.
    change = np.nonzero(v[1:] != v[:-1])[0]
    if len(change) == 0:
        return None
    left_count = change + 1.0
    right_count = n - left_count
    left_pos = np.cumsum(labels)[change]
    total_pos = labels.sum()
    right_pos = total_pos - left_pos
    p_left = left_pos / left_count
    p_right = right_pos / right_count
    gini_left = 1.0 - p_left**2 - (1 - p_left) ** 2
    gini_right = 1.0 - p_right**2 - (1 - p_right) ** 2
    weighted = (left_count * gini_left + right_count * gini_right) / n
    best = int(np.argmin(weighted))
    threshold = 0.5 * (v[change[best]] + v[change[best] + 1])
    return float(weighted[best]), float(threshold)


class DecisionTreeClassifier:
    """Binary CART with optional per-node feature subsampling.

    ``max_features`` follows the usual conventions: ``None`` (all),
    ``"sqrt"``, or an int.
    """

    def __init__(self, max_depth: int = 12, min_samples_split: int = 2,
                 min_samples_leaf: int = 1, max_features=None,
                 rng: np.random.Generator | None = None):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = max(2, min_samples_split)
        self.min_samples_leaf = max(1, min_samples_leaf)
        self.max_features = max_features
        self._rng = rng or np.random.default_rng(0)
        self.n_features_: int = 0
        self.feature_: list[int] = []
        self.threshold_: list[float] = []
        self.left_: list[int] = []
        self.right_: list[int] = []
        self.value_: list[float] = []

    def _n_candidate_features(self, d: int) -> int:
        if self.max_features is None:
            return d
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(d)))
        return min(d, int(self.max_features))

    def _grow(self, x: np.ndarray, y: np.ndarray, depth: int) -> int:
        """Append the subtree fitted to ``(x, y)`` in preorder; return its
        root's index.  Every node starts as a leaf."""
        node = len(self.value_)
        self.feature_.append(-1)
        self.threshold_.append(0.0)
        self.left_.append(-1)
        self.right_.append(-1)
        self.value_.append(float(y.mean()) if len(y) else 0.0)
        if (
            depth >= self.max_depth
            or len(y) < self.min_samples_split
            or y.min() == y.max()
        ):
            return node
        d = x.shape[1]
        k = self._n_candidate_features(d)
        candidates = (
            np.arange(d) if k == d else self._rng.choice(d, size=k, replace=False)
        )
        best_gini = np.inf
        best_feature = -1
        best_threshold = 0.0
        for feature in candidates:
            result = _best_split_for_feature(x[:, feature], y)
            if result is None:
                continue
            gini, threshold = result
            if gini < best_gini:
                best_gini, best_feature, best_threshold = gini, int(feature), threshold
        if best_feature < 0:
            return node
        mask = x[:, best_feature] <= best_threshold
        if mask.sum() < self.min_samples_leaf or (~mask).sum() < self.min_samples_leaf:
            return node
        self.feature_[node] = best_feature
        self.threshold_[node] = best_threshold
        self.left_[node] = self._grow(x[mask], y[mask], depth + 1)
        self.right_[node] = self._grow(x[~mask], y[~mask], depth + 1)
        return node

    def fit(self, x, y) -> "DecisionTreeClassifier":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2:
            raise ValueError("x must be 2-D")
        if not np.isin(y, (0, 1)).all():
            raise ValueError("labels must be binary 0/1")
        self.n_features_ = x.shape[1]
        self.feature_, self.threshold_ = [], []
        self.left_, self.right_, self.value_ = [], [], []
        self._grow(x, y, depth=0)
        return self

    def _check_fitted(self) -> None:
        if not self.value_:
            raise RuntimeError("model is not fitted")

    def predict_proba(self, x) -> np.ndarray:
        """Vectorized routing of rows down the tree; returns P(y=1)."""
        self._check_fitted()
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.n_features_:
            raise ValueError(
                f"model was fitted on {self.n_features_} features per row; "
                f"got input of shape {x.shape}"
            )
        out = np.empty(len(x))
        # Iterative partition routing: keep (node, row_indices) work items.
        stack = [(0, np.arange(len(x)))]
        while stack:
            node, idx = stack.pop()
            if len(idx) == 0:
                continue
            if self.feature_[node] < 0:
                out[idx] = self.value_[node]
                continue
            mask = x[idx, self.feature_[node]] <= self.threshold_[node]
            stack.append((self.left_[node], idx[mask]))
            stack.append((self.right_[node], idx[~mask]))
        return out

    def predict(self, x, threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(x) >= threshold).astype(int)

    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        self._check_fitted()
        # Preorder: a node's depth is set before its children are reached.
        depths = [0] * len(self.value_)
        for node, left in enumerate(self.left_):
            if left >= 0:
                depths[left] = depths[self.right_[node]] = depths[node] + 1
        return max(depths)
