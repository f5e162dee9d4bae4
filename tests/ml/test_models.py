"""Tests for LogisticRegression, DecisionTree and RandomForest."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    DecisionTreeClassifier,
    LogisticRegression,
    RandomForestClassifier,
    roc_auc,
)


def make_blobs(rng, n=400, sep=3.0):
    """Two gaussian blobs; returns (x, y)."""
    half = n // 2
    x0 = rng.normal(size=(half, 4))
    x1 = rng.normal(size=(n - half, 4)) + sep
    x = np.vstack([x0, x1])
    y = np.concatenate([np.zeros(half), np.ones(n - half)])
    perm = rng.permutation(n)
    return x[perm], y[perm]


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestLogisticRegression:
    def test_separates_blobs(self, rng):
        x, y = make_blobs(rng)
        model = LogisticRegression(epochs=300).fit(x, y)
        assert roc_auc(y, model.predict_proba(x)) > 0.99

    def test_probabilities_are_valid(self, rng):
        x, y = make_blobs(rng)
        p = LogisticRegression(epochs=100).fit(x, y).predict_proba(x)
        assert ((p >= 0) & (p <= 1)).all()

    def test_balanced_mode_improves_minority_recall(self, rng):
        x, y = make_blobs(rng, n=400, sep=1.2)
        # Make it heavily imbalanced by dropping most positives.
        keep = (y == 0) | (rng.random(len(y)) < 0.08)
        x, y = x[keep], y[keep]
        plain = LogisticRegression(epochs=200).fit(x, y)
        balanced = LogisticRegression(epochs=200, class_weight="balanced").fit(x, y)
        recall = lambda m: ((m.predict(x) == 1) & (y == 1)).sum() / max(1, (y == 1).sum())
        assert recall(balanced) >= recall(plain)

    def test_rejects_nonbinary_labels(self, rng):
        with pytest.raises(ValueError):
            LogisticRegression().fit(rng.normal(size=(4, 2)), [0, 1, 2, 1])

    def test_unfitted_predict_raises(self, rng):
        with pytest.raises(RuntimeError):
            LogisticRegression().predict_proba(rng.normal(size=(2, 2)))

    def test_works_on_sparse_input(self, rng):
        from scipy import sparse

        x, y = make_blobs(rng)
        xs = sparse.csr_matrix(x)
        model = LogisticRegression(epochs=200).fit(xs, y)
        assert roc_auc(y, model.predict_proba(xs)) > 0.99


class TestDecisionTree:
    def test_fits_axis_aligned_split(self, rng):
        x = rng.uniform(size=(300, 3))
        y = (x[:, 1] > 0.6).astype(float)
        tree = DecisionTreeClassifier(max_depth=3).fit(x, y)
        assert (tree.predict(x) == y).mean() > 0.98

    def test_respects_max_depth(self, rng):
        x, y = make_blobs(rng, sep=0.5)
        tree = DecisionTreeClassifier(max_depth=2).fit(x, y)
        assert tree.depth() <= 2

    def test_pure_node_becomes_leaf(self):
        x = np.array([[0.0], [1.0], [2.0]])
        tree = DecisionTreeClassifier().fit(x, np.zeros(3))
        assert tree.depth() == 0

    def test_constant_features_become_leaf(self):
        x = np.ones((10, 3))
        y = np.array([0, 1] * 5, dtype=float)
        tree = DecisionTreeClassifier().fit(x, y)
        assert tree.depth() == 0
        assert np.allclose(tree.predict_proba(x), 0.5)

    def test_probabilities_reflect_leaf_composition(self, rng):
        x = rng.uniform(size=(200, 1))
        y = (rng.random(200) < np.clip(x[:, 0], 0, 1)).astype(float)
        tree = DecisionTreeClassifier(max_depth=2).fit(x, y)
        probs = tree.predict_proba(x)
        assert probs[x[:, 0] > 0.8].mean() > probs[x[:, 0] < 0.2].mean()

    def test_min_samples_leaf_respected(self, rng):
        x, y = make_blobs(rng, n=50, sep=0.3)
        tree = DecisionTreeClassifier(max_depth=10, min_samples_leaf=10).fit(x, y)
        # Route all training rows; every leaf must hold >= 10 of them.
        counts = {}
        for row in x:
            node = 0
            while tree.feature_[node] >= 0:
                if row[tree.feature_[node]] <= tree.threshold_[node]:
                    node = tree.left_[node]
                else:
                    node = tree.right_[node]
            counts[node] = counts.get(node, 0) + 1
        assert min(counts.values()) >= 10

    def test_rejects_input_of_wrong_width(self, rng):
        x, y = make_blobs(rng)
        tree = DecisionTreeClassifier(max_depth=3).fit(x, y)
        with pytest.raises(ValueError, match=r"4 features.*\(5, 3\)"):
            tree.predict_proba(x[:5, :3])
        with pytest.raises(ValueError, match=r"4 features.*\(4,\)"):
            tree.predict_proba(x[0])


class TestRandomForest:
    def test_beats_single_tree_on_noisy_data(self, rng):
        x, y = make_blobs(rng, n=600, sep=1.0)
        x_noisy = x + rng.normal(scale=1.0, size=x.shape)
        split = 400
        tree = DecisionTreeClassifier(max_depth=8).fit(x_noisy[:split], y[:split])
        forest = RandomForestClassifier(n_estimators=25, max_depth=8, seed=1).fit(
            x_noisy[:split], y[:split]
        )
        auc_tree = roc_auc(y[split:], tree.predict_proba(x_noisy[split:]))
        auc_forest = roc_auc(y[split:], forest.predict_proba(x_noisy[split:]))
        assert auc_forest >= auc_tree - 0.01

    def test_deterministic_given_seed(self, rng):
        x, y = make_blobs(rng)
        f1 = RandomForestClassifier(n_estimators=5, seed=42).fit(x, y)
        f2 = RandomForestClassifier(n_estimators=5, seed=42).fit(x, y)
        assert np.array_equal(f1.predict_proba(x), f2.predict_proba(x))

    def test_feature_importances_sum_to_one(self, rng):
        x, y = make_blobs(rng)
        forest = RandomForestClassifier(n_estimators=5, seed=0).fit(x, y)
        importances = forest.feature_importances()
        assert importances.shape == (4,)
        assert importances.sum() == pytest.approx(1.0)

    def test_max_samples_caps_bootstrap(self, rng):
        x, y = make_blobs(rng, n=200)
        forest = RandomForestClassifier(n_estimators=3, max_samples=50, seed=0)
        forest.fit(x, y)
        assert len(forest.trees_) == 3

    def test_unfitted_raises(self, rng):
        with pytest.raises(RuntimeError):
            RandomForestClassifier().predict_proba(rng.normal(size=(2, 2)))

    def test_rejects_input_of_wrong_width(self, rng):
        x, y = make_blobs(rng)
        forest = RandomForestClassifier(n_estimators=3, seed=0).fit(x, y)
        with pytest.raises(ValueError, match=r"4 features.*\(5, 3\)"):
            forest.predict_proba(x[:5, :3])
        with pytest.raises(ValueError, match=r"4 features.*\(4,\)"):
            forest.predict_proba(x[0])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n_features=st.integers(min_value=1, max_value=6),
           n_estimators=st.integers(min_value=1, max_value=6))
    def test_property_one_row_score_equals_batch(self, seed, n_features,
                                                 n_estimators):
        """The scalar walk over a sparse row gives the batch score's bits,
        also for values that sit exactly on a split threshold."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(120, n_features)) * (rng.random((120, n_features)) < 0.6)
        y = (x.sum(axis=1) + rng.normal(scale=0.5, size=120) > 0).astype(float)
        forest = RandomForestClassifier(
            n_estimators=n_estimators, max_depth=8, min_samples_leaf=1,
            seed=int(rng.integers(1000)),
        ).fit(x, y)
        # Per column: 0.0 (absent from the sparse row), a split threshold
        # of that column, or a fresh draw.
        splits = [[] for _ in range(n_features)]
        for tree in forest.trees_:
            for column, threshold in zip(tree.feature_, tree.threshold_):
                if column >= 0:
                    splits[column].append(threshold)
        probes = rng.normal(size=(60, n_features))
        kind = rng.integers(3, size=probes.shape)
        probes[kind == 0] = 0.0
        for column, thresholds in enumerate(splits):
            on_split = np.flatnonzero(kind[:, column] == 1)
            if thresholds and len(on_split):
                probes[on_split, column] = rng.choice(thresholds, size=len(on_split))
        batch = forest.predict_proba(probes)
        for row, expected in zip(probes.tolist(), batch.tolist()):
            sparse_row = {c: v for c, v in enumerate(row) if v != 0.0}
            assert forest.predict_proba_one(sparse_row) == expected
