"""Tests for TF-IDF, mean encoding and scalers."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ml import MeanEncoder, MinMaxScaler, StandardScaler, TfidfVectorizer


class TestTfidf:
    def test_hand_computed_values(self):
        docs = ["pump pump soon", "hold the coin", "pump target binance"]
        vec = TfidfVectorizer()
        matrix = vec.fit_transform(docs).toarray()
        vocab = vec.vocabulary_
        # 'pump' appears in 2 of 3 docs, 'hold' in 1 of 3.
        idf_pump = np.log(4 / 3) + 1
        idf_hold = np.log(4 / 2) + 1
        assert vec.idf_[vocab["pump"]] == pytest.approx(idf_pump)
        assert vec.idf_[vocab["hold"]] == pytest.approx(idf_hold)
        # Row 0: tf(pump)=2, tf(soon)=1, L2-normalized.
        idf_soon = np.log(4 / 2) + 1
        raw = np.zeros(len(vocab))
        raw[vocab["pump"]] = 2 * idf_pump
        raw[vocab["soon"]] = 1 * idf_soon
        assert np.allclose(matrix[0], raw / np.linalg.norm(raw))

    def test_rows_are_unit_norm(self):
        docs = ["a b c", "b c d", "a a a a"]
        matrix = TfidfVectorizer().fit_transform(docs)
        norms = np.sqrt(matrix.multiply(matrix).sum(axis=1)).A.ravel()
        assert np.allclose(norms, 1.0)

    def test_empty_document_row_is_zero(self):
        vec = TfidfVectorizer().fit(["a b", "c"])
        matrix = vec.transform(["", "a"]).toarray()
        assert np.allclose(matrix[0], 0.0)
        assert matrix[1].sum() > 0

    def test_max_features_keeps_most_frequent(self):
        docs = ["a b", "a c", "a d"]
        vec = TfidfVectorizer(max_features=1).fit(docs)
        assert list(vec.vocabulary_) == ["a"]

    def test_min_df_drops_rare_terms(self):
        docs = ["a b", "a c", "a b"]
        vec = TfidfVectorizer(min_df=2).fit(docs)
        assert "c" not in vec.vocabulary_
        assert {"a", "b"} == set(vec.vocabulary_)

    def test_unseen_terms_ignored_at_transform(self):
        vec = TfidfVectorizer().fit(["a b"])
        matrix = vec.transform(["z z z a"]).toarray()
        assert matrix.shape == (1, 2)
        assert matrix[0].sum() > 0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            TfidfVectorizer().fit([])

    def test_feature_names_align_with_columns(self):
        vec = TfidfVectorizer().fit(["b a", "b c"])
        names = vec.get_feature_names()
        assert names[vec.vocabulary_["b"]] == "b"

    VOCABULARY = ["pump", "coin", "binance", "target", "buy", "hold", "moon",
                  "signal", "btc", "eth", "now", "soon"]
    DOCUMENTS = st.lists(
        st.sampled_from(VOCABULARY + ["oov", "zzz", "unseen"]), max_size=30,
    ).map(" ".join)

    @settings(max_examples=60, deadline=None)
    @given(corpus=st.lists(DOCUMENTS, min_size=1, max_size=12),
           documents=st.lists(DOCUMENTS, min_size=1, max_size=6))
    @example(corpus=["pump coin", "hold"], documents=[
        "", "oov zzz", "pump pump pump coin",
        "pump coin binance target buy hold moon signal btc eth now soon",
    ])
    def test_property_one_document_row_equals_transform(self, corpus, documents):
        """``transform_one`` has ``transform``'s bits: empty and
        out-of-vocabulary documents, repeated tokens, and rows of 8 or
        more terms, where numpy's reduction unrolls."""
        vec = TfidfVectorizer().fit(corpus)
        for document in documents:
            expected = vec.transform([document]).toarray()[0]
            row = vec.transform_one(document)
            assert sorted(row) == np.flatnonzero(expected).tolist()
            dense = np.zeros(len(vec.vocabulary_))
            dense[list(row)] = list(row.values())
            assert dense.tobytes() == expected.tobytes()


class TestMeanEncoder:
    def test_unsmoothed_recovers_category_means(self):
        cats = np.array([1, 1, 2, 2])
        y = np.array([1.0, 1.0, 0.0, 1.0])
        enc = MeanEncoder(alpha=0.0).fit(cats, y)
        out = enc.transform([1, 2])
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.5)

    def test_smoothing_pulls_toward_prior(self):
        cats = np.array([1, 2, 2, 2, 2])
        y = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        enc = MeanEncoder(alpha=5.0).fit(cats, y)
        prior = 0.2
        # Category 1 has a single positive; smoothing pulls it toward 0.2.
        assert prior < enc.transform([1])[0] < 1.0

    def test_unseen_category_gets_prior(self):
        enc = MeanEncoder().fit([1, 2], [1.0, 0.0])
        assert enc.transform([99])[0] == pytest.approx(0.5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MeanEncoder().fit([1, 2], [1.0])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=5_000))
    def test_property_encodings_bounded_by_label_range(self, seed):
        rng = np.random.default_rng(seed)
        cats = rng.integers(0, 5, size=50)
        y = (rng.random(50) > 0.5).astype(float)
        enc = MeanEncoder(alpha=3.0).fit(cats, y)
        out = enc.transform(cats)
        assert (out >= 0).all() and (out <= 1).all()


class TestScalers:
    def test_standard_scaler_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        x = rng.normal(loc=5, scale=3, size=(100, 4))
        z = StandardScaler().fit_transform(x)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_standard_scaler_roundtrip(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 3))
        scaler = StandardScaler().fit(x)
        assert np.allclose(scaler.inverse_transform(scaler.transform(x)), x)

    def test_constant_column_passthrough(self):
        x = np.ones((10, 2))
        z = StandardScaler().fit_transform(x)
        assert np.isfinite(z).all()

    def test_minmax_range(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 3)) * 10
        z = MinMaxScaler().fit_transform(x)
        assert z.min() >= 0.0 and z.max() <= 1.0

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.ones((2, 2)))
        with pytest.raises(RuntimeError):
            MinMaxScaler().transform(np.ones((2, 2)))
