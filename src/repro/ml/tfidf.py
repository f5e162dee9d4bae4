"""TF-IDF vectorizer producing scipy CSR matrices.

Feeds the pump-message detector of §3.2: messages are cleaned, tokenized
and represented as smoothed, L2-normalized TF-IDF vectors.

``transform`` builds a CSR matrix for a batch of documents.
``transform_one`` builds one document's row as a ``{column: value}``
dict with numpy and the standard library only, for per-message scoring
on the stream; it repeats ``transform``'s arithmetic step for step, so
its values equal ``transform([doc]).toarray()[0]`` bit for bit.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

import numpy as np


def _sparse():
    """Load ``scipy.sparse`` on first use.

    Fitting only counts tokens; scipy is needed the moment a CSR matrix
    must be materialized, and a serving process that never runs the
    TF-IDF detector never pays (or needs) the import.
    """
    try:
        from scipy import sparse
    except ImportError as exc:
        raise ImportError(
            "repro.ml.tfidf produces scipy CSR matrices: install scipy to "
            "use the TF-IDF detector path (the serving stack does not "
            "require it)"
        ) from exc
    return sparse


class TfidfVectorizer:
    """Bag-of-words TF-IDF with smoothed IDF and L2 row normalization.

    Parameters
    ----------
    max_features:
        Keep only the most frequent terms (by document frequency).
    min_df:
        Drop terms appearing in fewer than this many documents.
    tokenizer:
        Callable mapping a string to tokens; defaults to whitespace split
        (the text pipeline pre-cleans messages).
    """

    def __init__(self, max_features: int | None = None, min_df: int = 1,
                 tokenizer=None):
        if min_df < 1:
            raise ValueError("min_df must be >= 1")
        self.max_features = max_features
        self.min_df = min_df
        self.tokenizer = tokenizer or (lambda text: text.split())
        self.vocabulary_: dict[str, int] = {}
        self.idf_: np.ndarray | None = None

    def fit(self, documents: Sequence[str]) -> "TfidfVectorizer":
        if len(documents) == 0:
            raise ValueError("cannot fit on an empty corpus")
        doc_freq: Counter = Counter()
        for doc in documents:
            doc_freq.update(set(self.tokenizer(doc)))
        items = [(t, c) for t, c in doc_freq.items() if c >= self.min_df]
        # Deterministic ordering: by document frequency desc, then term.
        items.sort(key=lambda tc: (-tc[1], tc[0]))
        if self.max_features is not None:
            items = items[: self.max_features]
        self.vocabulary_ = {term: i for i, (term, _) in enumerate(items)}
        n_docs = len(documents)
        df = np.array([c for _, c in items], dtype=float)
        # Smoothed IDF, as in sklearn: log((1+n)/(1+df)) + 1.
        self.idf_ = np.log((1.0 + n_docs) / (1.0 + df)) + 1.0
        return self

    def transform(self, documents: Sequence[str]) -> "sparse.csr_matrix":
        if self.idf_ is None:
            raise RuntimeError("vectorizer is not fitted")
        sparse = _sparse()
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        for i, doc in enumerate(documents):
            counts = Counter(
                self.vocabulary_[t] for t in self.tokenizer(doc) if t in self.vocabulary_
            )
            for col, count in counts.items():
                rows.append(i)
                cols.append(col)
                vals.append(float(count) * self.idf_[col])
        matrix = sparse.csr_matrix(
            (vals, (rows, cols)), shape=(len(documents), len(self.vocabulary_))
        )
        # L2-normalize non-empty rows.
        norms = np.sqrt(matrix.multiply(matrix).sum(axis=1)).A.ravel()
        norms[norms == 0] = 1.0
        scale = sparse.diags(1.0 / norms)
        return scale @ matrix

    def transform_one(self, document: str) -> dict[int, float]:
        """One document's TF-IDF row as ``{column: value}``, without scipy.

        ``transform`` keeps each row's columns sorted until the norm, and
        scipy's ``sum(axis=1)`` reduces them with ``np.add.reduceat``;
        this row does the same, because a sum in another order can differ
        in the last bit.
        """
        if self.idf_ is None:
            raise RuntimeError("vectorizer is not fitted")
        counts = Counter(
            self.vocabulary_[t] for t in self.tokenizer(document)
            if t in self.vocabulary_
        )
        if not counts:
            return {}
        cols = sorted(counts)
        values = np.array([counts[c] for c in cols], dtype=float) * self.idf_[cols]
        norm = np.sqrt(np.add.reduceat(values * values, [0]))
        return dict(zip(cols, (values * (1.0 / norm)).tolist()))

    def fit_transform(self, documents: Sequence[str]) -> "sparse.csr_matrix":
        return self.fit(documents).transform(documents)

    def get_feature_names(self) -> list[str]:
        """Vocabulary terms in column order."""
        return sorted(self.vocabulary_, key=self.vocabulary_.get)
