"""Pump message detection (§3.2): keyword filter → TF-IDF → RF / LR.

The paper labels ~5k sampled messages, trains Random Forest and Logistic
Regression on TF-IDF vectors, and applies the RF at a low 0.2 threshold to
maximize recall (Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.ml import (
    BinaryClassificationReport,
    LogisticRegression,
    RandomForestClassifier,
    TfidfVectorizer,
    classification_report,
)
from repro.types import Message
from repro.text import KeywordFilter, tokenize

DETECTION_THRESHOLD = 0.2  # the paper's deliberately low cut-off


@dataclass
class DetectionOutcome:
    """Everything Table 1 and the downstream pipeline need."""

    reports: dict[str, BinaryClassificationReport]
    detected: list[Message]            # messages the RF flags as pump
    n_filtered: int                    # messages surviving the keyword filter
    n_total: int
    n_labelled: int
    # Fitted artefacts, retained so a serving layer can classify new
    # messages without re-running the pipeline.
    detectors: dict[str, PumpMessageDetector] = field(default_factory=dict)
    keyword_filter: "KeywordFilter | None" = None


class PumpMessageDetector:
    """TF-IDF + classifier pump-message model."""

    def __init__(self, model: str = "rf", max_features: int = 400, seed: int = 0):
        if model not in ("rf", "lr"):
            raise ValueError("model must be 'rf' or 'lr'")
        self.model_name = model
        self.vectorizer = TfidfVectorizer(
            max_features=max_features, min_df=2, tokenizer=tokenize
        )
        if model == "rf":
            self.model = RandomForestClassifier(
                n_estimators=40, max_depth=25, max_samples=4000, seed=seed
            )
        else:
            self.model = LogisticRegression(epochs=250, class_weight="balanced")

    def fit(self, texts: Sequence[str], labels) -> "PumpMessageDetector":
        matrix = self.vectorizer.fit_transform(texts)
        self.model.fit(matrix, np.asarray(labels, dtype=float))
        return self

    def predict_proba(self, texts: Sequence[str]) -> np.ndarray:
        return self.model.predict_proba(self.vectorizer.transform(texts))

    def predict_proba_one(self, text: str) -> float:
        """P(pump) of one message, equal to ``predict_proba([text])[0]``
        bit for bit, without scipy.  RF only: the LR detector scores
        batches."""
        return self.model.predict_proba_one(self.vectorizer.transform_one(text))

    def evaluate(self, texts: Sequence[str], labels,
                 threshold: float = DETECTION_THRESHOLD) -> BinaryClassificationReport:
        return classification_report(
            np.asarray(labels), self.predict_proba(texts), threshold=threshold
        )


def run_detection_pipeline(messages: Sequence[Message], coin_symbols: Sequence[str],
                           exchange_names: Sequence[str], n_label: int = 1600,
                           train_fraction: float = 0.7, seed: int = 0,
                           ) -> DetectionOutcome:
    """The full §3.2 workflow over a collected message stream.

    1. keyword filtering;
    2. random labelling of ``n_label`` filtered messages (ground truth plays
       the role of the human annotators);
    3. 70/30 train/test of RF and LR (Table 1);
    4. RF detection at threshold 0.2 over everything that passed the filter.
    """
    rng = np.random.default_rng(seed)
    keyword_filter = KeywordFilter(coin_symbols, exchange_names)
    kept_idx = keyword_filter.filter([m.text for m in messages])
    filtered = [messages[i] for i in kept_idx]
    if len(filtered) < 10:
        raise ValueError("keyword filter left too few messages to train on")

    n_label = min(n_label, len(filtered))
    chosen = rng.choice(len(filtered), size=n_label, replace=False)
    labelled = [filtered[i] for i in chosen]
    texts = [m.text for m in labelled]
    labels = np.array([float(m.is_pump_message) for m in labelled])

    order = rng.permutation(n_label)
    n_train = int(train_fraction * n_label)
    train_idx, test_idx = order[:n_train], order[n_train:]
    train_texts = [texts[i] for i in train_idx]
    test_texts = [texts[i] for i in test_idx]

    reports: dict[str, BinaryClassificationReport] = {}
    detectors: dict[str, PumpMessageDetector] = {}
    for name in ("lr", "rf"):
        detector = PumpMessageDetector(model=name, seed=seed).fit(
            train_texts, labels[train_idx]
        )
        reports[name] = detector.evaluate(test_texts, labels[test_idx])
        detectors[name] = detector

    # Chatter repeats its texts; a TF-IDF row and its tree routes depend
    # only on the text, so each distinct text is scored once.
    distinct = list(dict.fromkeys(m.text for m in filtered))
    prob = dict(zip(distinct, detectors["rf"].predict_proba(distinct)))
    detected = [m for m in filtered if prob[m.text] >= DETECTION_THRESHOLD]
    return DetectionOutcome(
        reports=reports,
        detected=detected,
        n_filtered=len(filtered),
        n_total=len(messages),
        n_labelled=n_label,
        detectors=detectors,
        keyword_filter=keyword_filter,
    )
