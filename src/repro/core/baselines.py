"""The paper's competitor models (§6.1).

Deep baselines share SNN's embedding layer and MLP head and differ only in
the sequence encoder:

* **DNN** — no sequence at all (ablates the pump history);
* **LSTM / BiLSTM / GRU / BiGRU** — recurrent encoders (hidden 32);
* **TCN** — depth 3, kernel 4, 16 channels (covers the 20-step sequence).

Classic baselines (LR, RF) consume hand-crafted features with mean-encoded
categorical ids, as in the paper.
"""

from __future__ import annotations

import numpy as np

from repro.core.snn import Batch, SNN, SNNConfig
from repro.ml import (
    LogisticRegression,
    MeanEncoder,
    RandomForestClassifier,
)
from repro.nn import MLP, TCN, Embedding, Module, Tensor, concat, make_rnn

RNN_HIDDEN_DIM = 32   # paper: "the hidden dimension of cells is set to 32"
TCN_CHANNELS = 16     # paper: depth 3, 16 channels/layer, kernel 4
TCN_DEPTH = 3
TCN_KERNEL = 4

DEEP_MODEL_NAMES = ("dnn", "lstm", "bilstm", "gru", "bigru", "tcn", "snn")
CLASSIC_MODEL_NAMES = ("lr", "rf")
ALL_MODEL_NAMES = CLASSIC_MODEL_NAMES + DEEP_MODEL_NAMES


class _DeepRanker(Module):
    """Shared skeleton: embeddings + (pluggable sequence encoder) + MLP."""

    def __init__(self, config: SNNConfig, rng: np.random.Generator,
                 sequence_encoder: Module | None, seq_summary_dim: int):
        super().__init__()
        self.config = config
        self.channel_embedding = Embedding(config.n_channels, config.channel_emb_dim, rng)
        self.coin_embedding = Embedding(config.n_coin_ids, config.coin_emb_dim, rng)
        self.sequence_encoder = sequence_encoder
        head_in = (
            config.channel_emb_dim + config.coin_emb_dim + config.n_numeric
            + seq_summary_dim
        )
        self.head = MLP([head_in, *config.hidden_dims, 1], rng,
                        dropout=config.dropout)

    def _sequence_input(self, batch: Batch) -> Tensor:
        seq_emb = self.coin_embedding(batch.seq_coin_idx)
        seq = concat([seq_emb, Tensor(batch.seq_numeric)], axis=-1)
        return seq * Tensor(batch.seq_mask[:, :, None])

    def encode_sequence(self, batch: Batch) -> Tensor | None:
        if self.sequence_encoder is None:
            return None
        # Histories are stored newest-first; recurrent/convolutional encoders
        # read oldest-first so their final state reflects the newest pump.
        seq = self._sequence_input(batch).flip(axis=1)
        return self.sequence_encoder(seq)

    def forward(self, batch: Batch) -> Tensor:
        parts = [
            self.channel_embedding(batch.channel_idx),
            self.coin_embedding(batch.coin_idx),
            Tensor(batch.numeric),
        ]
        h_s = self.encode_sequence(batch)
        if h_s is not None:
            parts.append(batch.per_row(h_s))
        return self.head(concat(parts, axis=-1)).reshape(len(batch))


class DNNRanker(_DeepRanker):
    """SNN minus the sequence — the paper's DNN baseline."""

    def __init__(self, config: SNNConfig, rng: np.random.Generator):
        super().__init__(config, rng, sequence_encoder=None, seq_summary_dim=0)


class RNNRanker(_DeepRanker):
    """LSTM/BiLSTM/GRU/BiGRU sequence encoders."""

    def __init__(self, kind: str, config: SNNConfig, rng: np.random.Generator):
        encoder = make_rnn(kind, config.n_seq_features, RNN_HIDDEN_DIM, rng)
        super().__init__(config, rng, sequence_encoder=encoder,
                         seq_summary_dim=encoder.output_dim)
        self.kind = kind


class TCNRanker(_DeepRanker):
    """Temporal-convolutional sequence encoder."""

    def __init__(self, config: SNNConfig, rng: np.random.Generator):
        encoder = TCN(config.n_seq_features, channels=TCN_CHANNELS,
                      depth=TCN_DEPTH, kernel_size=TCN_KERNEL, rng=rng)
        super().__init__(config, rng, sequence_encoder=encoder,
                         seq_summary_dim=encoder.output_dim)


def make_model(name: str, config: SNNConfig, seed: int = 0) -> Module:
    """Factory for every deep competitor of Table 5.

    The returned module carries its factory name as ``model_name`` so the
    artifact layer (:mod:`repro.registry`) can rebuild the architecture.
    """
    rng = np.random.default_rng(seed)
    name = name.lower()
    if name == "snn":
        model = SNN(config, rng)
    elif name == "dnn":
        model = DNNRanker(config, rng)
    elif name in ("lstm", "bilstm", "gru", "bigru"):
        model = RNNRanker(name, config, rng)
    elif name == "tcn":
        model = TCNRanker(config, rng)
    else:
        raise ValueError(f"unknown model {name!r}; choose from {DEEP_MODEL_NAMES}")
    model.model_name = name
    return model


class ClassicRanker:
    """LR / RF on hand-crafted features with mean-encoded ids (§6.1).

    Mean encoding "compensates for the lack of embedding layers": channel
    and coin ids become smoothed positive rates estimated on training data.
    """

    def __init__(self, kind: str, seed: int = 0):
        if kind not in CLASSIC_MODEL_NAMES:
            raise ValueError("kind must be 'lr' or 'rf'")
        self.kind = kind
        if kind == "lr":
            self.model = LogisticRegression(epochs=250, class_weight="balanced")
        else:
            self.model = RandomForestClassifier(
                n_estimators=40, max_depth=14, max_samples=20_000,
                class_weight="balanced", seed=seed,
            )
        self.channel_encoder = MeanEncoder()
        self.coin_encoder = MeanEncoder()

    def _features(self, split) -> np.ndarray:
        return np.column_stack([
            split.numeric,
            self.channel_encoder.transform(split.channel_idx),
            self.coin_encoder.transform(split.coin_idx),
        ])

    def fit(self, train) -> "ClassicRanker":
        self.channel_encoder.fit(train.channel_idx, train.label)
        self.coin_encoder.fit(train.coin_idx, train.label)
        self.model.fit(self._features(train), train.label)
        return self

    def predict_proba(self, split) -> np.ndarray:
        return self.model.predict_proba(self._features(split))
