"""SNN — the Sequence Neural Network of §5.2 (Figure 7).

Architecture:

* **Embedding layer** — channel-id and coin-id embeddings; the target coin
  and the coins in the pump-history sequence *share one latent space*
  (paper: "to reduce the redundancy of parameters").  Embeddings are
  concatenated with numeric features (eqs. 1-2).
* **Positional attention** — encodes the ``(N, K)`` sequence into ``h_s``
  with per-feature multi-channel attention over positions (eqs. 3-6).
* **MLP head** — ``sigmoid(MLP(h_c ⊕ h_t ⊕ h_s))`` (eq. 7), trained with
  the negative log-likelihood of eq. 8.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.nn import MLP, Embedding, Module, PositionalAttention, Tensor, concat


@dataclass(frozen=True)
class SNNConfig:
    """Hyper-parameters of SNN and its deep competitors."""

    n_channels: int
    n_coin_ids: int
    n_numeric: int
    seq_len: int
    n_seq_numeric: int
    channel_emb_dim: int = 8
    coin_emb_dim: int = 8
    attention_channels: int = 8     # paper: "the number of channel is set to 8"
    hidden_dims: tuple[int, ...] = (64, 32)
    dropout: float = 0.0

    @property
    def n_seq_features(self) -> int:
        """K: per-position feature count (embedding dims + numerics)."""
        return self.coin_emb_dim + self.n_seq_numeric


@dataclass
class Batch:
    """A model-input minibatch (plain numpy arrays).

    Row arrays (``channel_idx``, ``coin_idx``, ``numeric``, ``label``)
    hold one entry per candidate row.  The ``seq_*`` arrays hold one entry
    per pump history, and ``seq_index`` maps every row to its history, so
    the candidates of one announcement share a single encoding of it.
    ``seq_index=None`` means one history per row (the training layout).
    """

    channel_idx: np.ndarray
    coin_idx: np.ndarray
    numeric: np.ndarray
    seq_coin_idx: np.ndarray
    seq_numeric: np.ndarray
    seq_mask: np.ndarray
    label: np.ndarray
    seq_index: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.label)

    def per_row(self, h_s: Tensor) -> Tensor:
        """Gather per-history encodings ``(R, D)`` onto the rows ``(B, D)``."""
        return h_s if self.seq_index is None else h_s[self.seq_index]

    def pad_singletons(self) -> "Batch":
        """This batch with a lone row and a lone history each doubled.

        BLAS runs gemv kernels on a one-row operand, and their
        accumulation order differs in the last ulp from the gemm kernels
        every larger operand shares.  Doubling keeps a score bit-identical
        whether its announcement is ranked alone or inside a micro-batch;
        outputs past the original ``len(self)`` rows are padding.
        """

        def pad(array):
            if array is None or len(array) != 1:
                return array
            return np.concatenate([array, array])

        return Batch(*(pad(getattr(self, f.name)) for f in fields(self)))


class SNN(Module):
    """The paper's model.  ``forward`` returns pre-sigmoid logits ``(B,)``."""

    def __init__(self, config: SNNConfig, rng: np.random.Generator,
                 coin_vectors: np.ndarray | None = None,
                 freeze_coin_embedding: bool = False):
        """``coin_vectors`` optionally initializes the shared coin embedding
        (the §5.3 cold-start fix: SkipGram / CBoW word vectors); when given
        with ``freeze_coin_embedding`` the table stays fixed (SNN_S, SNN_C).
        """
        super().__init__()
        self.config = config
        self.channel_embedding = Embedding(config.n_channels, config.channel_emb_dim, rng)
        if coin_vectors is not None:
            if coin_vectors.shape != (config.n_coin_ids, config.coin_emb_dim):
                raise ValueError(
                    f"coin_vectors must be {(config.n_coin_ids, config.coin_emb_dim)}, "
                    f"got {coin_vectors.shape}"
                )
            self.coin_embedding = Embedding.from_pretrained(
                coin_vectors, frozen=freeze_coin_embedding
            )
        else:
            self.coin_embedding = Embedding(config.n_coin_ids, config.coin_emb_dim, rng)
        self.attention = PositionalAttention(
            config.seq_len, config.n_seq_features,
            channels=config.attention_channels, rng=rng,
        )
        head_in = (
            config.channel_emb_dim + config.coin_emb_dim + config.n_numeric
            + self.attention.output_dim
        )
        self.head = MLP([head_in, *config.hidden_dims, 1], rng,
                        dropout=config.dropout)

    def encode_sequence(self, batch: Batch) -> Tensor:
        """``h_s``: positional-attention encoding of each pump history."""
        seq_emb = self.coin_embedding(batch.seq_coin_idx)      # (R, N, E)
        seq = concat([seq_emb, Tensor(batch.seq_numeric)], axis=-1)
        seq = seq * Tensor(batch.seq_mask[:, :, None])          # zero out PAD
        return self.attention(seq)

    def forward(self, batch: Batch) -> Tensor:
        h_c = concat(
            [self.channel_embedding(batch.channel_idx)], axis=-1
        )
        h_t = concat(
            [self.coin_embedding(batch.coin_idx), Tensor(batch.numeric)], axis=-1
        )
        h_s = batch.per_row(self.encode_sequence(batch))
        logits = self.head(concat([h_c, h_t, h_s], axis=-1))
        return logits.reshape(len(batch))

    def attention_heatmap(self) -> np.ndarray:
        """Per-feature attention weights ``(K * C, N)`` for Figure 10."""
        return self.attention.attention_weights()
