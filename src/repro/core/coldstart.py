"""The coin-side cold-start problem and its word-embedding fix (§5.3).

Coins that first appear (or are first pumped) in the test period have
untrained / weakly-trained coin-id embeddings, which the model cannot rank
(Figure 9, Table 6).  The fix: pre-train SkipGram / CBoW word embeddings on
the full Telegram corpus and use the *coin symbol's* word vector in place of
the end-to-end embedding — word vectors cover almost every symbol because
coins are discussed long before they are pumped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.snn import Batch
from repro.features.assembler import AssembledSplit
from repro.nn import MLP, Embedding, Module, Tensor
from repro.sources.base import DataSource
from repro.text import Word2Vec, sentences_to_tokens


def train_coin_embeddings(source: DataSource, mode: str = "skipgram",
                          dim: int = 8, epochs: int = 2,
                          seed: int = 0) -> tuple[np.ndarray, Word2Vec]:
    """Pre-train word vectors on the Telegram corpus; extract coin rows.

    ``source`` is any data backend; the corpus is its full message
    stream.  Returns ``(matrix, model)`` where ``matrix`` has
    ``n_coins + 1`` rows (the last is the PAD row, all zeros).  Symbols missing from the corpus fall back to zeros — still far
    better than a random untrained embedding because zero is a *consistent*
    neutral point (cf. Figure 9c-d).
    """
    corpus = sentences_to_tokens([m.text for m in source.messages()])
    model = Word2Vec(corpus, dim=dim, mode=mode, epochs=epochs, min_count=2,
                     seed=seed)
    n = source.coins.n_coins
    matrix = np.zeros((n + 1, dim))
    covered = 0
    for coin_id, symbol in enumerate(source.coins.symbols):
        token = symbol.lower()
        if token in model:
            matrix[coin_id] = model.vector(token)
            covered += 1
    # Scale to a comparable magnitude with trained id-embeddings.
    scale = np.abs(matrix).max()
    if scale > 0:
        matrix = matrix / scale * 0.5
    return matrix, model


class CoinIdOnlyModel(Module):
    """A DNN that sees *only* the candidate coin-id embedding (Table 6).

    ``E2E`` trains the embedding end-to-end; ``CBOW``/``SG`` freeze it to
    pre-trained word vectors.  Deliberately blind to every other feature so
    Table 6 isolates embedding quality.
    """

    def __init__(self, n_coin_ids: int, dim: int, rng: np.random.Generator,
                 coin_vectors: np.ndarray | None = None):
        super().__init__()
        if coin_vectors is not None:
            self.coin_embedding = Embedding.from_pretrained(coin_vectors, frozen=True)
        else:
            self.coin_embedding = Embedding(n_coin_ids, dim, rng)
        self.head = MLP([dim, 32, 1], rng)

    def forward(self, batch: Batch) -> Tensor:
        emb = self.coin_embedding(batch.coin_idx)
        return self.head(emb).reshape(len(batch))


@dataclass(frozen=True)
class EmbeddingNormStudy:
    """ℓ1-norm distributions behind Figure 9."""

    train_positive: np.ndarray
    train_negative: np.ndarray
    test_positive_warm: np.ndarray   # pumped in training too ("positive1")
    test_positive_cold: np.ndarray   # never pumped in training ("positive2")
    test_negative: np.ndarray
    test_untrained: np.ndarray       # coins absent from the training split


def embedding_l1_norms(embedding_matrix: np.ndarray, train: AssembledSplit,
                       test: AssembledSplit) -> EmbeddingNormStudy:
    """Group coin-embedding ℓ1 norms as Figure 9 does."""
    norms = np.abs(embedding_matrix).sum(axis=1)
    train_pos_coins = set(train.coin_idx[train.label == 1].tolist())
    train_all_coins = set(train.coin_idx.tolist())

    test_pos = test.coin_idx[test.label == 1]
    warm_mask = np.array([c in train_pos_coins for c in test_pos])
    untrained_mask = np.array([c not in train_all_coins for c in test.coin_idx])
    return EmbeddingNormStudy(
        train_positive=norms[train.coin_idx[train.label == 1]],
        train_negative=norms[train.coin_idx[train.label == 0]],
        test_positive_warm=norms[test_pos[warm_mask]],
        test_positive_cold=norms[test_pos[~warm_mask]],
        test_negative=norms[test.coin_idx[test.label == 0]],
        test_untrained=norms[test.coin_idx[untrained_mask]],
    )
