"""Semantic-similarity analysis (§4.3, Figure 6).

SkipGram embeddings are pre-trained on the Telegram corpus; the cosine
similarity of coin pairs is compared under three selection strategies:

1. pairs pumped by the *same channel*;
2. pairs from the set of *all pumped coins*;
3. *random* pairs from all available coins.

Paper result: mean similarity 0.92 > 0.80 > 0.72, i.e. channels pick
semantically coherent coins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.data.sessions import PnDSample
from repro.simulation.world import SyntheticWorld
from repro.text import Word2Vec, sentences_to_tokens

STRATEGIES = ("same_channel", "pumped_set", "all_coins")


@dataclass
class SemanticStudy:
    """Similarity samples and means per strategy (Figure 6)."""

    similarities: dict[str, np.ndarray]

    def mean(self, strategy: str) -> float:
        return float(self.similarities[strategy].mean())

def _pair_similarities(vectors: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    a = vectors[pairs[:, 0]]
    b = vectors[pairs[:, 1]]
    norms = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    return (a * b).sum(axis=1) / np.maximum(norms, 1e-12)


def semantic_study(world: SyntheticWorld, samples: Sequence[PnDSample],
                   embeddings: Word2Vec | None = None, n_pairs: int = 400,
                   seed: int = 0) -> SemanticStudy:
    """Compute Figure 6's three similarity distributions."""
    if not samples:
        raise ValueError("no samples to analyse")
    if embeddings is None:
        corpus = sentences_to_tokens(world.telegram_corpus())
        embeddings = Word2Vec(corpus, dim=24, mode="skipgram", epochs=2,
                              min_count=2, seed=seed)
    # Coin vectors: coins missing from the vocabulary are skipped.
    symbol_vectors = {}
    for coin_id, symbol in enumerate(world.coins.symbols):
        token = symbol.lower()
        if token in embeddings:
            symbol_vectors[coin_id] = embeddings.vector(token)
    known = sorted(symbol_vectors)
    index = {coin: i for i, coin in enumerate(known)}
    vectors = np.stack([symbol_vectors[c] for c in known])
    rng = np.random.default_rng(seed)

    def sample_pairs(pool_pairs: list[tuple[int, int]]) -> np.ndarray:
        if not pool_pairs:
            raise ValueError("no candidate pairs for a strategy")
        rows = rng.integers(0, len(pool_pairs), size=min(n_pairs, len(pool_pairs) * 3))
        return np.array([pool_pairs[r] for r in rows])

    # Strategy 1: same-channel pairs.
    by_channel: dict[int, list[int]] = {}
    for sample in samples:
        if sample.coin_id in index:
            by_channel.setdefault(sample.channel_id, []).append(sample.coin_id)
    same_pairs = []
    for coins in by_channel.values():
        unique = sorted(set(coins))
        for i in range(len(unique)):
            for j in range(i + 1, len(unique)):
                same_pairs.append((index[unique[i]], index[unique[j]]))
    # Strategy 2: all pumped coins.
    pumped = sorted({s.coin_id for s in samples if s.coin_id in index})
    pumped_idx = [index[c] for c in pumped]
    pumped_pairs = [
        (a, b)
        for i, a in enumerate(pumped_idx)
        for b in pumped_idx[i + 1:]
    ]
    # Strategy 3: random pairs from all known coins.
    n_known = len(known)
    random_pairs = [
        (int(a), int(b))
        for a, b in rng.integers(0, n_known, size=(n_pairs, 2))
        if a != b
    ]
    return SemanticStudy(similarities={
        "same_channel": _pair_similarities(vectors, sample_pairs(same_pairs)),
        "pumped_set": _pair_similarities(vectors, sample_pairs(pumped_pairs)),
        "all_coins": _pair_similarities(vectors, np.array(random_pairs)),
    })
