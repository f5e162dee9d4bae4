"""Figure 9 — ℓ1-norm distributions of coin-id embeddings.

Paper: end-to-end (E2E) embeddings separate positives from negatives on
the *training* set, but cold test positives ("positive2") and untrained
coins look like negatives — the cold-start signature.  SkipGram word
embeddings are consistent across train and test.
"""

import numpy as np

from benchmarks._reporting import report
from benchmarks.conftest import run_once
from repro.core import (
    CoinIdOnlyModel,
    Trainer,
    embedding_l1_norms,
    snn_config_for,
    train_coin_embeddings,
)
from repro.utils import format_table


def test_figure9_embedding_norms(benchmark, source, assembled):
    def run():
        config = snn_config_for(assembled)
        e2e = CoinIdOnlyModel(config.n_coin_ids, config.coin_emb_dim,
                              np.random.default_rng(0))
        Trainer(epochs=10, seed=0).fit(e2e, assembled.train, assembled.validation)
        sg_matrix, _ = train_coin_embeddings(source, mode="skipgram",
                                             dim=config.coin_emb_dim)
        e2e_study = embedding_l1_norms(e2e.coin_embedding.weight.data,
                                       assembled.train, assembled.test)
        sg_study = embedding_l1_norms(sg_matrix, assembled.train, assembled.test)
        return e2e_study, sg_study

    e2e_study, sg_study = run_once(benchmark, run)

    def mean(arr):
        return float(np.mean(arr)) if len(arr) else float("nan")

    rows = []
    for label, study in (("E2E", e2e_study), ("SkipGram", sg_study)):
        rows.append([label, mean(study.train_positive), mean(study.train_negative),
                     mean(study.test_positive_warm), mean(study.test_positive_cold),
                     mean(study.test_untrained)])
    table = format_table(
        ["Embedding", "train pos", "train neg", "test pos warm",
         "test pos cold", "untrained"],
        rows, title="Figure 9: mean l1 norm of coin-id embeddings",
    )
    report("figure9_embedding_norms", table)

    # E2E: training separates positives from negatives ...
    assert mean(e2e_study.train_positive) > 1.2 * mean(e2e_study.train_negative)
    # ... warm test positives keep elevated norms, cold ones look negative.
    assert mean(e2e_study.test_positive_warm) > mean(e2e_study.test_positive_cold)
    # SkipGram norms are consistent between positives and negatives
    # (relative gap far smaller than E2E's).
    sg_gap = abs(mean(sg_study.train_positive) - mean(sg_study.train_negative))
    sg_scale = mean(sg_study.train_negative)
    e2e_gap = abs(mean(e2e_study.train_positive) - mean(e2e_study.train_negative))
    e2e_scale = mean(e2e_study.train_negative)
    assert sg_gap / sg_scale < 0.5 * (e2e_gap / e2e_scale)
