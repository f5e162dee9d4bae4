"""Table 6 — coin embedding test (cold-start fix).

Paper HR@k:

    variant  @1    @3    @5    @10   @20   @30
    E2E     .000  .000  .013  .057  .101  .242
    CBOW    .035  .090  .133  .253  .362  .472
    SG      .043  .115  .176  .286  .376  .487
    SNN     .260  .383  .465  .596  .727  .797
    SNN_C   .256  .391  .499  .617  .731  .806
    SNN_S   .277  .414  .513  .623  .739  .823

Shape: E2E (coin-id-only, end-to-end) is by far the worst — the cold-start
problem; word-embedding variants (CBOW/SG) lift it substantially; the
semantic-embedding SNNs at least match the end-to-end SNN.
"""

import numpy as np

from benchmarks._reporting import report
from benchmarks.conftest import run_once
from repro.core import EMBEDDING_VARIANTS, HR_KS, run_coin_embedding_experiment
from repro.utils import format_table

PAPER = {
    "e2e": [.000, .000, .013, .057, .101, .242],
    "cbow": [.035, .090, .133, .253, .362, .472],
    "sg": [.043, .115, .176, .286, .376, .487],
    "snn": [.260, .383, .465, .596, .727, .797],
    "snn_c": [.256, .391, .499, .617, .731, .806],
    "snn_s": [.277, .414, .513, .623, .739, .823],
}


def test_table6_coin_embedding(benchmark, source, assembled, trainer):
    outcome = run_once(
        benchmark,
        lambda: run_coin_embedding_experiment(source, assembled, trainer),
    )
    rows = []
    for name in EMBEDDING_VARIANTS:
        ours = [outcome.hr[name][k] for k in HR_KS]
        rows.append([name.upper()] + [
            f"{p:.3f}/{o:.3f}" for p, o in zip(PAPER[name], ours)
        ])
    table = format_table(
        ["Variant"] + [f"HR@{k} (paper/ours)" for k in HR_KS], rows,
        title="Table 6: coin embedding test",
    )
    report("table6_coin_embedding", table)

    mean = {
        name: float(np.mean([outcome.hr[name][k] for k in HR_KS]))
        for name in EMBEDDING_VARIANTS
    }
    # Cold start cripples the id-only E2E model relative to full models.
    assert mean["e2e"] < mean["snn"], mean
    assert mean["e2e"] < mean["snn_s"], mean
    # Semantic word embeddings lift the id-only model (CBOW/SG vs E2E).
    assert max(mean["cbow"], mean["sg"]) >= mean["e2e"] - 0.02, mean
    # Swapping semantic embeddings into SNN does not hurt it materially.
    assert mean["snn_s"] >= mean["snn"] - 0.08, mean
