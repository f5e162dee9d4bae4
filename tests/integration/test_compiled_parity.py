"""End-to-end exactness of the compiled inference path.

The acceptance bar for :mod:`repro.nn.compile` is stronger than numerical
closeness: on a real trained model over real assembled features, compiled
scoring must reproduce the eager path's scores, ranking order and HR@k
metrics bit-for-bit, through both ``predict_scores`` and the deployed
``TargetCoinPredictor.rank`` API.
"""

import numpy as np
import pytest

from repro.core import (
    TargetCoinPredictor,
    Trainer,
    evaluate_scores,
    make_model,
    predict_scores,
    snn_config_for,
)
from repro.nn import get_compiled


@pytest.fixture(scope="module")
def pipeline(tiny_source, tiny_collection, tiny_assembler, tiny_assembled):
    """The session's tiny world with a model of its own (3 epochs)."""
    model = make_model("snn", snn_config_for(tiny_assembled), seed=0)
    Trainer(epochs=3, seed=0).fit(model, tiny_assembled.train,
                                  tiny_assembled.validation)
    return tiny_source, tiny_collection, tiny_assembler, tiny_assembled, model


def test_predict_scores_compiled_equals_eager_bitwise(pipeline):
    _, _, _, assembled, model = pipeline
    compiled = predict_scores(model, assembled.test)
    eager = predict_scores(model, assembled.test, use_compiled=False)
    assert np.array_equal(compiled, eager)


def test_hr_metrics_and_ranking_order_identical(pipeline):
    _, _, _, assembled, model = pipeline
    compiled = predict_scores(model, assembled.test)
    eager = predict_scores(model, assembled.test, use_compiled=False)
    assert evaluate_scores(assembled.test, compiled) == \
        evaluate_scores(assembled.test, eager)
    # Same ranking order inside every candidate list, not just same HR@k.
    for list_id in np.unique(assembled.test.list_id):
        rows = assembled.test.list_id == list_id
        assert np.array_equal(
            np.argsort(-compiled[rows], kind="stable"),
            np.argsort(-eager[rows], kind="stable"),
        )


def test_predictor_rank_uses_shared_plan_and_matches_eager(pipeline):
    source, collection, assembler, _, model = pipeline
    predictor = TargetCoinPredictor(source, collection.dataset, model,
                                    assembler=assembler)
    event = next(
        e for e in collection.dataset.examples
        if e.label == 1 and e.split == "test"
    )
    compiled_ranking = predictor.rank(event.channel_id, 0, event.time)
    # The plan is memoized per model instance: evaluation, the predictor and
    # the serving layer all trace it exactly once.
    plan = get_compiled(model)
    assert plan is not None
    assert get_compiled(model) is plan

    # Force the eager fallback and compare scores coin by coin.
    from repro.nn import compile as nn_compile

    nn_compile._PLAN_CACHE[model] = None
    try:
        eager_ranking = predictor.rank(event.channel_id, 0, event.time)
    finally:
        del nn_compile._PLAN_CACHE[model]
    assert [s.coin_id for s in compiled_ranking.scores] == \
        [s.coin_id for s in eager_ranking.scores]
    assert [s.probability for s in compiled_ranking.scores] == \
        [s.probability for s in eager_ranking.scores]
