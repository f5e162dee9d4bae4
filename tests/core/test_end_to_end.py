"""End-to-end learnability on a tiny world: the whole stack wired together.

These are the repository's most important integration tests — they verify
that the signal planted by the simulator survives the collection pipeline
and is recoverable by the models.
"""

import numpy as np
import pytest

from repro.core import (
    Trainer,
    evaluate_scores,
    make_model,
    predict_scores,
    random_ranker_baseline,
    run_coin_embedding_experiment,
    snn_config_for,
    train_coin_embeddings,
)
from repro.data import collect
from repro.features import FeatureAssembler
from repro.simulation import SyntheticWorld
from repro.sources import SyntheticWorldSource
from repro.utils import ReproConfig


@pytest.fixture(scope="module")
def source():
    return SyntheticWorldSource(SyntheticWorld.generate(ReproConfig.tiny()))


@pytest.fixture(scope="module")
def assembled(source):
    result = collect(source, n_label=600)
    return FeatureAssembler(source, result.dataset).assemble()


class TestEndToEndLearning:
    def test_snn_beats_random_ranker(self, assembled):
        """SNN ranks far above chance even on the tiny world.

        The tiny test split has only a handful of lists, so we compare
        against the *analytic* random expectation (k / list size averaged
        over lists) rather than a sampled random ranker.
        """
        config = snn_config_for(assembled)
        model = make_model("snn", config, seed=0)
        Trainer(epochs=6, seed=0).fit(model, assembled.train, assembled.validation)
        hr = evaluate_scores(assembled.test, predict_scores(model, assembled.test))
        list_sizes = np.bincount(assembled.test.list_id)
        list_sizes = list_sizes[list_sizes > 0]
        expected_random_10 = float(np.mean(np.minimum(10 / list_sizes, 1.0)))
        assert hr[10] > expected_random_10
        assert hr[20] >= hr[10]

    def test_training_is_reproducible(self, assembled):
        config = snn_config_for(assembled)
        scores = []
        for _ in range(2):
            model = make_model("dnn", config, seed=1)
            Trainer(epochs=2, seed=1).fit(model, assembled.train)
            scores.append(predict_scores(model, assembled.test))
        assert np.allclose(scores[0], scores[1])


class TestColdStartEndToEnd:
    def test_word_embeddings_cover_most_coins(self, source):
        matrix, model = train_coin_embeddings(source, mode="skipgram", epochs=1)
        nonzero = (np.abs(matrix).sum(axis=1) > 0).mean()
        assert nonzero > 0.5
        # PAD row stays zero.
        assert np.allclose(matrix[-1], 0.0)

    def test_embedding_experiment_runs_all_variants(self, source, assembled):
        """Functional check; the Table 6 ordering is asserted at benchmark
        scale where the test split is large enough to be meaningful."""
        outcome = run_coin_embedding_experiment(
            source, assembled, trainer=Trainer(epochs=3, seed=0),
            variants=("e2e", "sg", "snn_s"),
        )
        assert set(outcome.hr) == {"e2e", "sg", "snn_s"}
        for name, hr in outcome.hr.items():
            assert all(0.0 <= v <= 1.0 for v in hr.values()), name
            values = [hr[k] for k in sorted(hr)]
            assert values == sorted(values), f"{name} HR must grow with k"
        assert set(outcome.models) == {"e2e", "sg", "snn_s"}
