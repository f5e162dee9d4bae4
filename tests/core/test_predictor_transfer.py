"""Tests for the deployment predictor and the §6.2 feature transfer."""

import numpy as np
import pytest

from repro.core import Trainer, make_model, snn_config_for
from repro.core.predictor import TargetCoinPredictor
from repro.core.transfer import (
    AugmentedClassicRanker,
    SequenceFeatureExtractor,
    run_transfer_experiment,
)
from repro.data import collect
from repro.features import FeatureAssembler
from repro.simulation import SyntheticWorld
from repro.sources import SyntheticWorldSource
from repro.utils import ReproConfig

CFG = ReproConfig.tiny()


@pytest.fixture(scope="module")
def source():
    return SyntheticWorldSource(SyntheticWorld.generate(CFG))


@pytest.fixture(scope="module")
def collection(source):
    return collect(source)


@pytest.fixture(scope="module")
def assembled(source, collection):
    return FeatureAssembler(source, collection.dataset).assemble()


@pytest.fixture(scope="module")
def snn(assembled):
    model = make_model("snn", snn_config_for(assembled), seed=0)
    Trainer(epochs=4, seed=0).fit(model, assembled.train, assembled.validation)
    return model


class TestPredictor:
    @pytest.fixture(scope="class")
    def predictor(self, source, collection, snn):
        return TargetCoinPredictor(source, collection.dataset, snn)

    def _an_event(self, collection):
        positives = [e for e in collection.dataset.examples
                     if e.label == 1 and e.split == "test"]
        return positives[0]

    def test_ranking_covers_all_candidates(self, collection, predictor):
        event = self._an_event(collection)
        ranking = predictor.rank(event.channel_id, 0, event.time)
        candidates = predictor.candidates(0, event.time)
        assert len(ranking.scores) == len(candidates)

    def test_probabilities_sorted_and_valid(self, collection, predictor):
        event = self._an_event(collection)
        ranking = predictor.rank(event.channel_id, 0, event.time)
        probs = [s.probability for s in ranking.scores]
        assert probs == sorted(probs, reverse=True)
        assert all(0.0 <= p <= 1.0 for p in probs)

    def test_symbols_match_coin_ids(self, source, collection, predictor):
        event = self._an_event(collection)
        ranking = predictor.rank(event.channel_id, 0, event.time)
        for score in ranking.top(5):
            assert source.coins.symbols[score.coin_id] == score.symbol

    def test_rank_of_returns_position(self, collection, predictor):
        event = self._an_event(collection)
        ranking = predictor.rank(event.channel_id, 0, event.time)
        first = ranking.scores[0].coin_id
        assert ranking.rank_of(first) == 1
        assert ranking.rank_of(-99) == -1

    def test_unknown_channel_rejected(self, predictor, collection):
        event = self._an_event(collection)
        with pytest.raises(KeyError):
            predictor.rank(123, 0, event.time)

    def test_pairing_majors_never_candidates(self, collection, predictor):
        event = self._an_event(collection)
        ranking = predictor.rank(event.channel_id, 0, event.time)
        ids = {s.coin_id for s in ranking.scores}
        assert not ids & {0, 1, 2}


class TestTransfer:
    def test_extractor_shape(self, assembled, snn):
        features = SequenceFeatureExtractor(snn).transform(assembled.test)
        assert features.shape == (len(assembled.test), snn.attention.output_dim)
        assert np.isfinite(features).all()

    def test_augmented_ranker_runs(self, assembled, snn):
        ranker = AugmentedClassicRanker("lr", snn, seed=0).fit(assembled.train)
        probs = ranker.predict_proba(assembled.test)
        assert probs.shape == (len(assembled.test),)
        assert ((probs >= 0) & (probs <= 1)).all()

    def test_transfer_experiment_keys(self, assembled, snn):
        results = run_transfer_experiment(assembled, snn)
        assert set(results) == {"lr", "lr+h_s", "rf", "rf+h_s"}
        for hr in results.values():
            values = [hr[k] for k in sorted(hr)]
            assert values == sorted(values)
