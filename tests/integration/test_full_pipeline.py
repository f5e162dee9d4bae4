"""Full-stack smoke tests: every stage of Figure 2 wired end to end.

One tiny world flows through collection, features, model training,
analyses and the forecasting extension; cross-stage invariants are checked
at each hop.
"""

import numpy as np
import pytest

from repro.analysis import (
    channel_level_study,
    coin_level_study,
    exchange_distribution,
    semantic_study,
)
from repro.core import (
    Trainer,
    evaluate_scores,
    make_model,
    predict_scores,
    snn_config_for,
)
from repro.data import collect
from repro.features import FeatureAssembler
from repro.forecasting import BTCForecastDataset, make_forecaster, train_forecaster
from repro.simulation import SyntheticWorld
from repro.sources import SyntheticWorldSource
from repro.utils import ReproConfig

CFG = ReproConfig.tiny()


@pytest.fixture(scope="module")
def world():
    return SyntheticWorld.generate(CFG)


@pytest.fixture(scope="module")
def collection(world):
    return collect(SyntheticWorldSource(world))


class TestCrossStageInvariants:
    def test_extracted_coins_exist_in_universe(self, world, collection):
        for sample in collection.samples:
            assert 0 <= sample.coin_id < world.coins.n_coins

    def test_extracted_channels_were_explored(self, collection):
        explored = set(collection.exploration.explored_ids)
        assert {s.channel_id for s in collection.samples} <= explored

    def test_dataset_examples_reference_extracted_samples(self, collection):
        sample_keys = {
            (s.channel_id, s.coin_id) for s in collection.samples
        }
        positives = [e for e in collection.dataset.examples if e.label == 1]
        for example in positives:
            assert (example.channel_id, example.coin_id) in sample_keys

    def test_detected_messages_pass_keyword_filter(self, world, collection):
        from repro.markets import EXCHANGE_NAMES
        from repro.text import KeywordFilter

        keyword_filter = KeywordFilter(
            world.coins.symbols, EXCHANGE_NAMES[: CFG.n_exchanges]
        )
        for message in collection.detection.detected[:200]:
            assert keyword_filter.matches(message.text)


class TestFullRun:
    def test_pipeline_to_model_to_analysis(self, world, collection):
        assembled = FeatureAssembler(SyntheticWorldSource(world),
                                     collection.dataset).assemble()
        model = make_model("snn", snn_config_for(assembled), seed=0)
        Trainer(epochs=4, seed=0).fit(model, assembled.train,
                                      assembled.validation)
        hr = evaluate_scores(
            assembled.test, predict_scores(model, assembled.test)
        )
        assert hr[30] > 0.2

        coin_study = coin_level_study(world, collection.samples)
        assert 0.0 < coin_study.repump_rate < 1.0
        channels = channel_level_study(world, collection.samples, min_history=3)
        assert channels.n_channels > 2
        shares = exchange_distribution(world)
        assert abs(sum(shares.values()) - 1.0) < 1e-9
        semantics = semantic_study(world, collection.samples, n_pairs=150)
        assert set(semantics.similarities) == {
            "same_channel", "pumped_set", "all_coins"
        }

    def test_forecasting_extension_runs(self, world):
        dataset = BTCForecastDataset.build(world, span=12, seq_len=32,
                                           n_hours=800)
        model = make_forecaster("snn", 32, dataset.train.sequences.shape[2],
                                seed=0)
        result = train_forecaster(model, dataset, epochs=2, seed=0)
        assert np.isfinite(result.mae)

    def test_world_determinism_through_pipeline(self):
        first = collect(SyntheticWorldSource(SyntheticWorld.generate(CFG)))
        second = collect(SyntheticWorldSource(SyntheticWorld.generate(CFG)))
        assert [
            (s.channel_id, s.coin_id, s.time) for s in first.samples
        ] == [
            (s.channel_id, s.coin_id, s.time) for s in second.samples
        ]
