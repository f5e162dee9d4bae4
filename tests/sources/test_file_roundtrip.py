"""End-to-end: a FileDatasetSource dump trains, registers, and serves.

Covers the two deployment stories the data-plane refactor exists for:

* **file → file** — train a ranker *from the dump alone*, publish it to a
  model registry, and serve the dump's test period through a
  registry-loaded artifact (zero training at serve time);
* **synthetic → file** — train against the simulator, then serve the
  exported dump with the same artifact (train once, serve anywhere).
"""

from __future__ import annotations

import pytest

from repro.core import train_predictor
from repro.data import collect
from repro.registry import ModelRegistry
from repro.serving import CollectingSink, PredictionService, replay_test_period
from repro.sources import FileDatasetSource


@pytest.fixture(scope="module")
def file_source(dump_dir):
    return FileDatasetSource(dump_dir)


@pytest.fixture(scope="module")
def file_collection(file_source):
    return collect(file_source)


@pytest.fixture(scope="module")
def file_predictor(file_source, file_collection):
    return train_predictor(file_source, file_collection, model="dnn",
                           epochs=1, seed=0)


class TestTrainFromFile:
    def test_collect_matches_the_origin_world(self, file_collection,
                                              short_collection):
        """Identical messages + seed ⇒ identical extracted dataset."""
        file_examples = file_collection.dataset.examples
        world_examples = short_collection.dataset.examples
        assert len(file_examples) == len(world_examples)
        assert [(e.list_id, e.channel_id, e.coin_id, e.label, e.split)
                for e in file_examples] == \
            [(e.list_id, e.channel_id, e.coin_id, e.label, e.split)
             for e in world_examples]

    def test_provenance_records_the_file_backend(self, file_predictor):
        descriptor = file_predictor.provenance["data_source"]
        assert descriptor["backend"] == "file"
        assert descriptor["fingerprint"].startswith("file:")


class TestServeFromRegistry:
    def test_registry_loaded_artifact_serves_alerts(self, tmp_path_factory,
                                                    file_source,
                                                    file_collection,
                                                    file_predictor):
        registry = ModelRegistry(tmp_path_factory.mktemp("file-registry"))
        entry = registry.publish(file_predictor, "file-dnn")
        artifact_dir = registry.resolve("file-dnn", entry.version)

        sink = CollectingSink()
        result = replay_test_period(
            file_source, file_collection, artifact_dir, sinks=(sink,),
        )
        assert len(result.alerts) > 0
        assert sink.alerts == result.alerts
        served = result.alerts[0]
        assert served.ranking.scores  # ranked candidates, not an empty shell

    def test_prediction_service_boots_from_artifact(self, tmp_path_factory,
                                                    file_source,
                                                    file_collection,
                                                    file_predictor):
        artifact = file_predictor.to_artifact()
        path = artifact.save(tmp_path_factory.mktemp("svc") / "artifact")
        service = PredictionService.from_artifact(
            path, file_source, file_collection.dataset
        )
        assert service.predictor.source is file_source


class TestCrossBackendServing:
    def test_synthetic_trained_artifact_serves_the_dump(self, short_source,
                                                        short_collection,
                                                        file_source,
                                                        file_collection,
                                                        tmp_path_factory):
        """Train once on the simulator, serve the recorded file dump."""
        predictor = train_predictor(short_source, short_collection,
                                    model="dnn", epochs=1, seed=0)
        path = predictor.to_artifact().save(
            tmp_path_factory.mktemp("cross") / "artifact"
        )
        result = replay_test_period(file_source, file_collection, str(path))
        assert len(result.alerts) > 0
        # The served predictor reads features from the *file* backend.
        assert result.alerts[0].ranking.scores
