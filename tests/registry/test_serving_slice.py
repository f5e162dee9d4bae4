"""Schema v3: an artifact carries the histories serving seeds from.

A predictor bound from an artifact alone (no dataset) must serve exactly
what one bound to the training dataset serves: the same history cutoff,
the same seeded histories and bit-identical rankings.  ``history.npz`` is
checksummed like the other bundled files.
"""

from __future__ import annotations

import hashlib
import json
import shutil

import numpy as np
import pytest

from repro.cli import main
from repro.core import TargetCoinPredictor
from repro.registry import (
    ArtifactIntegrityError,
    ArtifactSchemaError,
    load_artifact,
)
from repro.registry.artifact import HISTORY_NAME, MANIFEST_NAME
from repro.serving import Announcement, PredictionService
from tests.conftest import TINY_ARCHS


def _test_sentinels(dataset) -> list[Announcement]:
    """Every test-period ranking list as a ``coin_id=-1`` announcement."""
    return [
        Announcement(e.channel_id, -1, 0, "BTC", e.time)
        for e in dataset.examples if e.split == "test" and e.label == 1
    ]


def _exact(alert) -> tuple:
    ranking = alert.ranking
    return (ranking.coin_ids.tobytes(), ranking.probabilities.tobytes(),
            ranking.symbols)


@pytest.mark.parametrize("arch", TINY_ARCHS)
def test_dataset_free_service_matches_dataset_bound(arch, tiny_registry,
                                                    tiny_source,
                                                    tiny_collection):
    path = tiny_registry.resolve(arch)
    dataset = tiny_collection.dataset
    bound = PredictionService.from_artifact(path, tiny_source, dataset)
    alone = PredictionService.from_artifact(path, tiny_source)
    assert alone.predictor.dataset == dataset.serving_slice()
    assert alone.history_cutoff == bound.history_cutoff == \
        dataset.split_hours[1]
    assert alone.history_snapshot() == bound.history_snapshot()
    sentinels = _test_sentinels(dataset)
    assert len(sentinels) >= 3
    for announcement in sentinels:
        assert _exact(alone.rank_one(announcement)) == \
            _exact(bound.rank_one(announcement))


def test_artifact_round_trips_the_serving_slice(tiny_registry, tiny_source,
                                                tiny_collection, tmp_path):
    artifact = load_artifact(tiny_registry.resolve("dnn"))
    assert artifact.serving == tiny_collection.dataset.serving_slice()
    # A predictor bound from the artifact alone saves the same slice.
    predictor = TargetCoinPredictor.from_artifact(artifact, tiny_source)
    resaved = predictor.to_artifact().save(tmp_path / "again")
    assert load_artifact(resaved).serving == artifact.serving


def test_cutoff_past_the_artifact_histories_is_refused(tiny_registry,
                                                       tiny_source,
                                                       tiny_collection):
    path = tiny_registry.resolve("dnn")
    late = tiny_collection.dataset.split_hours[1] + 1.0
    with pytest.raises(ValueError, match="serving histories"):
        PredictionService.from_artifact(path, tiny_source,
                                        history_cutoff=late)
    # With the dataset, every sample before the cutoff is available.
    service = PredictionService.from_artifact(
        path, tiny_source, tiny_collection.dataset, history_cutoff=late)
    assert service.history_cutoff == late


class TestHistoryIntegrity:
    @pytest.fixture()
    def registry_copy(self, tiny_registry, tmp_path):
        root = tmp_path / "registry"
        shutil.copytree(tiny_registry.root, root)
        return root

    def _validate(self, root, capsys) -> tuple[int, str]:
        code = main(["models", "--registry", str(root), "validate", "dnn"])
        return code, capsys.readouterr().err

    def test_missing_history_rejected(self, registry_copy, capsys):
        artifact = registry_copy / "dnn" / "v0001"
        (artifact / HISTORY_NAME).unlink()
        with pytest.raises(ArtifactIntegrityError, match="missing"):
            load_artifact(artifact)
        code, err = self._validate(registry_copy, capsys)
        assert code == 1 and HISTORY_NAME in err

    def test_truncated_history_rejected(self, registry_copy, capsys):
        artifact = registry_copy / "dnn" / "v0001"
        blob = (artifact / HISTORY_NAME).read_bytes()
        (artifact / HISTORY_NAME).write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ArtifactIntegrityError, match="checksum"):
            load_artifact(artifact)
        code, err = self._validate(registry_copy, capsys)
        assert code == 1 and "checksum" in err

    def test_tampered_history_rejected(self, registry_copy, capsys):
        artifact = registry_copy / "dnn" / "v0001"
        blob = bytearray((artifact / HISTORY_NAME).read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        (artifact / HISTORY_NAME).write_bytes(bytes(blob))
        with pytest.raises(ArtifactIntegrityError, match="checksum"):
            load_artifact(artifact)
        code, err = self._validate(registry_copy, capsys)
        assert code == 1 and "checksum" in err

    @pytest.mark.parametrize("arrays", [
        {"split_hours": np.zeros(2)},                      # sample columns gone
        {"split_hours": np.zeros(2), "channel_id": np.zeros(3, np.int64),
         "coin_id": np.zeros(2, np.int64),
         "exchange_id": np.zeros(3, np.int64),
         "pair": np.array(["BTC"] * 3), "time": np.zeros(3)},  # ragged
    ], ids=["missing-columns", "ragged-columns"])
    def test_checksum_consistent_malformed_history_rejected(
            self, registry_copy, arrays):
        # The manifest is unchecksummed, so a hand edit can re-record the
        # sha256 of a rewritten history.npz; loading must still fail
        # inside the taxonomy.
        artifact = registry_copy / "dnn" / "v0001"
        np.savez(artifact / HISTORY_NAME, **arrays)
        manifest = json.loads((artifact / MANIFEST_NAME).read_text())
        manifest["files"][HISTORY_NAME]["sha256"] = hashlib.sha256(
            (artifact / HISTORY_NAME).read_bytes()).hexdigest()
        (artifact / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ArtifactIntegrityError, match="history"):
            load_artifact(artifact)

    def test_v2_manifest_asks_for_regeneration(self, registry_copy):
        artifact = registry_copy / "dnn" / "v0001"
        manifest = json.loads((artifact / MANIFEST_NAME).read_text())
        manifest["schema_version"] = 2
        (artifact / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ArtifactSchemaError,
                           match="regenerate the artifact"):
            load_artifact(artifact)
