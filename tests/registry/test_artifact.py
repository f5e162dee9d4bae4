"""Artifact round-trips: save → load → bit-for-bit identical serving.

The train/serve contract (ISSUE 3): an artifact reconstructs a predictor
whose scores are exactly — not approximately — those of the in-memory
predictor it was saved from, for every ranker family; schema drift,
tampering and truncation fail loudly before any score is produced.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import evaluate_scores, predict_scores
from repro.core.predictor import RankRequest, TargetCoinPredictor
from repro.registry import (
    ArtifactError,
    ArtifactIntegrityError,
    ArtifactSchemaError,
    PredictorArtifact,
    SCHEMA_VERSION,
    load_artifact,
    manifest_payload,
    save_artifact,
)
from repro.registry.artifact import (
    HISTORY_NAME,
    MANIFEST_NAME,
    STATE_NAME,
    WEIGHTS_NAME,
)

ARCHES = ("snn", "dnn", "gru", "tcn")


def _test_requests(dataset, count=2):
    """(channel, exchange, time) of the first test-split ranking lists."""
    seen, requests = set(), []
    for example in dataset.examples:
        if example.split != "test" or example.list_id in seen:
            continue
        seen.add(example.list_id)
        requests.append(RankRequest(example.channel_id, 0, example.time))
        if len(requests) == count:
            break
    return requests


@pytest.mark.parametrize("arch", ARCHES)
class TestRoundTrip:
    def test_rank_scores_bit_for_bit(self, arch, tiny_predictors,
                                     tiny_source, tiny_collection, tmp_path):
        predictor = tiny_predictors[arch]
        save_artifact(predictor, tmp_path / arch)
        rebuilt = TargetCoinPredictor.from_artifact(
            tmp_path / arch, tiny_source, tiny_collection.dataset
        )
        request = _test_requests(tiny_collection.dataset, count=1)[0]
        original = predictor.rank(request.channel_id, 0, request.pump_time)
        reloaded = rebuilt.rank(request.channel_id, 0, request.pump_time)
        assert [s.coin_id for s in original.scores] == \
            [s.coin_id for s in reloaded.scores]
        assert [s.probability for s in original.scores] == \
            [s.probability for s in reloaded.scores]

    def test_rank_many_bit_for_bit(self, arch, tiny_predictors,
                                   tiny_source, tiny_collection, tmp_path):
        predictor = tiny_predictors[arch]
        save_artifact(predictor, tmp_path / arch)
        rebuilt = TargetCoinPredictor.from_artifact(
            tmp_path / arch, tiny_source, tiny_collection.dataset
        )
        requests = _test_requests(tiny_collection.dataset, count=2)
        for original, reloaded in zip(predictor.rank_many(requests),
                                      rebuilt.rank_many(requests)):
            assert [(s.coin_id, s.probability) for s in original.scores] == \
                [(s.coin_id, s.probability) for s in reloaded.scores]

    def test_hr_at_k_identical(self, arch, tiny_predictors, tiny_source,
                               tiny_collection, tiny_assembled, tmp_path):
        predictor = tiny_predictors[arch]
        save_artifact(predictor, tmp_path / arch)
        rebuilt = TargetCoinPredictor.from_artifact(
            tmp_path / arch, tiny_source, tiny_collection.dataset
        )
        original = predict_scores(predictor.model, tiny_assembled.test)
        reloaded = predict_scores(rebuilt.model, tiny_assembled.test)
        assert np.array_equal(original, reloaded)
        assert evaluate_scores(tiny_assembled.test, original) == \
            evaluate_scores(tiny_assembled.test, reloaded)


class TestArtifactContents:
    @pytest.fixture()
    def saved(self, tiny_predictors, tmp_path):
        predictor = tiny_predictors["dnn"]
        path = tmp_path / "dnn"
        save_artifact(predictor, path, provenance={"note": "unit-test"})
        return predictor, path

    def test_bundle_layout(self, saved):
        _, path = saved
        assert (path / MANIFEST_NAME).is_file()
        assert (path / WEIGHTS_NAME).is_file()
        assert (path / STATE_NAME).is_file()
        assert (path / HISTORY_NAME).is_file()
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        assert manifest["schema_version"] == SCHEMA_VERSION
        assert manifest["model"]["name"] == "dnn"
        assert set(manifest["files"]) == {WEIGHTS_NAME, STATE_NAME,
                                          HISTORY_NAME}

    def test_scalers_restored_exactly(self, saved):
        predictor, path = saved
        artifact = load_artifact(path)
        assert np.array_equal(artifact.numeric_scaler.mean_,
                              predictor._numeric_scaler.mean_)
        assert np.array_equal(artifact.numeric_scaler.std_,
                              predictor._numeric_scaler.std_)
        assert np.array_equal(artifact.seq_scaler.mean_,
                              predictor._seq_scaler.mean_)

    def test_provenance_and_summary(self, saved):
        _, path = saved
        artifact = load_artifact(path)
        assert artifact.provenance["note"] == "unit-test"
        summary = manifest_payload(path)
        assert summary["model"] == "dnn"
        assert summary["provenance"]["note"] == "unit-test"

    def test_save_refuses_unrelated_directory(self, tiny_predictors,
                                              tmp_path):
        target = tmp_path / "precious"
        target.mkdir()
        (target / "data.txt").write_text("not an artifact")
        with pytest.raises(ArtifactError, match="refusing to overwrite"):
            save_artifact(tiny_predictors["dnn"], target)
        assert (target / "data.txt").read_text() == "not an artifact"

    def test_save_refuses_foreign_manifest_dir(self, tiny_predictors,
                                               tmp_path):
        # A directory with someone else's manifest.json (e.g. a browser
        # extension) is NOT replaceable — kind marker must match.
        target = tmp_path / "webext"
        target.mkdir()
        (target / "manifest.json").write_text('{"manifest_version": 3}')
        (target / "background.js").write_text("// precious")
        with pytest.raises(ArtifactError, match="refusing to overwrite"):
            save_artifact(tiny_predictors["dnn"], target)
        assert (target / "background.js").read_text() == "// precious"

    def test_save_into_empty_directory(self, tiny_predictors, tmp_path):
        target = tmp_path / "empty"
        target.mkdir()
        save_artifact(tiny_predictors["dnn"], target)
        assert (target / MANIFEST_NAME).is_file()

    def test_to_artifact_snapshots_scalers(self, tiny_predictors):
        predictor = tiny_predictors["dnn"]
        artifact = predictor.to_artifact()
        assert artifact.numeric_scaler.mean_ is not \
            predictor._numeric_scaler.mean_
        original = artifact.numeric_scaler.mean_.copy()
        predictor._numeric_scaler.mean_ += 1.0
        try:
            assert np.array_equal(artifact.numeric_scaler.mean_, original)
        finally:
            predictor._numeric_scaler.mean_ -= 1.0  # session-scoped fixture

    def test_resave_over_existing_artifact(self, tiny_predictors,
                                           tmp_path):
        # Re-saving replaces the bundle whole (staged + renamed): the
        # result loads cleanly and no temp directories are left behind.
        predictor = tiny_predictors["dnn"]
        path = tmp_path / "dnn"
        save_artifact(predictor, path, provenance={"run": 1})
        save_artifact(predictor, path, provenance={"run": 2})
        assert load_artifact(path).provenance["run"] == 2
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "dnn"]
        assert leftovers == []

    def test_to_artifact_from_artifact_pair(self, tiny_predictors,
                                            tiny_source, tiny_collection):
        from repro.core import TargetCoinPredictor

        predictor = tiny_predictors["snn"]
        artifact = predictor.to_artifact(provenance={"via": "method"})
        assert isinstance(artifact, PredictorArtifact)
        rebuilt = TargetCoinPredictor.from_artifact(
            artifact, tiny_source, tiny_collection.dataset
        )
        request = _test_requests(tiny_collection.dataset, count=1)[0]
        assert [s.probability
                for s in predictor.rank(request.channel_id, 0,
                                        request.pump_time).scores] == \
            [s.probability
             for s in rebuilt.rank(request.channel_id, 0,
                                   request.pump_time).scores]


class TestFailureModes:
    @pytest.fixture()
    def saved(self, tiny_predictors, tmp_path):
        path = tmp_path / "dnn"
        save_artifact(tiny_predictors["dnn"], path)
        return path

    def test_schema_mismatch_rejected(self, saved):
        manifest = json.loads((saved / MANIFEST_NAME).read_text())
        manifest["schema_version"] = SCHEMA_VERSION + 99
        (saved / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ArtifactSchemaError, match="schema"):
            load_artifact(saved)

    def test_tampered_weights_rejected(self, saved):
        blob = bytearray((saved / WEIGHTS_NAME).read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        (saved / WEIGHTS_NAME).write_bytes(bytes(blob))
        with pytest.raises(ArtifactIntegrityError, match="checksum"):
            load_artifact(saved)

    def test_truncated_weights_rejected(self, saved):
        blob = (saved / WEIGHTS_NAME).read_bytes()
        (saved / WEIGHTS_NAME).write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ArtifactIntegrityError):
            load_artifact(saved)

    def test_out_of_tree_files_entry_rejected(self, saved):
        # A crafted entry must not point the checksum walk outside the
        # artifact directory (hash oracle on arbitrary readable files).
        manifest = json.loads((saved / MANIFEST_NAME).read_text())
        manifest["files"]["../../../etc/hostname"] = {"sha256": "00" * 32}
        (saved / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ArtifactIntegrityError,
                           match="not a plain file name"):
            load_artifact(saved)

    def test_malformed_files_entry_rejected(self, saved):
        manifest = json.loads((saved / MANIFEST_NAME).read_text())
        manifest["files"]["evil"] = "notadict"
        (saved / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ArtifactIntegrityError, match="malformed"):
            load_artifact(saved)

    def test_checksum_consistent_garbage_npz_rejected(self, saved):
        # A hand edit can update the recorded sha256 alongside the file
        # (the manifest is unchecksummed); parsing must still fail inside
        # the taxonomy, not with a raw BadZipFile traceback.
        import hashlib

        (saved / STATE_NAME).write_bytes(b"not an npz archive")
        manifest = json.loads((saved / MANIFEST_NAME).read_text())
        manifest["files"][STATE_NAME]["sha256"] = hashlib.sha256(
            b"not an npz archive"
        ).hexdigest()
        (saved / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ArtifactIntegrityError, match="cannot be read"):
            load_artifact(saved)

    def test_missing_file_rejected(self, saved):
        (saved / STATE_NAME).unlink()
        with pytest.raises(ArtifactIntegrityError, match="missing"):
            load_artifact(saved)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ArtifactError):
            load_artifact(tmp_path / "nope")

    def test_structurally_incomplete_manifest_rejected(self, saved):
        manifest = json.loads((saved / MANIFEST_NAME).read_text())
        del manifest["model"]
        (saved / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ArtifactIntegrityError,
                           match="structurally"):
            load_artifact(saved)

    def test_malformed_config_content_rejected(self, saved):
        # Structurally present but content-tampered: still a diagnostic,
        # never a raw KeyError/TypeError traceback.
        manifest = json.loads((saved / MANIFEST_NAME).read_text())
        del manifest["model"]["config"]["hidden_dims"]
        (saved / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ArtifactIntegrityError, match="malformed content"):
            load_artifact(saved)

    def test_unknown_model_name_rejected(self, saved):
        manifest = json.loads((saved / MANIFEST_NAME).read_text())
        manifest["model"]["name"] = "resnet"
        (saved / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ArtifactIntegrityError, match="model.name"):
            load_artifact(saved)

    def test_unknown_config_key_rejected(self, saved):
        manifest = json.loads((saved / MANIFEST_NAME).read_text())
        manifest["model"]["config"]["not_a_field"] = 1
        (saved / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ArtifactIntegrityError, match="malformed content"):
            load_artifact(saved)

    def test_dropped_files_section_rejected(self, saved):
        # Emptying the checksum table must not silently disable tamper
        # protection: it is itself an integrity failure.
        manifest = json.loads((saved / MANIFEST_NAME).read_text())
        del manifest["files"]
        (saved / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ArtifactIntegrityError,
                           match="structurally"):
            load_artifact(saved)

    def test_bare_weights_npz_rejected_with_hint(self, tiny_predictors,
                                                 tmp_path):
        from repro.nn.serialize import save_state_dict

        path = tmp_path / "bare.npz"
        save_state_dict(tiny_predictors["dnn"].model.state_dict(), path)
        with pytest.raises(ArtifactError, match="bare-weights"):
            load_artifact(path)

    def test_vocabulary_drift_rejected(self, saved, tiny_source,
                                       tiny_collection):
        artifact = load_artifact(saved)
        dropped = next(iter(artifact.channel_index))
        del artifact.channel_index[dropped]
        with pytest.raises(ArtifactError, match="vocabulary drift"):
            artifact.to_predictor(tiny_source, tiny_collection.dataset)

    def test_tampered_subscribers_rejected(self, saved, tiny_source,
                                           tiny_collection):
        # Subscribers feed the channel feature directly: manifest drift
        # must be a diagnostic, never silently different scores.
        manifest = json.loads((saved / MANIFEST_NAME).read_text())
        key = next(iter(manifest["features"]["subscribers"]))
        manifest["features"]["subscribers"][key] += 999
        (saved / MANIFEST_NAME).write_text(json.dumps(manifest))
        artifact = load_artifact(saved)
        with pytest.raises(ArtifactError, match="subscriber"):
            artifact.to_predictor(tiny_source, tiny_collection.dataset)


class TestLegacySerialize:
    def test_artifact_weights_load_without_warning(self, tiny_predictors,
                                                   tmp_path, recwarn):
        save_artifact(tiny_predictors["dnn"], tmp_path / "a")
        load_artifact(tmp_path / "a")
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]
