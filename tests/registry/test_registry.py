"""ModelRegistry: versioned publishing, latest pointer, validation."""

from __future__ import annotations

import pytest

from repro.registry import (
    ModelRegistry,
    PredictorArtifact,
    RegistryError,
    parse_ref,
    save_artifact,
)
from repro.registry.artifact import WEIGHTS_NAME
from repro.serving import PredictionService


class TestPublishing:
    def test_versions_increment_and_latest_tracks(self, tiny_predictors,
                                                  tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        predictor = tiny_predictors["dnn"]
        first = registry.publish(predictor, "dnn")
        second = registry.publish(predictor, "dnn")
        assert (first.version, second.version) == ("v0001", "v0002")
        assert registry.versions("dnn") == ["v0001", "v0002"]
        assert registry.latest("dnn") == "v0002"
        assert registry.resolve("dnn") == second.path

    def test_latest_fallback_skips_ghost_versions(self, tiny_predictors,
                                                  tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(tiny_predictors["dnn"], "dnn")
        # A manifest-less version dir (interrupted manual copy) plus a
        # lost pointer: the fallback must land on the loadable version.
        (tmp_path / "reg" / "dnn" / "v0002").mkdir()
        (tmp_path / "reg" / "dnn" / "LATEST").unlink()
        assert registry.latest("dnn") == "v0001"
        assert registry.resolve("dnn").name == "v0001"

    def test_set_latest_rollback(self, tiny_predictors, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        predictor = tiny_predictors["dnn"]
        registry.publish(predictor, "dnn")
        registry.publish(predictor, "dnn")
        registry.set_latest("dnn", "v0001")
        assert registry.latest("dnn") == "v0001"
        with pytest.raises(RegistryError):
            registry.set_latest("dnn", "v9999")

    def test_import_existing_artifact(self, tiny_predictors, tmp_path):
        source = tmp_path / "exported"
        save_artifact(tiny_predictors["dnn"], source)
        registry = ModelRegistry(tmp_path / "reg")
        entry = registry.import_artifact(source, "imported")
        assert entry.version == "v0001"
        assert registry.load("imported").model_name == "dnn"

    def test_import_rejects_corrupt_source(self, tiny_predictors,
                                           tmp_path):
        from repro.registry import ArtifactIntegrityError
        from repro.registry.artifact import WEIGHTS_NAME as weights_name

        source = tmp_path / "exported"
        save_artifact(tiny_predictors["dnn"], source)
        blob = bytearray((source / weights_name).read_bytes())
        blob[11] ^= 0xFF
        (source / weights_name).write_bytes(bytes(blob))
        registry = ModelRegistry(tmp_path / "reg")
        with pytest.raises(ArtifactIntegrityError, match="checksum"):
            registry.import_artifact(source, "imported")
        # Nothing half-published: LATEST must never point at a bad bundle.
        assert registry.models() == []

    def test_invalid_name_rejected(self, tiny_predictors, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        with pytest.raises(RegistryError, match="invalid model name"):
            registry.publish(tiny_predictors["dnn"], "../escape")

    def test_missing_model_errors(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        assert registry.models() == []
        with pytest.raises(RegistryError, match="no published versions"):
            registry.resolve("ghost")

    def test_publish_commits_atomically(self, tiny_predictors, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(tiny_predictors["dnn"], "dnn")
        # No staging leftovers: only the committed version and the pointer
        # (plus dotted bookkeeping files no reader ever matches).
        contents = sorted(p.name for p in (tmp_path / "reg" / "dnn").iterdir()
                          if not p.name.startswith("."))
        assert contents == ["LATEST", "v0001"]

    def test_half_written_staging_is_invisible(self, tiny_predictors,
                                               tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(tiny_predictors["dnn"], "dnn")
        # Simulate a crash mid-publish: a staging dir that never committed.
        (tmp_path / "reg" / "dnn" / ".staging-v0002" / "weights.npz"
         ).parent.mkdir()
        assert registry.versions("dnn") == ["v0001"]
        assert registry.latest("dnn") == "v0001"
        assert registry.validate() == []

    def test_failed_publish_leaves_no_trace(self, tiny_predictors,
                                            tmp_path, monkeypatch):
        import repro.registry.registry as registry_module

        registry = ModelRegistry(tmp_path / "reg")

        def boom(*args, **kwargs):
            raise RuntimeError("training artifacts unavailable")

        monkeypatch.setattr(registry_module, "save_artifact", boom)
        with pytest.raises(RuntimeError):
            registry.publish(tiny_predictors["dnn"], "dnn")
        # No phantom model with zero versions, no staging litter.
        assert registry.models() == []
        assert not (tmp_path / "reg" / "dnn").exists()

    def test_validate_rejects_malformed_version_ref(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        problems = registry.validate("x", "../../etc")
        assert problems == \
            ["x@../../etc: invalid version (expected the form v0001)"]

    def test_publish_pointer_never_moves_backwards(self, tiny_predictors,
                                                   tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(tiny_predictors["dnn"], "dnn")
        registry.publish(tiny_predictors["dnn"], "dnn")
        assert registry.latest("dnn") == "v0002"
        # A stalled publisher's late pointer write must not roll back.
        registry._advance_latest("dnn", "v0001")
        assert registry.latest("dnn") == "v0002"
        # Explicit operator rollback remains available.
        registry.set_latest("dnn", "v0001")
        assert registry.latest("dnn") == "v0001"

    def test_commit_preserves_staging_on_io_error(self, tiny_predictors,
                                                  tmp_path, monkeypatch):
        import errno
        from pathlib import Path

        registry = ModelRegistry(tmp_path / "reg")
        staging = registry._stage("dnn", "v0001")
        staging.mkdir()
        (staging / "weights").write_text("the only copy")

        def out_of_space(self, target):
            raise OSError(errno.ENOSPC, "no space left on device")

        monkeypatch.setattr(Path, "rename", out_of_space)
        with pytest.raises(OSError, match="no space"):
            registry._commit("dnn", "v0001", staging)
        monkeypatch.undo()
        # A real I/O failure must not be misread as a version collision —
        # the staged bundle (the only copy of the artifact) survives.
        assert (staging / "weights").read_text() == "the only copy"

    def test_concurrent_publish_version_collision(self, tiny_predictors,
                                                  tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(tiny_predictors["dnn"], "dnn")
        # Simulate a racing publisher that computed the same next version:
        # its staging is private, and its commit loses cleanly.
        staging = registry._stage("dnn", "v0001")
        staging.mkdir()
        (staging / "partial").write_text("x")
        with pytest.raises(RegistryError, match="already exists"):
            registry._commit("dnn", "v0001", staging)
        assert not staging.exists()
        assert registry.validate() == []

    def test_version_ordering_is_numeric(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        for version in ("v9999", "v10000"):
            (tmp_path / "reg" / "m" / version).mkdir(parents=True)
        assert registry.versions("m") == ["v9999", "v10000"]
        assert registry._next_version("m") == "v10001"


class TestResolution:
    def test_entries_and_manifest_fields(self, tiny_predictors, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(tiny_predictors["dnn"], "dnn",
                         provenance={"scale": "tiny"})
        registry.publish(tiny_predictors["snn"], "snn")
        entries = list(registry.entries())
        assert [(e.name, e.version) for e in entries] == \
            [("dnn", "v0001"), ("snn", "v0001")]
        assert entries[0].model_name == "dnn"
        assert entries[0].provenance["scale"] == "tiny"
        assert entries[0].n_parameters > 0

    def test_load_serves(self, tiny_predictors, tiny_source, tiny_collection,
                         tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(tiny_predictors["dnn"], "dnn")
        artifact = registry.load("dnn")
        assert isinstance(artifact, PredictorArtifact)
        service = PredictionService.from_artifact(
            artifact, tiny_source, tiny_collection.dataset
        )
        channel = next(iter(artifact.channel_index))
        assert service.knows_channel(channel)

    def test_resolve_rejects_malformed_version(self, tiny_predictors,
                                               tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(tiny_predictors["dnn"], "dnn")
        for bad in ("../../elsewhere", ".staging-v0002-x", "latest!", "v1"):
            with pytest.raises(RegistryError, match="invalid version"):
                registry.resolve("dnn", bad)

    def test_parse_ref(self):
        assert parse_ref("snn") == ("snn", None)
        assert parse_ref("snn@latest") == ("snn", None)
        assert parse_ref("snn@v0002") == ("snn", "v0002")


class TestValidation:
    def test_clean_registry_validates(self, tiny_predictors, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(tiny_predictors["dnn"], "dnn")
        registry.publish(tiny_predictors["snn"], "snn")
        assert registry.validate() == []

    def test_tampering_detected(self, tiny_predictors, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        entry = registry.publish(tiny_predictors["dnn"], "dnn")
        weights = entry.path / WEIGHTS_NAME
        blob = bytearray(weights.read_bytes())
        blob[10] ^= 0xFF
        weights.write_bytes(bytes(blob))
        problems = registry.validate()
        assert len(problems) == 1
        assert "checksum mismatch" in problems[0]

    def test_unknown_model_reported(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        assert registry.validate("ghost") == \
            ["model 'ghost' has no published versions"]

    def test_dangling_latest_with_no_versions_left(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        model_dir = tmp_path / "reg" / "snn"
        model_dir.mkdir(parents=True)
        (model_dir / "LATEST").write_text("v0001\n")
        problems = registry.validate()
        assert problems == ["snn: LATEST points at missing version 'v0001'"]

    def test_dangling_latest_reported_despite_broken_bundle(
            self, tiny_predictors, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        entry = registry.publish(tiny_predictors["dnn"], "dnn")
        (entry.path / "manifest.json").write_text("{ not json")
        (tmp_path / "reg" / "dnn" / "LATEST").write_text("v0099\n")
        problems = registry.validate()
        assert any("LATEST points at missing" in p for p in problems)
        assert any("not valid JSON" in p for p in problems)
