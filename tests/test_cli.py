"""Tests for the command-line interface."""

import os
import shutil
import socket

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def registry_root(tmp_path_factory):
    """A registry holding one briefly trained ``dnn`` (also exported)."""
    root = tmp_path_factory.mktemp("registry")
    code = main([
        "train", "--scale", "tiny", "--model", "dnn", "--epochs", "1",
        "--save", str(root.parent / "exported"),
        "--register", "dnn", "--registry", str(root),
    ])
    assert code == 0
    return root


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_world_defaults(self):
        args = build_parser().parse_args(["world"])
        assert args.scale == "tiny"
        assert args.seed == 7

    def test_train_model_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--model", "transformer"])

    def test_forecast_span_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["forecast", "--span", "7"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.bucket_hours == 1.0
        assert args.max_batch == 64
        assert args.load == ""

    def test_models_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["models"])

    def test_serve_gateway_default_is_local(self):
        assert build_parser().parse_args(["serve"]).gateway == ""

    def test_gateway_defaults(self):
        args = build_parser().parse_args(["gateway", "--load", "snn"])
        assert args.host == "127.0.0.1"
        assert args.port == 8787
        assert args.max_batch == 256
        assert args.registry == "models"

    def test_gateway_requires_load(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["gateway"])

    def test_models_json_flags(self):
        args = build_parser().parse_args(["models", "list", "--json"])
        assert args.json is True
        args = build_parser().parse_args(["models", "inspect", "x", "--json"])
        assert args.json is True


class TestGatewayCommand:
    """Fast-fail paths of `repro gateway` / `repro serve --gateway`
    (the live HTTP loop is covered by tests/gateway and the CI smoke)."""

    def test_rejects_bad_max_batch(self, tmp_path, capsys):
        code = main(["gateway", "--load", str(tmp_path / "art"),
                     "--max-batch", "0"])
        assert code == 2
        assert "--max-batch" in capsys.readouterr().err

    def test_rejects_bad_port(self, tmp_path, capsys):
        code = main(["gateway", "--load", str(tmp_path / "art"),
                     "--port", "99999"])
        assert code == 2
        assert "--port" in capsys.readouterr().err

    def test_rejects_missing_artifact(self, tmp_path, capsys):
        code = main(["gateway", "--load", str(tmp_path / "nope"),
                     "--registry", str(tmp_path / "reg")])
        assert code == 2
        assert "cannot load" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_corrupt_artifact_exits_2_before_binding(self, registry_root,
                                                     tmp_path, monkeypatch,
                                                     capsys, workers):
        artifact = tmp_path / "corrupt"
        shutil.copytree(registry_root / "dnn" / "v0001", artifact)
        weights = artifact / "weights.npz"
        blob = bytearray(weights.read_bytes())
        blob[13] ^= 0xFF
        weights.write_bytes(bytes(blob))

        def no_fork():
            raise AssertionError("the gateway forked a worker")

        monkeypatch.setattr(os, "fork", no_fork)
        code = main(["gateway", "--load", str(artifact),
                     "--registry", str(registry_root), "--port", "0",
                     "--workers", workers])
        assert code == 2
        captured = capsys.readouterr()
        assert "cannot load" in captured.err
        assert "listening" not in captured.out

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_bad_store_exits_2_before_binding(self, registry_root, tmp_path,
                                              monkeypatch, capsys, workers):
        store = tmp_path / "events.db"
        store.write_bytes(b"not an event log" * 64)

        def no_fork():
            raise AssertionError("the gateway forked a worker")

        monkeypatch.setattr(os, "fork", no_fork)
        code = main(["gateway", "--load", "dnn",
                     "--registry", str(registry_root), "--port", "0",
                     "--store", str(store), "--workers", workers])
        assert code == 2
        captured = capsys.readouterr()
        assert "cannot open event store" in captured.err
        assert "listening" not in captured.out

    def test_bound_port_exits_2(self, registry_root, capsys):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen(1)
            code = main(["gateway", "--load", "dnn",
                         "--registry", str(registry_root),
                         "--port", str(taken.getsockname()[1]),
                         "--workers", "1"])
        assert code == 2
        assert "cannot bind" in capsys.readouterr().err

    def test_serve_unreachable_gateway_exits_cleanly(self, capsys):
        code = main(["serve", "--scale", "tiny",
                     "--gateway", "http://127.0.0.1:9"])
        assert code == 2
        assert "cannot reach gateway" in capsys.readouterr().err

    def test_serve_bad_gateway_url(self, capsys):
        code = main(["serve", "--scale", "tiny",
                     "--gateway", "ftp://example.com"])
        assert code == 2
        assert "bad --gateway URL" in capsys.readouterr().err


class TestOperationalErrors:
    """Bad arguments to history/telemetry exit 2 with one stderr line,
    never a traceback."""

    @pytest.fixture
    def store_path(self, tmp_path):
        from repro.store import SQLiteEventStore

        path = tmp_path / "events.db"
        SQLiteEventStore(path).close()
        return str(path)

    def test_telemetry_bad_url_scheme(self, capsys):
        assert main(["telemetry", "metrics", "--url", "ftp://x"]) == 2
        assert capsys.readouterr().err.startswith("repro telemetry: ")

    def test_history_hr_k_below_one(self, store_path, capsys):
        assert main(["history", "hr", "--store", store_path,
                     "--k", "0"]) == 2
        assert capsys.readouterr().err.startswith("repro history: ")

    def test_history_alerts_negative_limit(self, store_path, capsys):
        assert main(["history", "alerts", "--store", store_path,
                     "--limit", "-1"]) == 2
        assert capsys.readouterr().err.startswith("repro history: ")


class TestCommands:
    def test_world_command(self, capsys):
        assert main(["world", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "events" in out
        assert "synthetic world" in out

    def test_train_command_saves_artifact(self, tmp_path, capsys):
        path = tmp_path / "dnn-artifact"
        code = main([
            "train", "--scale", "tiny", "--model", "dnn", "--epochs", "1",
            "--save", str(path),
        ])
        assert code == 0
        assert (path / "manifest.json").exists()
        assert (path / "weights.npz").exists()
        assert (path / "state.npz").exists()
        out = capsys.readouterr().out
        assert "HR@10" in out
        assert "artifact saved" in out

    def test_serve_command_streams_alerts(self, tmp_path, capsys):
        path = tmp_path / "alerts.jsonl"
        code = main([
            "serve", "--scale", "tiny", "--model", "dnn", "--epochs", "1",
            "--jsonl", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "serving metrics" in out
        assert "cache_hit_rate" in out
        assert path.exists()
        assert path.read_text().count("\n") >= 1


class TestModelLifecycle:
    """train --register → models list/inspect/validate → serve --load."""

    def test_saved_and_registered_copies_identical(self, registry_root):
        # --save + --register snapshot once: the registered bundle is a
        # verified byte-for-byte copy of the saved directory.
        exported = registry_root.parent / "exported"
        registered = registry_root / "dnn" / "v0001"
        for name in ("manifest.json", "weights.npz", "state.npz"):
            assert (exported / name).read_bytes() == \
                (registered / name).read_bytes()

    def test_models_list(self, registry_root, capsys):
        assert main(["models", "--registry", str(registry_root), "list"]) == 0
        out = capsys.readouterr().out
        assert "dnn" in out
        assert "v0001" in out

    def test_models_inspect(self, registry_root, capsys):
        code = main([
            "models", "--registry", str(registry_root), "inspect", "dnn",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "schema_version" in out
        assert "provenance.scale" in out

    def test_models_validate_clean(self, registry_root, capsys):
        code = main([
            "models", "--registry", str(registry_root), "validate",
        ])
        assert code == 0
        assert "no problems" in capsys.readouterr().out

    def test_models_list_json(self, registry_root, capsys):
        import json

        code = main([
            "models", "--registry", str(registry_root), "list", "--json",
        ])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        # The exact serializer GET /v1/models uses — no drift possible.
        from repro.registry import ModelRegistry, registry_payload

        assert document == json.loads(json.dumps(
            registry_payload(ModelRegistry(registry_root))
        ))
        [entry] = document["models"]
        assert entry["name"] == "dnn"
        assert entry["version"] == "v0001"
        assert entry["latest"] is True
        assert entry["model"] == "dnn"
        assert entry["provenance"]["scale"] == "tiny"

    def test_models_inspect_json(self, registry_root, capsys):
        import json

        code = main([
            "models", "--registry", str(registry_root),
            "inspect", "dnn", "--json",
        ])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["model"] == "dnn"
        assert document["artifact_schema_version"] >= 1
        assert document["n_parameters"] > 0
        # Structured provenance is passed through, not flattened.
        assert document["provenance"]["data_source"]["backend"] == "synthetic"

    def test_serve_from_artifact_without_training(self, registry_root,
                                                  capsys):
        code = main([
            "serve", "--scale", "tiny", "--load", "dnn",
            "--registry", str(registry_root),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "serving from artifact" in out
        assert "serving metrics" in out

    def test_models_validate_detects_tampering(self, registry_root, capsys):
        weights = registry_root / "dnn" / "v0001" / "weights.npz"
        pristine = weights.read_bytes()
        blob = bytearray(pristine)
        blob[12] ^= 0xFF
        try:
            weights.write_bytes(bytes(blob))
            code = main([
                "models", "--registry", str(registry_root), "validate",
            ])
        finally:
            weights.write_bytes(pristine)  # class-scoped fixture: restore
        assert code == 1
        assert "checksum mismatch" in capsys.readouterr().err

    def test_serve_rejects_tampered_artifact(self, registry_root, capsys):
        weights = registry_root / "dnn" / "v0001" / "weights.npz"
        pristine = weights.read_bytes()
        blob = bytearray(pristine)
        blob[13] ^= 0xFF
        try:
            weights.write_bytes(bytes(blob))
            code = main([
                "serve", "--scale", "tiny", "--load", "dnn",
                "--registry", str(registry_root),
            ])
        finally:
            weights.write_bytes(pristine)
        assert code == 2
        assert "checksum mismatch" in capsys.readouterr().err

    def test_bare_ref_prefers_registry_over_cwd(self, registry_root,
                                                tmp_path, monkeypatch,
                                                capsys):
        # A stray ./dnn directory must not shadow the registered model.
        (tmp_path / "dnn").mkdir()
        monkeypatch.chdir(tmp_path)
        code = main([
            "models", "--registry", str(registry_root), "inspect", "dnn",
        ])
        assert code == 0
        assert str(registry_root) in capsys.readouterr().out

    def test_broken_registry_entry_not_shadowed_by_cwd(self, registry_root,
                                                       tmp_path, monkeypatch,
                                                       capsys):
        # A registered-but-broken entry must report its real error, not
        # silently fall back to a same-named local directory.
        manifest = registry_root / "dnn" / "v0001" / "manifest.json"
        pristine = manifest.read_text()
        (tmp_path / "dnn").mkdir()
        monkeypatch.chdir(tmp_path)
        try:
            manifest.unlink()
            code = main([
                "models", "--registry", str(registry_root), "inspect", "dnn",
            ])
        finally:
            manifest.write_text(pristine)
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_models_validate_bad_ref_exits_cleanly(self, registry_root,
                                                   capsys):
        code = main([
            "models", "--registry", str(registry_root), "validate",
            "./not/a/name",
        ])
        assert code == 2
        assert "invalid model name" in capsys.readouterr().err

    def test_models_list_survives_corrupt_manifest(self, registry_root,
                                                   capsys):
        manifest = registry_root / "dnn" / "v0001" / "manifest.json"
        pristine = manifest.read_text()
        try:
            manifest.write_text("{ not json")
            code = main(["models", "--registry", str(registry_root), "list"])
        finally:
            manifest.write_text(pristine)
        assert code == 0
        captured = capsys.readouterr()
        assert "(unreadable)" in captured.out
        assert "validate" in captured.err

    def test_models_list_survives_malformed_provenance(self, registry_root,
                                                       capsys):
        import json

        manifest = registry_root / "dnn" / "v0001" / "manifest.json"
        pristine = manifest.read_text()
        doc = json.loads(pristine)
        doc["provenance"] = {"hr": 0.71}  # hr as a number, not a dict
        try:
            manifest.write_text(json.dumps(doc))
            code = main(["models", "--registry", str(registry_root), "list"])
        finally:
            manifest.write_text(pristine)
        assert code == 0
        assert "dnn" in capsys.readouterr().out

    def test_models_list_survives_manifestless_version_dir(self,
                                                           registry_root,
                                                           capsys):
        ghost = registry_root / "dnn" / "v0099"
        ghost.mkdir()
        try:
            code = main(["models", "--registry", str(registry_root), "list"])
        finally:
            ghost.rmdir()
        assert code == 0
        captured = capsys.readouterr()
        assert "(unreadable)" in captured.out
        assert "v0001" in captured.out  # the healthy version still lists


class TestServeValidation:
    def test_top_k_must_be_positive(self, capsys):
        assert main(["serve", "--top-k", "0"]) == 2
        assert "--top-k" in capsys.readouterr().err

    def test_max_batch_must_be_positive(self, capsys):
        assert main(["serve", "--max-batch", "0"]) == 2
        assert "--max-batch" in capsys.readouterr().err

    def test_missing_load_path_exits_cleanly(self, capsys):
        assert main(["serve", "--load", "/does/not/exist"]) == 2
        err = capsys.readouterr().err
        assert "cannot load" in err

    def test_load_with_model_flag_warns_ignored(self, capsys):
        code = main(["serve", "--load", "/does/not/exist", "--model", "dnn"])
        assert code == 2
        assert "ignored with --load" in capsys.readouterr().err

    def test_train_register_bad_name_fails_before_training(self, capsys):
        # Rejected up front — no world generation, no training run.
        code = main(["train", "--register", "bad/name"])
        assert code == 2
        assert "invalid model name" in capsys.readouterr().err

    def test_train_save_onto_file_fails_before_training(self, tmp_path,
                                                        capsys):
        legacy = tmp_path / "weights.npz"
        legacy.write_bytes(b"old format")
        code = main(["train", "--save", str(legacy)])
        assert code == 2
        assert "existing file" in capsys.readouterr().err

    def test_train_save_onto_unrelated_dir_fails_before_training(
            self, tmp_path, capsys):
        target = tmp_path / "notes"
        target.mkdir()
        (target / "todo.txt").write_text("keep me")
        code = main(["train", "--save", str(target)])
        assert code == 2
        assert "not a predictor artifact" in capsys.readouterr().err
        assert (target / "todo.txt").read_text() == "keep me"

    def test_train_registry_file_fails_before_training(self, tmp_path,
                                                       capsys):
        not_a_dir = tmp_path / "registry"
        not_a_dir.write_bytes(b"file")
        code = main([
            "train", "--register", "snn", "--registry", str(not_a_dir),
        ])
        assert code == 2
        assert "existing file" in capsys.readouterr().err

    def test_models_validate_missing_registry_errors(self, capsys):
        code = main(["models", "--registry", "/typo/registry", "validate"])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_models_list_missing_registry_errors(self, capsys):
        code = main(["models", "--registry", "/typo/registry", "list"])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_models_validate_empty_registry_says_so(self, tmp_path, capsys):
        code = main(["models", "--registry", str(tmp_path), "validate"])
        assert code == 0
        assert "no models registered" in capsys.readouterr().out


class TestSourceFlag:
    def test_parser_defaults_to_synthetic(self):
        args = build_parser().parse_args(["train"])
        assert args.source == "synthetic"
        args = build_parser().parse_args(["serve"])
        assert args.source == "synthetic"

    def test_unknown_source_spec_exits_cleanly(self, capsys):
        assert main(["train", "--source", "postgres://x", "--epochs", "1"]) == 2
        assert "unknown source spec" in capsys.readouterr().err

    def test_missing_dump_exits_cleanly(self, capsys):
        assert main(["serve", "--source", "file:/nonexistent-dump"]) == 2
        assert "not a dump directory" in capsys.readouterr().err


class TestIngestCommand:
    def test_requires_an_input_mode(self, capsys):
        assert main(["ingest", "--out", "x"]) == 2
        assert "nothing to ingest" in capsys.readouterr().err

    def test_modes_are_exclusive(self, capsys, tmp_path):
        assert main(["ingest", "--out", str(tmp_path / "d"),
                     "--from-synthetic", "--messages", "m.jsonl"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_raw_mode_requires_all_three_inputs(self, capsys, tmp_path):
        assert main(["ingest", "--out", str(tmp_path / "d"),
                     "--messages", "m.jsonl"]) == 2
        assert "--candles" in capsys.readouterr().err


class TestFileSourceRoundtrip:
    """ingest → train --source file → registry → serve --source file."""

    @pytest.fixture(scope="class")
    def dump(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("cli-dump") / "dump"
        code = main(["ingest", "--scale", "tiny", "--seed", "7",
                     "--horizon", "2600", "--from-synthetic",
                     "--out", str(out)])
        assert code == 0
        return out

    def test_ingest_reports_fingerprint(self, dump, capsys):
        assert (dump / "meta.json").is_file()
        assert (dump / "candles.csv").is_file()

    def test_train_register_serve_from_file(self, dump, tmp_path_factory,
                                            capsys):
        registry = tmp_path_factory.mktemp("cli-registry")
        code = main(["train", "--source", f"file:{dump}", "--model", "dnn",
                     "--epochs", "1", "--register", "dnn",
                     "--registry", str(registry)])
        assert code == 0
        out = capsys.readouterr().out
        assert "registered dnn@v0001" in out

        code = main(["serve", "--source", f"file:{dump}", "--load", "dnn",
                     "--registry", str(registry), "--top-k", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "serving from artifact" in out
        assert "alerts:" in out

        code = main(["models", "--registry", str(registry), "inspect", "dnn"])
        assert code == 0
        out = capsys.readouterr().out
        assert "provenance.data_source.backend" in out
        assert "file" in out
        assert "provenance.data_source.fingerprint" in out


class TestDataPlaneErrorHandling:
    """SourceDataError raised mid-pipeline must exit 2, not traceback."""

    @pytest.fixture()
    def gappy_dump(self, tmp_path):
        import shutil

        code = main(["ingest", "--scale", "tiny", "--seed", "7",
                     "--horizon", "2600", "--from-synthetic",
                     "--out", str(tmp_path / "full")])
        assert code == 0
        clone = tmp_path / "gappy"
        shutil.copytree(tmp_path / "full", clone)
        lines = (clone / "candles.csv").read_text().splitlines()
        (clone / "candles.csv").write_text("\n".join(lines[:11]) + "\n")
        return clone

    def test_train_on_gappy_dump_exits_cleanly(self, gappy_dump, capsys):
        assert main(["train", "--source", f"file:{gappy_dump}",
                     "--epochs", "1"]) == 2
        err = capsys.readouterr().err
        assert "repro train:" in err
        assert "candle" in err

    def test_serve_on_gappy_dump_exits_cleanly(self, gappy_dump, capsys):
        assert main(["serve", "--source", f"file:{gappy_dump}",
                     "--epochs", "1"]) == 2
        err = capsys.readouterr().err
        assert "repro serve:" in err

    def test_file_trained_artifact_omits_scale_provenance(self, tmp_path,
                                                          capsys):
        code = main(["ingest", "--scale", "tiny", "--seed", "7",
                     "--horizon", "2600", "--from-synthetic",
                     "--out", str(tmp_path / "d")])
        assert code == 0
        code = main(["train", "--source", f"file:{tmp_path / 'd'}",
                     "--model", "dnn", "--epochs", "1",
                     "--save", str(tmp_path / "art")])
        assert code == 0
        capsys.readouterr()
        assert main(["models", "inspect", str(tmp_path / "art")]) == 0
        out = capsys.readouterr().out
        assert "provenance.scale" not in out
        assert "provenance.data_source.backend" in out
