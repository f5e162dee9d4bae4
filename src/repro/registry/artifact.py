"""PredictorArtifact — the schema-versioned train/serve contract.

A trained :class:`~repro.core.predictor.TargetCoinPredictor` is more than
its ranker weights: scoring a live announcement also needs the fitted
feature scalers, the channel vocabulary the embeddings were built over,
the per-channel subscriber counts that feed the channel feature, and the
architecture hyper-parameters to rebuild the network at all.  Persisting
only ``state_dict`` weights (the legacy ``nn.serialize`` path) therefore
produces archives that *cannot be served* — every consumer silently
retrained from scratch.

An artifact is a directory bundling everything needed to reconstruct a
working predictor::

    <artifact>/
        manifest.json   # schema version, model name + config, vocab
                        # metadata, training provenance, file checksums
        weights.npz     # ranker parameters (nn.serialize.save_state_dict)
        state.npz       # fitted scaler statistics (exact float64)
        history.npz     # split boundaries + the pump histories serving
                        # seeds from (data.dataset.ServingSlice)

Loading re-verifies integrity (sha256 per file) and schema compatibility
before any array is trusted, rebuilds the ranker via
:func:`~repro.core.baselines.make_model`, loads the weights strictly
(name/shape mismatches fail loudly), restores the scalers bit-for-bit
from ``state.npz``, and re-verifies the compiled no-grad inference plan
against an eager forward (:func:`repro.nn.compile.prewarm`) so a loaded
model never serves through an unverified fast path.

Schema version policy
---------------------
``SCHEMA_VERSION`` is a single integer, bumped on **any** change to the
manifest layout, the file set, or the meaning of a persisted field.
Loading an artifact whose ``schema_version`` differs from the library's
raises :class:`ArtifactSchemaError` — there is no silent best-effort
migration: a version mismatch means the train/serve contract changed and
the artifact must be regenerated (or explicitly migrated) rather than
reinterpreted.  Weights tampering, truncation, or a missing file raise
:class:`ArtifactIntegrityError` before any score is produced.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import uuid
import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.baselines import DEEP_MODEL_NAMES, make_model
from repro.core.snn import SNNConfig
from repro.data.dataset import ServingSlice, TargetCoinDataset
from repro.data.sessions import PnDSample
from repro.features.sequence import pad_coin_id
from repro.ml.scaling import StandardScaler
from repro.nn.compile import prewarm
from repro.nn.module import Module
from repro.nn.serialize import read_state_dict, save_state_dict
from repro.telemetry import default_registry, span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.predictor import TargetCoinPredictor

# v2: the manifest's ``features`` section records ``signal_channels`` —
# the microstructure signal columns (see repro.signals) appended to the
# numeric block, empty for message-only models.  A v1 artifact cannot
# express whether its scalers were fitted over signal columns, so it is
# not silently loadable.
# v3: ``history.npz`` carries the dataset's serving slice (split
# boundaries and every pump-history sample before ``split_hours[1]``), so
# a predictor binds without a dataset.  A v2 artifact has no histories to
# seed a service from.
SCHEMA_VERSION = 3
ARTIFACT_KIND = "repro/predictor-artifact"

MANIFEST_NAME = "manifest.json"
WEIGHTS_NAME = "weights.npz"
STATE_NAME = "state.npz"
HISTORY_NAME = "history.npz"

#: The files every artifact bundles, each with a manifest checksum.
BUNDLE_FILES = (WEIGHTS_NAME, STATE_NAME, HISTORY_NAME)

# state.npz keys holding the fitted scaler statistics.
_STATE_KEYS = ("numeric_mean", "numeric_std", "seq_mean", "seq_std")

# history.npz keys: the split boundaries, then one column per PnDSample
# field (in field order), one row per sample, channel by channel in
# chronological order.
_SAMPLE_DTYPES = {"channel_id": np.int64, "coin_id": np.int64,
                  "exchange_id": np.int64, "pair": np.str_,
                  "time": np.float64}
_HISTORY_KEYS = ("split_hours", *_SAMPLE_DTYPES)


def _record_load(started: float, outcome: str) -> None:
    """Count one artifact load attempt in the process-wide registry.

    Instruments are (re-)resolved per call — registration is idempotent
    and this keeps working when tests swap the default registry.
    """
    registry = default_registry()
    registry.counter(
        "artifact_loads_total", "Predictor-artifact load attempts by outcome.",
        ("outcome",),
    ).labels(outcome=outcome).inc()
    registry.histogram(
        "artifact_load_seconds",
        "Wall time to load and verify a predictor artifact.",
    ).observe(time.perf_counter() - started)


class ArtifactError(RuntimeError):
    """Base error: the path is not a loadable predictor artifact."""


class ArtifactSchemaError(ArtifactError):
    """The artifact was written under an incompatible schema version."""


class ArtifactIntegrityError(ArtifactError):
    """A bundled file is missing, truncated, or fails its checksum."""


def check_save_target(path: str | Path) -> str | None:
    """Why ``path`` cannot receive an artifact, or ``None`` if it can.

    The single source of the overwrite-safety policy: an existing file is
    never replaceable; an existing directory only if it is empty or holds
    a previous artifact.  ``PredictorArtifact.save`` enforces it; the CLI
    uses it as a pre-training fail-fast.
    """
    path = Path(path)
    if path.is_file():
        return (f"{path} is an existing file; artifacts are directories "
                "(a legacy weights .npz cannot be overwritten in place)")
    if path.is_dir() and any(path.iterdir()) and not is_artifact_dir(path):
        return (f"refusing to overwrite {path}: it exists and is not a "
                "predictor artifact — pick a fresh directory")
    return None


def is_artifact_dir(path: str | Path) -> bool:
    """True when ``path`` holds a repro predictor-artifact manifest.

    Checks the manifest's ``kind`` marker, not just the filename —
    ``manifest.json`` is a common name (browser extensions, web apps) and
    a foreign one must never make a directory look replaceable.
    """
    manifest_path = Path(path) / MANIFEST_NAME
    if not manifest_path.is_file():
        return False
    try:
        manifest = json.loads(manifest_path.read_text())
    except (json.JSONDecodeError, OSError, UnicodeDecodeError):
        return False
    return isinstance(manifest, dict) and manifest.get("kind") == ARTIFACT_KIND


def _guarded_read(path: Path, reader):
    """Run an npz reader, keeping parse failures inside the taxonomy.

    A checksum-consistent but unparseable archive (e.g. hand-edited
    alongside its recorded sha256) must surface as an integrity
    diagnostic, not a raw ``BadZipFile``/``OSError`` traceback.
    """
    try:
        return reader()
    except ArtifactIntegrityError:
        raise
    except (zipfile.BadZipFile, OSError, ValueError, KeyError) as exc:
        raise ArtifactIntegrityError(
            f"{path} cannot be read ({exc!r}) — the artifact is corrupt "
            "or was tampered with"
        ) from exc


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _model_name(model: Module) -> str:
    """The ``make_model`` name that rebuilds this ranker's architecture."""
    name = getattr(model, "model_name", None)
    if name is None:
        # Models constructed directly (not via make_model) fall back to
        # class-based detection; RNNRanker records its cell kind itself.
        from repro.core.baselines import DNNRanker, RNNRanker, TCNRanker
        from repro.core.snn import SNN

        if isinstance(model, SNN):
            name = "snn"
        elif isinstance(model, DNNRanker):
            name = "dnn"
        elif isinstance(model, TCNRanker):
            name = "tcn"
        elif isinstance(model, RNNRanker):
            name = getattr(model, "kind", None)
    if name not in DEEP_MODEL_NAMES:
        raise ArtifactError(
            f"cannot determine a servable architecture for {type(model).__name__}; "
            f"artifacts support the deep rankers {DEEP_MODEL_NAMES}"
        )
    return name


def _scaler_state(scaler: StandardScaler) -> tuple[np.ndarray, np.ndarray]:
    if scaler.mean_ is None or scaler.std_ is None:
        raise ArtifactError("predictor scalers are not fitted")
    return scaler.mean_, scaler.std_


def _restore_scaler(mean: np.ndarray, std: np.ndarray) -> StandardScaler:
    scaler = StandardScaler()
    scaler.mean_ = np.asarray(mean, dtype=float)
    scaler.std_ = np.asarray(std, dtype=float)
    return scaler


def _snapshot_scaler(scaler: StandardScaler) -> StandardScaler:
    """An independent copy of a fitted scaler's statistics."""
    mean, std = _scaler_state(scaler)
    return _restore_scaler(mean.copy(), std.copy())


def _history_arrays(serving: ServingSlice) -> dict[str, np.ndarray]:
    """``history.npz``'s arrays (see :data:`_HISTORY_KEYS`)."""
    samples = [s for channel in serving.history.values() for s in channel]
    arrays = {name: np.asarray([getattr(s, name) for s in samples],
                               dtype=dtype)
              for name, dtype in _SAMPLE_DTYPES.items()}
    arrays["split_hours"] = np.asarray(serving.split_hours, dtype=np.float64)
    return arrays


def _history_from_arrays(arrays: dict[str, np.ndarray],
                         path: Path) -> tuple[tuple[float, float], dict]:
    """Invert :func:`_history_arrays`: split boundaries and histories."""
    split_hours = arrays["split_hours"]
    columns = [arrays[name] for name in _SAMPLE_DTYPES]
    if split_hours.shape != (2,) \
            or {column.shape for column in columns} != {columns[0].shape} \
            or columns[0].ndim != 1:
        raise ArtifactIntegrityError(
            f"{path} has malformed history arrays — the artifact is "
            "corrupt or was tampered with"
        )
    history: dict[int, list[PnDSample]] = {}
    for fields in zip(*(column.tolist() for column in columns)):
        sample = PnDSample(*fields)
        history.setdefault(sample.channel_id, []).append(sample)
    return (float(split_hours[0]), float(split_hours[1])), history


@dataclass
class PredictorArtifact:
    """Everything needed to reconstruct a servable predictor.

    In memory the weights live as a plain ``state_dict``; :meth:`save`
    persists the bundle, :meth:`load` restores it with schema + integrity
    verification, and :meth:`to_predictor` rebinds it to a data source.
    ``serving`` is the training dataset's :class:`ServingSlice`, so the
    rebound predictor needs no dataset.
    """

    model_name: str
    config: SNNConfig
    state: dict[str, np.ndarray]
    numeric_scaler: StandardScaler
    seq_scaler: StandardScaler
    channel_index: dict[int, int]
    subscribers: dict[int, int]
    sequence_length: int
    serving: ServingSlice
    signal_channels: tuple[str, ...] = ()
    provenance: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    # -- construction --------------------------------------------------------

    @classmethod
    def from_predictor(cls, predictor: "TargetCoinPredictor",
                       provenance: dict | None = None) -> "PredictorArtifact":
        """Snapshot a trained predictor into an artifact bundle."""
        merged = dict(getattr(predictor, "provenance", None) or {})
        merged.update(provenance or {})
        serving = predictor.dataset
        if not isinstance(serving, ServingSlice):
            serving = serving.serving_slice()
        return cls(
            model_name=_model_name(predictor.model),
            config=predictor.model.config,
            state=predictor.model.state_dict(),
            # Snapshots, like the weights above: later mutation of the
            # live predictor must not change what this artifact persists.
            numeric_scaler=_snapshot_scaler(predictor._numeric_scaler),
            seq_scaler=_snapshot_scaler(predictor._seq_scaler),
            channel_index=dict(predictor._channel_index),
            subscribers=dict(predictor.assembler.subscribers),
            sequence_length=predictor.assembler.sequence_length,
            serving=serving,
            signal_channels=tuple(
                predictor.assembler.signal_engine.feature_names
            ) if predictor.assembler.signal_engine is not None else (),
            provenance=merged,
        )

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Write the bundle to directory ``path`` (created if needed).

        The bundle is staged in a sibling temp directory and renamed into
        place, so a crash mid-save never leaves a torn artifact — and
        re-saving over an existing artifact replaces it whole instead of
        corrupting it file by file.  Caveat: replacing an existing
        artifact is two renames (POSIX offers no atomic directory swap);
        a hard kill in that window leaves the path briefly absent with
        the old bundle recoverable from a sibling ``.<name>.old-*``
        directory.  Registry publishes never replace (versions are
        immutable), so this only affects deliberate in-place re-saves.
        """
        path = Path(path)
        problem = check_save_target(path)
        if problem is not None:
            raise ArtifactError(problem)
        path.parent.mkdir(parents=True, exist_ok=True)
        staging = path.parent / (
            f".{path.name}.tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        )
        staging.mkdir()
        try:
            self._write_bundle(staging)
            if path.exists():
                displaced = path.parent / (
                    f".{path.name}.old-{uuid.uuid4().hex[:8]}"
                )
                path.rename(displaced)
                try:
                    staging.rename(path)
                except BaseException:
                    # Put the original bundle back before propagating —
                    # a failed replace must not leave the path empty.
                    try:
                        displaced.rename(path)
                    except OSError:
                        pass  # a concurrent writer re-created the path
                    raise
                shutil.rmtree(displaced, ignore_errors=True)
            else:
                staging.rename(path)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        return path

    def _write_bundle(self, path: Path) -> None:
        save_state_dict(self.state, path / WEIGHTS_NAME,
                        container=ARTIFACT_KIND)
        numeric = _scaler_state(self.numeric_scaler)
        seq = _scaler_state(self.seq_scaler)
        np.savez_compressed(
            path / STATE_NAME,
            numeric_mean=numeric[0], numeric_std=numeric[1],
            seq_mean=seq[0], seq_std=seq[1],
        )
        np.savez_compressed(path / HISTORY_NAME,
                            **_history_arrays(self.serving))
        manifest = {
            "kind": ARTIFACT_KIND,
            "schema_version": self.schema_version,
            "created_unix": int(time.time()),
            "model": {
                "name": self.model_name,
                "config": asdict(self.config),
                "n_parameters": int(sum(a.size for a in self.state.values())),
            },
            "features": {
                "sequence_length": int(self.sequence_length),
                "n_channels": len(self.channel_index),
                "channel_index": {str(k): int(v)
                                  for k, v in self.channel_index.items()},
                "subscribers": {str(k): int(v)
                                for k, v in self.subscribers.items()},
                "signal_channels": [str(s) for s in self.signal_channels],
            },
            "provenance": self.provenance,
            "files": {
                name: {"sha256": _sha256(path / name)}
                for name in BUNDLE_FILES
            },
        }
        (path / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )

    @classmethod
    def load(cls, path: str | Path) -> "PredictorArtifact":
        """Load and verify a saved bundle (schema, then checksums)."""
        started = time.perf_counter()
        try:
            with span("artifact.load", path=str(path)):
                artifact = cls._load(path)
        except ArtifactSchemaError:
            _record_load(started, "schema_error")
            raise
        except ArtifactIntegrityError:
            _record_load(started, "integrity_error")
            raise
        except ArtifactError:
            _record_load(started, "error")
            raise
        _record_load(started, "ok")
        return artifact

    @classmethod
    def _load(cls, path: str | Path) -> "PredictorArtifact":
        path = Path(path)
        manifest = read_manifest(path)
        verify_files(path, manifest)

        def read_arrays(name, keys, what):
            with np.load(path / name) as archive:
                missing = [key for key in keys if key not in archive]
                if missing:
                    raise ArtifactIntegrityError(
                        f"{path / name} is missing {what} arrays: {missing}"
                    )
                return {key: archive[key] for key in keys}

        state_arrays = _guarded_read(
            path / STATE_NAME,
            lambda: read_arrays(STATE_NAME, _STATE_KEYS, "scaler"),
        )
        split_hours, history = _history_from_arrays(_guarded_read(
            path / HISTORY_NAME,
            lambda: read_arrays(HISTORY_NAME, _HISTORY_KEYS, "history"),
        ), path / HISTORY_NAME)
        weights = _guarded_read(
            path / WEIGHTS_NAME,
            lambda: read_state_dict(path / WEIGHTS_NAME),
        )
        # The manifest itself carries no checksum, so its *content* can be
        # hand-edited into shapes the structural check can't anticipate
        # (wrong config keys, non-dict vocab, …) — keep every failure
        # inside the ArtifactError taxonomy rather than a raw traceback.
        try:
            features = manifest["features"]
            config = SNNConfig(**{
                **manifest["model"]["config"],
                "hidden_dims":
                    tuple(manifest["model"]["config"]["hidden_dims"]),
            })
            channel_index = {int(k): int(v)
                             for k, v in features["channel_index"].items()}
            return cls(
                model_name=manifest["model"]["name"],
                config=config,
                state=weights,
                numeric_scaler=_restore_scaler(
                    state_arrays["numeric_mean"], state_arrays["numeric_std"]
                ),
                seq_scaler=_restore_scaler(
                    state_arrays["seq_mean"], state_arrays["seq_std"]
                ),
                channel_index=channel_index,
                subscribers={int(k): int(v)
                             for k, v in features["subscribers"].items()},
                sequence_length=int(features["sequence_length"]),
                serving=ServingSlice(
                    tuple(sorted(channel_index, key=channel_index.get)),
                    split_hours, history,
                ),
                signal_channels=tuple(
                    str(s) for s in features["signal_channels"]
                ),
                provenance=dict(manifest.get("provenance", {})),
                schema_version=int(manifest["schema_version"]),
            )
        except ArtifactError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ArtifactIntegrityError(
                f"{path / MANIFEST_NAME} has malformed content "
                f"({exc!r}) — the artifact is corrupt or was tampered with"
            ) from exc

    # -- reconstruction ------------------------------------------------------

    def build_model(self) -> Module:
        """Rebuild the ranker and re-verify its compiled inference plan.

        ``load_state_dict`` is strict: a weights archive that doesn't match
        the manifest's architecture (names or shapes) fails loudly here.
        """
        model = make_model(self.model_name, self.config)
        try:
            model.load_state_dict(self.state)
        except (KeyError, ValueError) as exc:
            raise ArtifactIntegrityError(
                f"weights do not match the manifest's "
                f"{self.model_name!r} architecture: {exc}"
            ) from exc
        model.eval()
        # Trace + verify the no-grad plan against an eager forward now, so
        # a reloaded model never serves through an unverified fast path
        # (and the first real announcement pays no tracing cost).
        prewarm(model)
        return model

    def to_predictor(self, source, dataset: TargetCoinDataset | None = None
                     ) -> "TargetCoinPredictor":
        """Bind the artifact to a data source — no training, no refitting.

        ``source`` is any :class:`repro.sources.DataSource` backend — it
        need *not* be the backend the model was trained on; a model
        trained against the simulator can serve a recorded file dump and
        vice versa, as long as both describe the same channel/coin
        universe.  Without ``dataset`` the predictor ranks from the
        artifact's own :attr:`serving` slice; a
        :class:`~repro.data.dataset.TargetCoinDataset` passed instead must
        describe the same channel vocabulary the model was trained on (its
        embedding rows are positional).  Either way the channel
        vocabulary, subscriber counts, sequence length and coin count are
        checked against the source, so drift fails loudly instead of
        silently scoring with shuffled embeddings.
        """
        from repro.core.predictor import TargetCoinPredictor
        from repro.features.assembler import FeatureAssembler

        signal_engine = None
        if self.signal_channels:
            # Lazy: repro.signals sits above the serving stack in the
            # layer graph; only artifact rebinding reaches down into it.
            from repro.signals import SignalEngine

            signal_engine = SignalEngine.from_source(source)
            if tuple(signal_engine.feature_names) != \
                    tuple(self.signal_channels):
                raise ArtifactError(
                    "artifact/library signal drift: the artifact was "
                    f"trained with signal channels {list(self.signal_channels)} "
                    f"but this library's engine computes "
                    f"{list(signal_engine.feature_names)}; the scalers "
                    "would be applied to the wrong columns — regenerate "
                    "the artifact"
                )
        if dataset is None:
            dataset = self.serving
        assembler = FeatureAssembler(source, dataset,
                                     signal_engine=signal_engine)
        if assembler.channel_index != self.channel_index:
            raise ArtifactError(
                "artifact/source vocabulary drift: the dataset's channel "
                f"index ({len(assembler.channel_index)} channels) does not "
                f"match the artifact's ({len(self.channel_index)} channels); "
                "was this artifact trained on a different dataset or scale?"
            )
        n_coin_ids = pad_coin_id(source.coins.n_coins) + 1
        if n_coin_ids != self.config.n_coin_ids:
            raise ArtifactError(
                f"artifact/source coin drift: the model embeds "
                f"{self.config.n_coin_ids - 1} coins but the data source "
                f"lists {source.coins.n_coins}; was this artifact trained "
                "on a different scale?"
            )
        if assembler.sequence_length != self.sequence_length:
            raise ArtifactError(
                f"artifact sequence_length={self.sequence_length} but the "
                f"data source uses {assembler.sequence_length}"
            )
        # The manifest carries no checksum, so its subscriber counts must
        # agree with the source's ground truth — they feed the channel
        # feature directly, and silent drift would mean silently different
        # scores, not a diagnostic.
        if {int(k): int(v) for k, v in assembler.subscribers.items()} != \
                self.subscribers:
            raise ArtifactError(
                "artifact/source vocabulary drift: the artifact's recorded "
                "subscriber counts do not match the data source's; the "
                "manifest is stale or was tampered with"
            )
        predictor = TargetCoinPredictor(
            source, dataset, self.build_model(), assembler,
            scalers=(_snapshot_scaler(self.numeric_scaler),
                     _snapshot_scaler(self.seq_scaler)),
        )
        predictor.provenance = dict(self.provenance)
        return predictor


# -- manifest / verification helpers ----------------------------------------


def read_manifest(path: str | Path) -> dict:
    """Read and schema-check an artifact directory's manifest."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if path.is_file():
        raise ArtifactError(
            f"{path} is a file, not an artifact directory; bare-weights "
            ".npz archives hold no scaler/vocab state and cannot be "
            "served — retrain with `repro train --save <dir>` to produce "
            "a full artifact"
        )
    if not manifest_path.is_file():
        raise ArtifactError(f"{path} is not a predictor artifact "
                            f"(missing {MANIFEST_NAME})")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ArtifactIntegrityError(
            f"{manifest_path} is not valid JSON: {exc}"
        ) from exc
    if manifest.get("kind") != ARTIFACT_KIND:
        raise ArtifactError(
            f"{manifest_path} is not a {ARTIFACT_KIND} manifest"
        )
    version = manifest.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ArtifactSchemaError(
            f"artifact schema v{version} is not loadable by this library "
            f"(supports v{SCHEMA_VERSION}); regenerate the artifact with "
            "`repro train --save`"
        )
    # Structural validation: a right-versioned manifest must still carry
    # every section the loaders index, and checksums for the canonical
    # file set — a partial write or hand edit degrades to a diagnostic,
    # not a KeyError (or worse, silently skipped checksum protection).
    problems = []
    for section, keys in (("model", ("name", "config", "n_parameters")),
                          ("features", ("sequence_length", "n_channels",
                                        "channel_index", "subscribers",
                                        "signal_channels"))):
        body = manifest.get(section)
        if not isinstance(body, dict):
            problems.append(f"section {section!r}")
        else:
            problems += [f"{section}.{key}" for key in keys
                         if key not in body]
    model = manifest.get("model")
    if isinstance(model, dict):
        if "name" in model and model["name"] not in DEEP_MODEL_NAMES:
            problems.append(
                f"model.name {model['name']!r} (not one of {DEEP_MODEL_NAMES})"
            )
        if "config" in model and not isinstance(model["config"], dict):
            problems.append("model.config (not a mapping)")
    files = manifest.get("files")
    if not isinstance(files, dict):
        problems.append("section 'files'")
    else:
        problems += [
            f"files[{name!r}].sha256" for name in BUNDLE_FILES
            if not isinstance(files.get(name), dict)
            or "sha256" not in files[name]
        ]
    if problems:
        raise ArtifactIntegrityError(
            f"{manifest_path} is structurally invalid (bad or missing "
            f"{', '.join(problems)}) — the artifact is corrupt or was "
            "tampered with"
        )
    return manifest


def verify_files(path: str | Path, manifest: dict | None = None) -> None:
    """Check every bundled file exists and matches its recorded sha256.

    ``read_manifest`` guarantees checksums exist for the canonical file
    set (:data:`BUNDLE_FILES`), so an emptied ``files`` section cannot
    silently disable tamper protection.
    """
    started = time.perf_counter()
    path = Path(path)
    if manifest is None:
        manifest = read_manifest(path)
    _verify_files_inner(path, manifest)
    default_registry().histogram(
        "artifact_verify_seconds",
        "Wall time to checksum-verify an artifact's bundled files.",
    ).observe(time.perf_counter() - started)


def _verify_files_inner(path: Path, manifest: dict) -> None:
    for name, meta in manifest["files"].items():
        if not isinstance(meta, dict):
            raise ArtifactIntegrityError(
                f"manifest files entry {name!r} is malformed (expected a "
                "mapping with a sha256) — the artifact is corrupt or was "
                "tampered with"
            )
        if Path(name).name != name or name in (".", ".."):
            # Artifacts are untrusted input: a crafted entry must not
            # point the checksum walk outside the artifact directory
            # (hash/existence oracle on arbitrary readable files).
            raise ArtifactIntegrityError(
                f"manifest files entry {name!r} is not a plain file name "
                "— the artifact is corrupt or was tampered with"
            )
        file_path = path / name
        if not file_path.is_file():
            raise ArtifactIntegrityError(f"artifact file missing: {file_path}")
        digest = _sha256(file_path)
        if digest != meta.get("sha256"):
            raise ArtifactIntegrityError(
                f"checksum mismatch for {file_path}: manifest records "
                f"{meta.get('sha256', '?')[:12]}…, file hashes "
                f"{digest[:12]}… — the artifact is corrupt or was "
                "tampered with"
            )


# -- module-level convenience API --------------------------------------------


def save_artifact(predictor: "TargetCoinPredictor", path: str | Path,
                  provenance: dict | None = None) -> Path:
    """Persist ``predictor`` as a full artifact directory at ``path``."""
    return PredictorArtifact.from_predictor(
        predictor, provenance=provenance
    ).save(path)


def load_artifact(path: str | Path) -> PredictorArtifact:
    """Load (and verify) an artifact bundle from disk."""
    return PredictorArtifact.load(path)
