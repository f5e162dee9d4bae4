"""repro.registry — versioned predictor artifacts: train once, serve anywhere.

The model-lifecycle layer between training and serving:

``artifact``
    :class:`PredictorArtifact` — a schema-versioned bundle (architecture
    config + weights + fitted scalers + vocabulary metadata + training
    provenance) that reconstructs a fully working
    :class:`~repro.core.predictor.TargetCoinPredictor` without retraining;
    sha256 integrity and schema checks fail loudly instead of mis-scoring.
``registry``
    :class:`ModelRegistry` — named, versioned artifacts on disk with an
    atomically updated ``LATEST`` pointer and bulk validation, backing the
    ``repro models`` CLI and ``repro serve --load``.
``describe``
    JSON-safe registry/artifact summaries shared by ``repro models
    list/inspect --json`` and the gateway's ``GET /v1/models``.
"""

from repro.registry.artifact import (
    ARTIFACT_KIND,
    MANIFEST_NAME,
    SCHEMA_VERSION,
    ArtifactError,
    ArtifactIntegrityError,
    ArtifactSchemaError,
    PredictorArtifact,
    check_save_target,
    is_artifact_dir,
    load_artifact,
    read_manifest,
    save_artifact,
    verify_files,
)
from repro.registry.describe import (
    entry_payload,
    manifest_payload,
    registry_payload,
)
from repro.registry.registry import (
    ModelRegistry,
    RegistryEntry,
    RegistryError,
    parse_ref,
)

__all__ = [
    "SCHEMA_VERSION", "ARTIFACT_KIND", "MANIFEST_NAME",
    "PredictorArtifact", "save_artifact", "load_artifact",
    "read_manifest", "verify_files", "is_artifact_dir", "check_save_target",
    "ArtifactError", "ArtifactSchemaError", "ArtifactIntegrityError",
    "ModelRegistry", "RegistryEntry", "RegistryError", "parse_ref",
    "entry_payload", "manifest_payload", "registry_payload",
]
