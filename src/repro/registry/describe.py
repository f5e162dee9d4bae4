"""Machine-readable registry/artifact summaries.

One serializer feeds every surface that lists models — ``repro models
list`` and ``repro models inspect`` (tables and ``--json``) and the
gateway's ``GET /v1/models`` — so a field added here shows up everywhere
at once and the CLI and HTTP views can never drift apart.

The listing is resilient: one corrupt bundle yields an entry with an
``"error"`` field (the table's ``(unreadable)`` row) instead of taking
down the whole listing (``repro models validate`` prints the full
diagnostic).
"""

from __future__ import annotations

from pathlib import Path

from repro.registry.artifact import ArtifactError, read_manifest
from repro.registry.registry import ModelRegistry, RegistryError


def entry_payload(name: str, version: str, *, latest: str | None,
                  manifest: dict) -> dict:
    """JSON-safe summary of one registered (name, version) bundle."""
    model = manifest.get("model")
    model = model if isinstance(model, dict) else {}
    features = manifest.get("features")
    features = features if isinstance(features, dict) else {}
    provenance = manifest.get("provenance")
    return {
        "name": name,
        "version": version,
        "latest": version == latest,
        "model": model.get("name"),
        "n_parameters": model.get("n_parameters"),
        "n_channels": features.get("n_channels"),
        "sequence_length": features.get("sequence_length"),
        "artifact_schema_version": manifest.get("schema_version"),
        "provenance": provenance if isinstance(provenance, dict) else {},
    }


def broken_entry_payload(name: str, version: str, *, latest: str | None,
                         error: Exception) -> dict:
    """Listing entry for a bundle that would not even summarize."""
    return {
        "name": name,
        "version": version,
        "latest": version == latest,
        "error": f"{type(error).__name__}: {error}",
    }


def registry_payload(registry: ModelRegistry) -> dict:
    """Every model/version in a registry as one JSON-safe document."""
    models: list[dict] = []
    for name in registry.models():
        versions = registry.versions(name)
        if not versions:
            continue
        try:
            latest = registry.latest(name)
        except RegistryError:
            latest = None
        for version in versions:
            try:
                entry = registry.entry(name, version)
                models.append(entry_payload(
                    name, version, latest=latest, manifest=entry.manifest,
                ))
            except (ArtifactError, RegistryError, TypeError, ValueError,
                    AttributeError, KeyError) as exc:
                models.append(broken_entry_payload(
                    name, version, latest=latest, error=exc,
                ))
    return {"root": str(registry.root), "models": models}


def manifest_payload(path: str | Path, manifest: dict | None = None) -> dict:
    """JSON-safe summary of one artifact directory (``models inspect``).

    Nested provenance (e.g. the data-source descriptor) is passed through
    structurally; the ``inspect`` table flattens it one level into dotted
    rows.
    """
    path = Path(path)
    if manifest is None:
        manifest = read_manifest(path)
    model = manifest.get("model")
    model = model if isinstance(model, dict) else {}
    features = manifest.get("features")
    features = features if isinstance(features, dict) else {}
    config = model.get("config")
    config = config if isinstance(config, dict) else {}
    signals = features.get("signal_channels")
    provenance = manifest.get("provenance")
    return {
        "path": str(path),
        "artifact_schema_version": manifest.get("schema_version"),
        "model": model.get("name"),
        "n_parameters": model.get("n_parameters"),
        "n_channels": features.get("n_channels"),
        "n_coin_ids": config.get("n_coin_ids"),
        "sequence_length": features.get("sequence_length"),
        "signal_channels": signals if isinstance(signals, list) else [],
        "provenance": provenance if isinstance(provenance, dict) else {},
    }
