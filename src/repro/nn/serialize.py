"""Model persistence: parameter ``state_dict`` archives (``.npz``).

The archive holds one array per dotted parameter name plus a manifest;
the loading side (``Module.load_state_dict``) validates names and shapes,
so version drift fails loudly.  A bare-weights archive is **not
servable** — it carries no fitted scalers, no channel vocabulary and no
architecture config — so these functions are the weight-transport layer
*inside* the full predictor bundles of :mod:`repro.registry` (``repro
train --save`` writes one).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

_MANIFEST_KEY = "__manifest__"


def save_state_dict(state: dict[str, np.ndarray], path: str | Path, *,
                    container: str | None = None) -> None:
    """Write a parameter ``state_dict`` to ``path`` (npz) with a manifest.

    ``container`` marks the archive as embedded in a larger bundle (e.g. a
    :mod:`repro.registry` artifact).
    """
    path = Path(path)
    manifest = {
        "names": sorted(state),
        "shapes": {name: list(arr.shape) for name, arr in state.items()},
        "n_parameters": int(sum(arr.size for arr in state.values())),
    }
    if container is not None:
        manifest["container"] = container
    arrays = dict(state)
    arrays[_MANIFEST_KEY] = np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **arrays)


def read_state_dict(path: str | Path) -> dict[str, np.ndarray]:
    """Read back the raw parameter arrays of a saved archive.

    Returns the state without needing a constructed module (the artifact
    layer validates it against a rebuilt architecture via
    ``Module.load_state_dict``).
    """
    with np.load(Path(path)) as archive:
        if _MANIFEST_KEY not in archive:
            raise ValueError(f"{path} is not a repro model archive")
        manifest = json.loads(bytes(archive[_MANIFEST_KEY]).decode("utf-8"))
        return {name: archive[name] for name in manifest["names"]}
