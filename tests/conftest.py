"""Session fixtures shared across test packages.

One tiny world (``ReproConfig.tiny()``), its data-source adapter and its
collection, used by the gateway, registry, serving, store and resilience
suites.  On top of them, one briefly trained predictor per ranker family
(1 epoch, seed 0 — these suites check exactness and plumbing, not model
quality), published into a session registry.  Tests only read that
registry; a test that publishes or writes into a registry makes its own
under ``tmp_path``.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Iterable

import numpy as np
import pytest

from repro.core import (
    TargetCoinPredictor,
    Trainer,
    make_model,
    snn_config_for,
)
from repro.data import collect
from repro.features import FeatureAssembler
from repro.registry import ModelRegistry
from repro.simulation import SyntheticWorld
from repro.sources import SyntheticWorldSource
from repro.utils import ReproConfig

#: The ranker families in ``tiny_predictors`` and ``tiny_registry``.
TINY_ARCHS = ("snn", "dnn", "gru", "tcn")


def digest_rows(rows: Iterable) -> str:
    """sha256 over rows of fields (tuples or dataclasses), one ``repr``
    line per row: floats through ``float.hex`` and numpy integers as
    ``int``, so the digest names every bit and no numpy version's repr."""
    h = hashlib.sha256()
    for row in rows:
        if dataclasses.is_dataclass(row):
            row = dataclasses.astuple(row)
        fields = tuple(
            float(v).hex() if isinstance(v, (float, np.floating))
            else int(v) if isinstance(v, np.integer) else v
            for v in row
        )
        h.update(repr(fields).encode() + b"\n")
    return h.hexdigest()


@pytest.fixture(scope="session")
def tiny_world():
    return SyntheticWorld.generate(ReproConfig.tiny())


@pytest.fixture(scope="session")
def tiny_source(tiny_world):
    return SyntheticWorldSource(tiny_world)


@pytest.fixture(scope="session")
def tiny_collection(tiny_source):
    return collect(tiny_source)


@pytest.fixture(scope="session")
def tiny_assembler(tiny_source, tiny_collection):
    return FeatureAssembler(tiny_source, tiny_collection.dataset)


@pytest.fixture(scope="session")
def tiny_assembled(tiny_assembler):
    return tiny_assembler.assemble()


@pytest.fixture(scope="session")
def tiny_predictors(tiny_source, tiny_collection, tiny_assembler,
                    tiny_assembled) -> dict[str, TargetCoinPredictor]:
    """One briefly trained in-memory predictor per ranker family."""
    predictors = {}
    for name in TINY_ARCHS:
        model = make_model(name, snn_config_for(tiny_assembled), seed=0)
        Trainer(epochs=1, seed=0).fit(
            model, tiny_assembled.train, tiny_assembled.validation
        )
        predictors[name] = TargetCoinPredictor(
            tiny_source, tiny_collection.dataset, model, tiny_assembler
        )
    return predictors


@pytest.fixture(scope="session")
def tiny_registry(tiny_predictors, tmp_path_factory) -> ModelRegistry:
    """A read-only registry holding ``tiny_predictors``, one model each."""
    registry = ModelRegistry(tmp_path_factory.mktemp("tiny-registry"))
    for name, predictor in tiny_predictors.items():
        registry.publish(predictor, name, provenance={"model": name})
    return registry
