"""Shared fixtures for the registry tests.

One tiny world and its collection are built once per session; trained
predictors are built per architecture on demand (1 epoch — artifact
round-trips care about exactness, not model quality).
"""

from __future__ import annotations

import pytest

from repro.core import (
    TargetCoinPredictor,
    Trainer,
    make_model,
    snn_config_for,
)
from repro.data import collect
from repro.features import FeatureAssembler
from repro.simulation import SyntheticWorld
from repro.sources import SyntheticWorldSource
from repro.utils import ReproConfig


@pytest.fixture(scope="session")
def reg_source():
    return SyntheticWorldSource(SyntheticWorld.generate(ReproConfig.tiny()))


@pytest.fixture(scope="session")
def reg_collection(reg_source):
    return collect(reg_source)


@pytest.fixture(scope="session")
def reg_assembler(reg_source, reg_collection):
    return FeatureAssembler(reg_source, reg_collection.dataset)


@pytest.fixture(scope="session")
def reg_assembled(reg_assembler):
    return reg_assembler.assemble()


@pytest.fixture(scope="session")
def trained_predictors(reg_source, reg_collection, reg_assembler,
                       reg_assembled):
    """One briefly trained predictor per ranker family (SNN/DNN/RNN/TCN)."""
    predictors = {}
    for name in ("snn", "dnn", "gru", "tcn"):
        model = make_model(name, snn_config_for(reg_assembled), seed=0)
        Trainer(epochs=1, seed=0).fit(
            model, reg_assembled.train, reg_assembled.validation
        )
        predictors[name] = TargetCoinPredictor(
            reg_source, reg_collection.dataset, model, reg_assembler
        )
    return predictors
