"""Shared fixtures for the experiment benchmarks.

The synthetic world (and its data-source adapter), collection pipeline
and assembled features are built once per session (they are inputs to several tables/figures).  Scale is
controlled by ``REPRO_SCALE`` (``small`` default, ``paper`` for full size).
"""

from __future__ import annotations

import pytest

from repro.core import Trainer
from repro.data import collect
from repro.features import FeatureAssembler
from repro.simulation import SyntheticWorld
from repro.sources import SyntheticWorldSource
from repro.utils import ReproConfig, Scale, get_scale


@pytest.fixture(scope="session")
def config() -> ReproConfig:
    return ReproConfig.for_scale(get_scale())


@pytest.fixture(scope="session")
def world(config):
    return SyntheticWorld.generate(config)


@pytest.fixture(scope="session")
def source(world):
    return SyntheticWorldSource(world)


@pytest.fixture(scope="session")
def collection(source):
    return collect(source)


@pytest.fixture(scope="session")
def assembled(source, collection):
    return FeatureAssembler(source, collection.dataset).assemble()


@pytest.fixture(scope="session")
def trainer(config):
    """Shared trainer; ``REPRO_BENCH_EPOCHS`` trades accuracy for wall time."""
    import os

    epochs = int(os.environ.get("REPRO_BENCH_EPOCHS", "14"))
    return Trainer(epochs=epochs, lr=3e-3, pos_weight=25.0, seed=config.seed)


@pytest.fixture(scope="session")
def trained_snn(assembled, trainer):
    """One trained SNN shared by the figure benchmarks."""
    from repro.core import make_model, snn_config_for

    model = make_model("snn", snn_config_for(assembled), seed=0)
    trainer.fit(model, assembled.train, assembled.validation)
    return model


def run_once(benchmark, fn):
    """Execute an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
