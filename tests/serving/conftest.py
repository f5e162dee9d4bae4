"""Shared fixtures for the serving tests.

One tiny world (and its data-source adapter), its collection and a
briefly trained model are built once per session; every serving test
reuses them.
"""

from __future__ import annotations

import pytest

from repro.core import train_predictor
from repro.data import collect
from repro.simulation import SyntheticWorld
from repro.sources import SyntheticWorldSource
from repro.utils import ReproConfig


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
def tiny_predictor(tiny_source, tiny_collection):
    return train_predictor(tiny_source, tiny_collection, epochs=2, seed=0)
