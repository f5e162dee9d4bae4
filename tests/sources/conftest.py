"""Shared fixtures for the data-source tests.

A short-horizon tiny world keeps its exported candle grid (and therefore
the dump round-trips) small; the world, its data-source adapter, its
collection and a canonical dump are built once per session.
"""

from __future__ import annotations

import pytest

from repro.data import collect
from repro.simulation import SyntheticWorld
from repro.sources import SyntheticWorldSource, export_synthetic_dump
from repro.utils import ReproConfig


@pytest.fixture(scope="session")
def short_world():
    return SyntheticWorld.generate(ReproConfig.tiny().with_(horizon_hours=2600))


@pytest.fixture(scope="session")
def short_source(short_world):
    return SyntheticWorldSource(short_world)


@pytest.fixture(scope="session")
def short_collection(short_source):
    return collect(short_source)


@pytest.fixture(scope="session")
def dump_dir(short_world, short_collection, tmp_path_factory):
    out = tmp_path_factory.mktemp("source-dump") / "dump"
    export_synthetic_dump(short_world, out, collection=short_collection)
    return out
