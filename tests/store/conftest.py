"""Shared fixtures for the durable-store tests.

One tiny world and two briefly trained artifacts per session: a ``dnn``
and an ``snn``.  The DNN ranker has no sequence encoder, so only the SNN
makes a ranking depend on the folded pump history; history-parity tests
serve it.  Tests get a factory making fresh :class:`PredictionService`
instances (optionally wired to a store) so rehydration can be compared
against a clean boot.
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
from repro.registry import ModelRegistry
from repro.serving import Announcement, PredictionService
from repro.simulation import SyntheticWorld
from repro.sources import SyntheticWorldSource
from repro.utils import ReproConfig


@pytest.fixture(scope="session")
def st_source():
    return SyntheticWorldSource(SyntheticWorld.generate(ReproConfig.tiny()))


@pytest.fixture(scope="session")
def st_collection(st_source):
    return collect(st_source)


@pytest.fixture(scope="session")
def st_registry(st_source, st_collection, tmp_path_factory) -> ModelRegistry:
    assembler = FeatureAssembler(st_source, st_collection.dataset)
    assembled = assembler.assemble()
    registry = ModelRegistry(tmp_path_factory.mktemp("store-registry"))
    for arch in ("dnn", "snn"):
        model = make_model(arch, snn_config_for(assembled), seed=0)
        Trainer(epochs=1, seed=0).fit(
            model, assembled.train, assembled.validation
        )
        predictor = TargetCoinPredictor(
            st_source, st_collection.dataset, model, assembler
        )
        registry.publish(predictor, arch, provenance={"model": arch})
    return registry


@pytest.fixture(scope="session")
def st_positives(st_collection):
    positives = [
        e for e in st_collection.dataset.examples
        if e.label == 1 and e.split == "test"
    ]
    assert len(positives) >= 3
    return positives


def announcements_from(positives, n: int) -> list[Announcement]:
    return [
        Announcement(channel_id=e.channel_id, coin_id=e.coin_id,
                     exchange_id=0, pair="BTC", time=e.time)
        for e in positives[:n]
    ]


def probe_for(announcement) -> Announcement:
    """A stateless prediction request issued after the observations."""
    return Announcement(channel_id=announcement.channel_id, coin_id=-1,
                        exchange_id=0, pair="BTC",
                        time=announcement.time + 1.0)


def exact(ranking):
    return tuple((s.coin_id, s.probability) for s in ranking.scores)


def unobserved_ranking(make_service, probe: Announcement) -> tuple:
    """``probe``'s SNN ranking from a service that folded nothing.

    A history-parity test asserts its ranking differs from this one, so
    it cannot pass when no observation was folded at all.
    """
    return exact(make_service(arch="snn").rank_one(probe).ranking)


@pytest.fixture
def st_service(st_registry, st_source, st_collection):
    """Factory: a fresh service from a session artifact."""

    def make(store=None, arch: str = "dnn") -> PredictionService:
        return PredictionService.from_artifact(
            st_registry.resolve(arch), st_source, st_collection.dataset,
            store=store,
        )

    return make
