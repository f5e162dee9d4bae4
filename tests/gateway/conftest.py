"""Shared fixtures for the gateway tests.

One tiny world + collection per session; one briefly trained predictor
per ranker family, published into a session-scoped registry (the
acceptance criterion covers snn/dnn/gru/tcn artifacts).  ``gateway``
starts a real :class:`ThreadingHTTPServer` on a free port and tears it
down after the test.
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
from repro.gateway import GatewayClient, serve_in_thread
from repro.registry import ModelRegistry
from repro.serving import Announcement, PredictionService
from repro.simulation import SyntheticWorld
from repro.sources import SyntheticWorldSource
from repro.utils import ReproConfig

GATEWAY_ARCHS = ("snn", "dnn", "gru", "tcn")


@pytest.fixture(scope="session")
def gw_source():
    return SyntheticWorldSource(SyntheticWorld.generate(ReproConfig.tiny()))


@pytest.fixture(scope="session")
def gw_collection(gw_source):
    return collect(gw_source)


@pytest.fixture(scope="session")
def gw_registry(gw_source, gw_collection, tmp_path_factory) -> ModelRegistry:
    """A registry holding one briefly trained artifact per architecture."""
    assembler = FeatureAssembler(gw_source, gw_collection.dataset)
    assembled = assembler.assemble()
    registry = ModelRegistry(tmp_path_factory.mktemp("gateway-registry"))
    for name in GATEWAY_ARCHS:
        model = make_model(name, snn_config_for(assembled), seed=0)
        Trainer(epochs=1, seed=0).fit(
            model, assembled.train, assembled.validation
        )
        predictor = TargetCoinPredictor(
            gw_source, gw_collection.dataset, model, assembler
        )
        registry.publish(predictor, name, provenance={"model": name})
    return registry


@pytest.fixture(scope="session")
def test_positives(gw_collection):
    positives = [
        e for e in gw_collection.dataset.examples
        if e.label == 1 and e.split == "test"
    ]
    assert len(positives) >= 3
    return positives


def make_announcements(positives, n: int, *,
                       coin_known: bool = True) -> list[Announcement]:
    return [
        Announcement(
            channel_id=e.channel_id,
            coin_id=e.coin_id if coin_known else -1,
            exchange_id=0, pair="BTC", time=e.time,
        )
        for e in positives[:n]
    ]


def service_from(registry: ModelRegistry, name: str, source,
                 collection) -> PredictionService:
    """A fresh service booted from the registry's latest ``name``."""
    return PredictionService.from_artifact(
        registry.resolve(name), source, collection.dataset
    )


@pytest.fixture
def gateway():
    """Factory starting real HTTP gateways; all shut down on teardown."""
    servers = []

    def start(app) -> tuple:
        server, _thread = serve_in_thread(app)
        servers.append(server)
        return server, GatewayClient(server.url)

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()
