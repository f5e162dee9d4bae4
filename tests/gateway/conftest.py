"""Shared fixtures for the gateway tests.

The tiny world, its collection and the session registry holding one
briefly trained snn/dnn/gru/tcn artifact come from ``tests/conftest.py``.
``gateway`` starts a real :class:`ThreadingHTTPServer` on a free port and
tears it down after the test.
"""

from __future__ import annotations

import pytest

from repro.gateway import GatewayClient, serve_in_thread
from repro.registry import ModelRegistry
from repro.serving import Announcement, PredictionService


@pytest.fixture(scope="session")
def test_positives(tiny_collection):
    positives = [
        e for e in tiny_collection.dataset.examples
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
    """Factory starting real HTTP gateways; all shut down on teardown,
    and their clients' keep-alive connections closed."""
    started = []

    def start(app) -> tuple:
        server, _thread = serve_in_thread(app)
        client = GatewayClient(server.url)
        started.append((server, client))
        return server, client

    yield start
    for server, client in started:
        client.close()
        server.shutdown()
        server.server_close()
