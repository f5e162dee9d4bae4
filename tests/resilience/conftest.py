"""Fixtures for the fault-injection suite: a real gateway plus a chaos
proxy in front of it.  The world and registry come from
``tests/conftest.py``; the service factory is the store tests'."""

from __future__ import annotations

import pytest

from repro.gateway import GatewayApp, serve_in_thread
from tests.resilience.chaos import ChaosProxy
from tests.store.conftest import (  # noqa: F401 - registered as fixtures
    announcements_from,
    st_positives,
    st_service,
)


@pytest.fixture
def live_gateway(tiny_registry, st_service):  # noqa: F811 - fixture params
    """Factory for real HTTP gateways; all shut down on teardown."""
    servers = []

    def start(service=None, **server_kwargs):
        app = GatewayApp(service if service is not None else st_service(),
                         registry=tiny_registry)
        server, _thread = serve_in_thread(app, **server_kwargs)
        servers.append(server)
        return app, server

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.fixture
def chaos():
    """Factory for chaos proxies fronting an upstream ``(host, port)``."""
    proxies = []

    def start(server) -> ChaosProxy:
        host, port = server.server_address[:2]
        proxy = ChaosProxy(host, port)
        proxies.append(proxy)
        return proxy

    yield start
    for proxy in proxies:
        proxy.close()
