"""GatewayClient keep-alive connection pool (PR 9).

The client keeps one persistent HTTP/1.1 connection per thread.  The
contracts under test:

* repeated requests reuse a single TCP connection;
* a reused socket gone stale (server restart, idle close) is resent
  transparently exactly once — invisible to the retry policy, so
  ``client_retries_total`` and breaker semantics are unchanged;
* an error envelope's body is fully drained, so the next request on the
  same connection never desyncs;
* a timeout is never transparently resent (the server may still be
  processing the first copy);
* ``close()`` drops every pooled connection but leaves the client
  usable.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.gateway import (
    GatewayApp,
    GatewayClient,
    GatewayRequestError,
    GatewayTimeoutError,
)
from repro.gateway.schema import E_UNKNOWN_CHANNEL, SCHEMA_VERSION
from repro.resilience import NO_RETRY
from repro.serving import Announcement
from tests.gateway.conftest import make_announcements, service_from


@pytest.fixture(scope="module")
def pool_app(tiny_registry, tiny_source, tiny_collection) -> GatewayApp:
    return GatewayApp(
        service_from(tiny_registry, "dnn", tiny_source, tiny_collection))


def conns_opened(client: GatewayClient) -> float:
    return client._m_conns.value


class TestKeepAlive:
    def test_many_requests_share_one_connection(self, gateway, pool_app,
                                                test_positives):
        _server, client = gateway(pool_app)
        before = conns_opened(client)
        for _ in range(5):
            assert client.healthz().status == "ok"
        client.rank(make_announcements(test_positives, 1,
                                       coin_known=False)[0])
        assert conns_opened(client) - before == 1

    def test_error_envelope_does_not_desync_the_connection(
            self, gateway, pool_app, test_positives):
        _server, client = gateway(pool_app)
        before = conns_opened(client)
        good = make_announcements(test_positives, 1, coin_known=False)[0]
        assert client.rank(good) is not None
        bad = Announcement(channel_id=10 ** 6, coin_id=-1, exchange_id=0,
                           pair="BTC", time=good.time)
        with pytest.raises(GatewayRequestError) as excinfo:
            client.rank(bad)
        assert excinfo.value.code == E_UNKNOWN_CHANNEL
        # The envelope's body was read in full: the very next exchange on
        # the same socket parses cleanly.
        assert client.rank(good) is not None
        assert client.stats().gateway["requests"]["rank"] >= 3
        assert conns_opened(client) - before == 1

    def test_close_drops_the_pool_but_not_the_client(self, gateway,
                                                     pool_app):
        _server, client = gateway(pool_app)
        before = conns_opened(client)
        assert client.healthz().status == "ok"
        client.close()
        assert client.healthz().status == "ok"  # simply reconnects
        assert conns_opened(client) - before == 2


class _ScriptedServer:
    """A raw-socket HTTP/1.1 server driven by per-request directives.

    Directives (one per expected request, in order):

    * ``"ok"``       — answer 200 with a healthz body, keep the
      connection open;
    * ``"ok-close"`` — answer, then silently close the connection (an
      idle timeout / restart seen from the client side);
    * ``"stall"``    — read the request and never answer.
    """

    def __init__(self, script: list[str]):
        self.script = list(script)
        self.requests_served = 0
        self._finished = threading.Event()
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        self.port = self.listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def shutdown(self) -> None:
        self._finished.set()
        self._thread.join(timeout=30.0)

    def _read_request(self, conn: socket.socket) -> bool:
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = conn.recv(65536)
            if not chunk:
                return False
            data += chunk
        return True

    def _serve(self) -> None:
        body = (b'{"schema_version": %d, "status": "ok", "model": {}, '
                b'"uptime_seconds": 1.0, "reloads": 0}'
                % SCHEMA_VERSION)
        response = (b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: " + str(len(body)).encode() +
                    b"\r\n\r\n" + body)
        conn = None
        try:
            while self.script:
                if conn is None:
                    conn, _addr = self.listener.accept()
                if not self._read_request(conn):
                    conn.close()
                    conn = None
                    continue
                directive = self.script.pop(0)
                self.requests_served += 1
                if directive == "stall":
                    continue  # never answer; the client's timeout fires
                conn.sendall(response)
                if directive == "ok-close":
                    conn.close()
                    conn = None
            # Script exhausted: hold any open connection (a stalled
            # client must see silence, not a close) until the test is
            # done with its assertions.
            self._finished.wait(30.0)
        except OSError:
            pass
        finally:
            if conn is not None:
                conn.close()
            self.listener.close()


class TestStaleSocketResend:
    def test_reused_stale_socket_is_resent_without_a_retry(self):
        # Request 1 establishes the keep-alive connection, then the
        # server silently closes it; request 2 finds the socket stale and
        # must succeed by transparent resend even with retries disabled.
        server = _ScriptedServer(["ok-close", "ok"])
        client = GatewayClient(f"http://127.0.0.1:{server.port}",
                               retry=NO_RETRY)
        conns_before = conns_opened(client)
        retries_before = client._m_retries.labels(
            endpoint="healthz").value()
        assert client.healthz().status == "ok"
        assert client.healthz().status == "ok"
        assert server.requests_served == 2
        assert conns_opened(client) - conns_before == 2
        assert client._m_retries.labels(endpoint="healthz").value() \
            == retries_before
        client.close()
        server.shutdown()

    def test_timeout_on_a_reused_socket_is_never_resent(self):
        server = _ScriptedServer(["ok", "stall"])
        client = GatewayClient(f"http://127.0.0.1:{server.port}",
                               timeout=0.5, retry=NO_RETRY)
        assert client.healthz().status == "ok"
        with pytest.raises(GatewayTimeoutError):
            client.healthz()
        # The stalled request reached the server once and exactly once.
        assert server.requests_served == 2
        client.close()
        server.shutdown()
