"""Python client SDK for the gateway (stdlib ``http.client`` only).

:class:`GatewayClient` speaks the versioned wire schema and hands back the
same domain objects the in-process API produces — ``rank`` returns an
:class:`~repro.serving.service.Alert`, decoded through the shared
``from_payload`` codecs, so a remote ranking compares bit-for-bit with an
in-process one.  Server refusals surface as
:class:`GatewayRequestError` carrying the envelope's stable ``code``;
transport problems (connection refused, non-JSON replies) as
:class:`GatewayConnectionError`; a request that outran the socket
timeout as :class:`GatewayTimeoutError` (a connection-error subclass, so
existing handlers keep working).

Resilience (ISSUE 7)
--------------------
Transient failures retry under a :class:`~repro.resilience.RetryPolicy`
(exponential backoff with jitter): connection errors, timeouts, and the
retryable statuses 429/500/502/503/504.  Retried endpoints are the
idempotent ones — ``rank``/``rank_batch`` (scoring is history-pure and
the server folds each announcement's deterministic event id at most
once), ``observe`` (the client mints one ``event_id`` per logical call
*before* the retry loop, so a retransmission deduplicates server-side),
and the read-only GETs.  ``reload`` is never retried.  An optional
:class:`~repro.resilience.CircuitBreaker` trips on connection errors and
5xx envelopes; refused calls raise :class:`GatewayCircuitOpenError`
without touching the socket.  Every retry counts
``client_retries_total{endpoint}`` in the process default registry.

>>> client = GatewayClient("http://127.0.0.1:8787")        # doctest: +SKIP
>>> alert = client.rank(Announcement(channel_id=3, coin_id=-1,
...                                  exchange_id=0, pair="BTC",
...                                  time=2410.0))         # doctest: +SKIP
>>> alert.top(3)                                           # doctest: +SKIP
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time as _time
import uuid
from typing import Sequence
from urllib.parse import urlsplit

from repro.gateway.schema import (
    DEADLINE_HEADER,
    SCHEMA_VERSION,
    GatewayFault,
    HealthResponseV1,
    ModelsResponseV1,
    ObserveRequestV1,
    ObserveResponseV1,
    RankBatchRequestV1,
    RankBatchResponseV1,
    RankRequestV1,
    RankResponseV1,
    ReloadRequestV1,
    ReloadResponseV1,
    StatsResponseV1,
    TraceResponseV1,
)
from repro.resilience import (
    DEFAULT_RETRY_POLICY,
    NO_RETRY,
    CircuitBreaker,
    CircuitOpenError,
    RetryPolicy,
)
from repro.serving.online import Announcement
from repro.serving.service import Alert
from repro.telemetry import DURATION_HEADER, TRACE_HEADER, current_trace_id
from repro.telemetry.metrics import default_registry

#: Default connect/read timeout.  Finite and small on purpose: a wedged
#: gateway must cost a caller seconds, not minutes (the old default of
#: 60s was effectively "hang").
DEFAULT_TIMEOUT = 10.0

#: Envelope statuses worth retrying: shed (429), transient server-side
#: failures and proxy errors.  Everything else 4xx is a caller bug that
#: will fail identically on every attempt.
RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})


class _NoDelayConnection(http.client.HTTPConnection):
    """Keep-alive connection with Nagle's algorithm disabled.

    ``http.client`` writes the request head and body as separate
    segments; on a reused connection Nagle holds the second segment
    until the peer ACKs the first, and with delayed ACKs that stall is
    ~40 ms per request — dwarfing the scoring work.  TCP_NODELAY turns
    a keep-alive round trip back into wire latency.
    """

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class GatewayClientError(RuntimeError):
    """Base of everything the client raises."""


class GatewayConnectionError(GatewayClientError):
    """The gateway could not be reached or answered gibberish."""


class GatewayTimeoutError(GatewayConnectionError):
    """The gateway did not answer within the client's timeout."""


class GatewayCircuitOpenError(GatewayClientError):
    """The client's circuit breaker refused the call locally."""

    def __init__(self, message: str, retry_after: float):
        super().__init__(message)
        #: Seconds until the breaker will admit a probe.
        self.retry_after = retry_after


class GatewayRequestError(GatewayClientError):
    """The gateway refused the request with a structured error envelope."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(f"[{status} {code}] {message}")
        self.status = status
        self.code = code
        self.message = message


class GatewayClient:
    """Talk to one ``repro gateway`` over HTTP/JSON.

    Each thread keeps one persistent keep-alive ``HTTPConnection`` to the
    gateway (connections are thread-local, so one client instance is safe
    to share across threads — the benchmark's concurrent clients do).  A
    request that finds its reused socket stale (the server restarted or
    an idle timeout closed it) reconnects and resends transparently,
    exactly once, without consuming the retry budget; failures on a
    *fresh* connection always surface to the retry policy so breaker and
    ``client_retries_total`` semantics are unchanged.  Connections opened
    count ``client_connections_opened_total``.

    Parameters
    ----------
    timeout:
        Connect/read timeout in seconds (:data:`DEFAULT_TIMEOUT`).
    retry:
        Backoff policy for transient failures on idempotent endpoints.
        Pass :data:`~repro.resilience.NO_RETRY` to disable.
    breaker:
        Optional shared :class:`~repro.resilience.CircuitBreaker`; when
        open, calls raise :class:`GatewayCircuitOpenError` locally.
    deadline_ms:
        When set, every request carries an ``X-Repro-Deadline-Ms``
        header so the server can refuse work the client has already
        given up on.
    """

    def __init__(self, base_url: str, timeout: float = DEFAULT_TIMEOUT, *,
                 retry: RetryPolicy = DEFAULT_RETRY_POLICY,
                 breaker: CircuitBreaker | None = None,
                 deadline_ms: float | None = None):
        parts = urlsplit(base_url if "//" in base_url
                         else f"http://{base_url}")
        if parts.scheme not in ("", "http"):
            raise ValueError(
                f"unsupported scheme {parts.scheme!r}: the stdlib gateway "
                "speaks plain http"
            )
        if not parts.hostname:
            raise ValueError(f"no host in gateway URL {base_url!r}")
        self.host = parts.hostname
        self.port = parts.port or 80
        # A path component means the gateway sits behind a prefix-routing
        # reverse proxy; silently dropping it would send every request to
        # the proxy root.
        self.path_prefix = parts.path.rstrip("/")
        self.timeout = timeout
        self.retry = retry
        self.breaker = breaker
        self.deadline_ms = deadline_ms
        self._m_retries = default_registry().counter(
            "client_retries_total",
            "Gateway client retries after a transient failure.",
            ("endpoint",),
        )
        self._m_conns = default_registry().counter(
            "client_connections_opened_total",
            "TCP connections the gateway client has opened.",
        )
        # Per-thread telemetry of the last completed exchange: one client
        # is shared across threads, so a benchmark worker must never read
        # another worker's duration.
        self._last = threading.local()
        # Per-thread keep-alive connection (HTTPConnection is not
        # thread-safe) plus a cross-thread index so close() reaches all.
        self._conn_state = threading.local()
        self._open_conns: set[http.client.HTTPConnection] = set()
        self._conn_lock = threading.Lock()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}{self.path_prefix}"

    @property
    def last_server_duration_ms(self) -> float | None:
        """Server-side handling time of this thread's last response.

        Parsed from the ``X-Repro-Duration-Ms`` header the gateway sets on
        every response — including error envelopes.  ``None`` before the
        first request or when the server predates the header.
        """
        return getattr(self._last, "duration_ms", None)

    @property
    def last_trace_id(self) -> str | None:
        """Trace id echoed on this thread's last response."""
        return getattr(self._last, "trace_id", None)

    # -- transport -----------------------------------------------------------

    #: Failure shapes of a reused socket the peer already closed: the
    #: request never reached the application, so resending it on a fresh
    #: connection is safe and invisible to the retry/breaker layer.
    _STALE_SOCKET_ERRORS = (
        http.client.RemoteDisconnected,
        http.client.BadStatusLine,
        http.client.CannotSendRequest,
        ConnectionResetError,
        ConnectionAbortedError,
        BrokenPipeError,
    )

    def _checkout_connection(self) -> tuple[http.client.HTTPConnection, bool]:
        """This thread's keep-alive connection, opening one if needed.

        Returns ``(connection, reused)`` — ``reused`` is True only when
        the socket has already served at least one full exchange, which
        is the precondition for a transparent resend.
        """
        connection = getattr(self._conn_state, "conn", None)
        if connection is not None:
            return connection, getattr(self._conn_state, "served", 0) > 0
        connection = _NoDelayConnection(self.host, self.port,
                                        timeout=self.timeout)
        self._conn_state.conn = connection
        self._conn_state.served = 0
        self._m_conns.inc()
        with self._conn_lock:
            self._open_conns.add(connection)
        return connection, False

    def _discard_connection(
            self, connection: http.client.HTTPConnection) -> None:
        """Close and forget a connection we no longer trust."""
        if getattr(self._conn_state, "conn", None) is connection:
            self._conn_state.conn = None
            self._conn_state.served = 0
        with self._conn_lock:
            self._open_conns.discard(connection)
        try:
            connection.close()
        except OSError:
            pass

    def close(self) -> None:
        """Close every pooled connection (all threads).  Idempotent; the
        client remains usable — the next request simply reconnects."""
        with self._conn_lock:
            connections, self._open_conns = self._open_conns, set()
        for connection in connections:
            try:
                connection.close()
            except OSError:
                pass
        if getattr(self._conn_state, "conn", None) in connections:
            self._conn_state.conn = None
            self._conn_state.served = 0

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _transport(self, method: str, path: str, body: bytes | None,
                   headers: dict) -> tuple[int, bytes]:
        trace_id = current_trace_id()
        if trace_id is not None:
            # Propagate the caller's trace so the server's span tree joins
            # the client-side one under a single id.
            headers.setdefault(TRACE_HEADER, trace_id)
        connection, reused = self._checkout_connection()
        try:
            return self._exchange(connection, method, path, body, headers)
        except self._STALE_SOCKET_ERRORS as exc:
            self._discard_connection(connection)
            if not reused:
                raise GatewayConnectionError(
                    f"cannot reach gateway at {self.base_url}: {exc}"
                ) from exc
            # The keep-alive socket went stale between requests (server
            # restart, idle close).  One transparent resend on a fresh
            # connection; a second failure is a real outage and surfaces.
            connection, _ = self._checkout_connection()
            try:
                return self._exchange(connection, method, path, body,
                                      headers)
            except TimeoutError as exc:
                self._discard_connection(connection)
                raise GatewayTimeoutError(
                    f"gateway at {self.base_url} did not answer within "
                    f"{self.timeout}s"
                ) from exc
            except (OSError, http.client.HTTPException) as exc:
                self._discard_connection(connection)
                raise GatewayConnectionError(
                    f"cannot reach gateway at {self.base_url}: {exc}"
                ) from exc
        except TimeoutError as exc:
            # socket.timeout is TimeoutError (an OSError subclass) — the
            # order of these clauses is what gives it a distinct type.
            # Never resent, even on a reused socket: the server may still
            # be processing the first copy.
            self._discard_connection(connection)
            raise GatewayTimeoutError(
                f"gateway at {self.base_url} did not answer within "
                f"{self.timeout}s"
            ) from exc
        except (OSError, http.client.HTTPException) as exc:
            self._discard_connection(connection)
            raise GatewayConnectionError(
                f"cannot reach gateway at {self.base_url}: {exc}"
            ) from exc

    def _exchange(self, connection: http.client.HTTPConnection, method: str,
                  path: str, body: bytes | None,
                  headers: dict) -> tuple[int, bytes]:
        """One request/response on ``connection``; keeps it alive when the
        server allows.  The body is always read in full (even for error
        envelopes) so the next request never desyncs on leftover bytes."""
        connection.request(method, self.path_prefix + path, body=body,
                           headers=headers)
        response = connection.getresponse()
        raw = response.read()
        status = response.status
        duration = response.getheader(DURATION_HEADER)
        self._last.trace_id = response.getheader(TRACE_HEADER)
        if response.will_close:
            self._discard_connection(connection)
        else:
            self._conn_state.served = \
                getattr(self._conn_state, "served", 0) + 1
        try:
            self._last.duration_ms = (None if duration is None
                                      else float(duration))
        except ValueError:
            self._last.duration_ms = None
        return status, raw

    def _raise_envelope(self, status: int, raw: bytes) -> None:
        """Turn a non-2xx body into the typed error, best effort."""
        try:
            decoded = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            decoded = None
        error = decoded.get("error") if isinstance(decoded, dict) else None
        if isinstance(error, dict):
            raise GatewayRequestError(
                status, str(error.get("code", "unknown")),
                str(error.get("message", "")),
            )
        raise GatewayConnectionError(
            f"gateway returned status {status} without an error envelope"
        )

    def _request(self, method: str, path: str,
                 payload: dict | None = None) -> dict:
        body = None
        headers = {"Accept": "application/json"}
        if self.deadline_ms is not None:
            headers[DEADLINE_HEADER] = f"{self.deadline_ms:g}"
        if payload is not None:
            body = json.dumps(payload,
                              separators=(",", ":")).encode("utf-8")
            headers["Content-Type"] = "application/json"
        status, raw = self._transport(method, path, body, headers)
        if status >= 400:
            self._raise_envelope(status, raw)
        try:
            decoded = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise GatewayConnectionError(
                f"gateway at {self.base_url} returned non-JSON "
                f"(status {status}): {raw[:200]!r}"
            ) from exc
        if not isinstance(decoded, dict):
            raise GatewayConnectionError(
                "gateway response body is not a JSON object"
            )
        return decoded

    @staticmethod
    def _decode(decoder, payload: dict):
        try:
            return decoder(payload)
        except GatewayFault as fault:
            raise GatewayConnectionError(
                f"gateway response failed schema decode: {fault.message}"
            ) from None

    # -- resilience ----------------------------------------------------------

    @staticmethod
    def _is_breaker_failure(exc: GatewayClientError) -> bool:
        """Connection errors/timeouts and 5xx envelopes trip the breaker;
        any other envelope proves the server is alive (429 included —
        shedding is healthy behaviour, not an outage)."""
        if isinstance(exc, GatewayConnectionError):
            return True
        return isinstance(exc, GatewayRequestError) and exc.status >= 500

    @staticmethod
    def _is_retryable(exc: GatewayClientError) -> bool:
        if isinstance(exc, GatewayConnectionError):
            return True
        return isinstance(exc, GatewayRequestError) \
            and exc.status in RETRYABLE_STATUSES

    def _call(self, endpoint: str, fn, retry: RetryPolicy | None = None):
        """Run one logical API call under the breaker + retry policy.

        ``retry`` overrides the client's policy for this call.  ``fn``
        must be safe to invoke repeatedly under it — every retried
        endpoint is idempotent by construction (see the module
        docstring).
        """
        policy = self.retry if retry is None else retry
        attempt = 1
        while True:
            if self.breaker is not None:
                try:
                    self.breaker.allow()
                except CircuitOpenError as exc:
                    raise GatewayCircuitOpenError(
                        str(exc), exc.retry_after) from None
            try:
                result = fn()
            except GatewayClientError as exc:
                if self.breaker is not None:
                    if self._is_breaker_failure(exc):
                        self.breaker.record_failure()
                    else:
                        self.breaker.record_success()
                if not self._is_retryable(exc) \
                        or attempt >= policy.max_attempts:
                    raise
                self._m_retries.labels(endpoint=endpoint).inc()
                pause = policy.delay(attempt)
                if pause > 0:
                    _time.sleep(pause)
                attempt += 1
                continue
            if self.breaker is not None:
                self.breaker.record_success()
            return result

    # -- API -----------------------------------------------------------------

    def rank(self, announcement: Announcement) -> Alert:
        """Score one announcement; returns the decoded :class:`Alert`."""
        request = RankRequestV1(announcement).to_payload()
        payload = self._call(
            "rank", lambda: self._request("POST", "/v1/rank", request)
        )
        return self._decode(RankResponseV1.decode, payload).alert

    def rank_batch(self,
                   announcements: Sequence[Announcement]) -> list[Alert]:
        """Score a micro-batch in one server-side forward pass."""
        request = RankBatchRequestV1(tuple(announcements)).to_payload()
        payload = self._call(
            "rank_batch",
            lambda: self._request("POST", "/v1/rank/batch", request),
        )
        return list(self._decode(RankBatchResponseV1.decode, payload).alerts)

    def observe(self, announcement: Announcement,
                event_id: str | None = None) -> ObserveResponseV1:
        """Feed a resolved release into the server's history cache.

        The ``event_id`` (minted here when not supplied) is fixed
        *before* the retry loop: a retransmission after a lost response
        carries the same id, the server folds it at most once, and the
        duplicate reply reports ``duplicate=True``.
        """
        if event_id is None:
            event_id = f"cli:{uuid.uuid4().hex}"
        request = ObserveRequestV1(announcement,
                                   event_id=event_id).to_payload()
        payload = self._call(
            "observe", lambda: self._request("POST", "/v1/observe", request)
        )
        return self._decode(ObserveResponseV1.decode, payload)

    def models(self) -> ModelsResponseV1:
        payload = self._call(
            "models", lambda: self._request("GET", "/v1/models")
        )
        return self._decode(ModelsResponseV1.decode, payload)

    def reload(self, ref: str) -> ReloadResponseV1:
        """Hot-swap the serving model to a registry ``name[@version]``.

        Never retried: a reload that timed out may still be swapping
        server-side, and blind retransmission could interleave swaps.
        The breaker still observes the outcome.
        """
        request = ReloadRequestV1(ref).to_payload()
        payload = self._call(
            "reload",
            lambda: self._request("POST", "/v1/models/reload", request),
            retry=NO_RETRY,
        )
        return self._decode(ReloadResponseV1.decode, payload)

    def healthz(self) -> HealthResponseV1:
        payload = self._call(
            "healthz", lambda: self._request("GET", "/v1/healthz")
        )
        return self._decode(HealthResponseV1.decode, payload)

    def stats(self) -> StatsResponseV1:
        payload = self._call(
            "stats", lambda: self._request("GET", "/v1/stats")
        )
        return self._decode(StatsResponseV1.decode, payload)

    def metrics_text(self) -> str:
        """Raw Prometheus text exposition from ``GET /v1/metrics``."""
        status, raw = self._transport("GET", "/v1/metrics", None,
                                      {"Accept": "text/plain"})
        if status >= 400:
            self._raise_envelope(status, raw)
        return raw.decode("utf-8")

    def recent_traces(self, limit: int | None = None) -> list[dict]:
        """Most-recent-first span trees from ``GET /v1/trace/recent``."""
        path = "/v1/trace/recent"
        if limit is not None:
            path += f"?limit={int(limit)}"
        payload = self._call("traces", lambda: self._request("GET", path))
        return list(self._decode(TraceResponseV1.decode, payload).traces)


__all__ = [
    "DEFAULT_TIMEOUT",
    "RETRYABLE_STATUSES",
    "SCHEMA_VERSION",
    "GatewayClient",
    "GatewayCircuitOpenError",
    "GatewayClientError",
    "GatewayConnectionError",
    "GatewayRequestError",
    "GatewayTimeoutError",
]
