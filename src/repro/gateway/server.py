"""Stdlib HTTP transport for the gateway (``http.server``, no new deps).

:class:`GatewayHTTPServer` is a :class:`ThreadingHTTPServer` whose handler
routes the versioned ``/v1/...`` endpoints to a :class:`GatewayApp`.  The
transport layer owns exactly four jobs — routing, body decoding, response
encoding and request telemetry — and converts every failure into the
uniform error envelope: a :class:`GatewayFault` keeps its stable code and
status, any other exception becomes a 500 ``internal`` envelope (never a
traceback on the wire).

Telemetry contract (see :mod:`repro.telemetry`):

* every request runs under a root span named ``"<METHOD> <path>"``; the
  trace id comes from the client's ``X-Repro-Trace-Id`` header when
  present (sanitized), else is freshly generated;
* every response — success *and* error envelope — carries
  ``X-Repro-Trace-Id`` and ``X-Repro-Duration-Ms`` headers;
* every request increments ``gateway_requests_total{endpoint,status}``
  and observes ``gateway_request_seconds{endpoint}``; error envelopes
  additionally count ``gateway_errors_total{code}`` and emit one
  structured JSON log line;
* finished traces land in the hub's :class:`TraceStore` ring — except
  scrapes of ``/v1/metrics`` and ``/v1/trace/recent`` themselves, which
  would otherwise evict the interesting traces they came to read.

``serve_in_thread`` backs the tests and benchmarks; the blocking
``serve_forever`` path backs ``repro gateway``.
"""

from __future__ import annotations

import threading
import time
import traceback
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.gateway.app import GatewayApp
from repro.gateway.schema import (
    DEADLINE_HEADER,
    E_METHOD_NOT_ALLOWED,
    E_NOT_FOUND,
    E_OVERLOADED,
    E_PAYLOAD_TOO_LARGE,
    GatewayFault,
    ObserveRequestV1,
    RankBatchRequestV1,
    RankRequestV1,
    ReloadRequestV1,
    bad_request,
    decode_json_body,
    encode_body,
    error_envelope,
    internal_error,
)
from repro.resilience import AdmissionQueue, Deadline, deadline_scope
from repro.telemetry import (
    DURATION_HEADER,
    TRACE_HEADER,
    new_trace_id,
    sanitize_trace_id,
    start_trace,
)

#: Raw request bodies beyond this fail with ``payload_too_large`` before
#: any JSON parsing — a gateway facing the open internet must bound reads.
MAX_BODY_BYTES = 8 * 1024 * 1024


def _parse_limit(query: dict) -> int | None:
    """``?limit=N`` for ``/v1/trace/recent`` (last value wins)."""
    values = query.get("limit")
    if not values:
        return None
    try:
        limit = int(values[-1])
    except ValueError:
        raise bad_request("limit must be an integer") from None
    if limit < 0:
        raise bad_request("limit must be >= 0")
    return limit


# Route handlers take (app, payload, query).  A handler returning ``str``
# is served as plain text (the Prometheus exposition); everything else is
# a schema response object whose ``encode()`` gives the body bytes.
_GET_ROUTES = {
    "/v1/healthz": lambda app, _payload, _query: app.healthz(),
    "/v1/stats": lambda app, _payload, _query: app.stats(),
    "/v1/models": lambda app, _payload, _query: app.models(),
    "/v1/metrics": lambda app, _payload, _query: app.metrics_text(),
    "/v1/trace/recent": lambda app, _payload, query: app.trace_recent(
        _parse_limit(query)),
}

_POST_ROUTES = {
    "/v1/rank": lambda app, payload, _query: app.rank(
        RankRequestV1.decode(payload)),
    "/v1/rank/batch": lambda app, payload, _query: app.rank_batch(
        RankBatchRequestV1.decode(payload)),
    "/v1/observe": lambda app, payload, _query: app.observe(
        ObserveRequestV1.decode(payload)),
    "/v1/models/reload": lambda app, payload, _query: app.reload(
        ReloadRequestV1.decode(payload)),
}

# Scrape endpoints: still traced (headers, timing) but not archived in
# the TraceStore — a metrics poller must not evict real request traces.
_UNSTORED_PATHS = frozenset({"/v1/metrics", "/v1/trace/recent"})

# Endpoints subject to admission control and drain refusal: the ones that
# reach the model or mutate serving state.  Health probes, metric scrapes
# and introspection must keep answering under overload and during drain —
# that is when operators need them most.
_SHEDDABLE_PATHS = frozenset({"/v1/rank", "/v1/rank/batch", "/v1/observe"})


def _endpoint_label(path: str) -> str:
    """Bound the ``endpoint`` label to known routes (cardinality guard)."""
    if path in _GET_ROUTES or path in _POST_ROUTES:
        return path
    return "other"


class _GatewayHandler(BaseHTTPRequestHandler):
    server_version = "repro-gateway/1"
    protocol_version = "HTTP/1.1"
    # Socket read timeout: a client that stalls mid-headers or sends fewer
    # body bytes than its Content-Length must not pin a handler thread
    # forever — size alone (MAX_BODY_BYTES) does not bound time.
    timeout = 60
    # Keep-alive responses go out as head + body segments; without
    # TCP_NODELAY, Nagle + delayed ACK can hold the body ~40 ms on a
    # reused connection.
    disable_nagle_algorithm = True

    @property
    def app(self) -> GatewayApp:
        return self.server.app  # type: ignore[attr-defined]

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:
        # Stdlib internals (send_error, socket chatter) routed through the
        # structured logger instead of bare stderr prints.
        if getattr(self.server, "verbose", False):
            self.app.telemetry.logger.debug("http", detail=format % args)

    def log_request(self, code="-", size="-") -> None:
        # Access logging is handled (structured, with trace ids) at the
        # end of _dispatch; suppress the stdlib per-response line.
        pass

    def _telemetry_headers(self) -> list[tuple[str, str]]:
        started = getattr(self, "_trace_started", None)
        elapsed_ms = 0.0 if started is None \
            else (time.perf_counter() - started) * 1000.0
        trace_id = getattr(self, "_trace_id", None) or new_trace_id()
        return [(TRACE_HEADER, trace_id),
                (DURATION_HEADER, f"{elapsed_ms:.3f}")]

    def _send_bytes(self, status: int, content_type: str,
                    data: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for name, value in self._telemetry_headers():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _send_json(self, status: int, body: bytes) -> None:
        self._send_bytes(status, "application/json", body)

    def _send_text(self, status: int, text: str) -> None:
        self._send_bytes(status, "text/plain; version=0.0.4; charset=utf-8",
                         text.encode("utf-8"))

    def _read_body(self) -> bytes:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self.close_connection = True
            raise bad_request("Content-Length header is not a number") \
                from None
        if length < 0:
            # read(-1) would block until client EOF, pinning the handler
            # thread; refuse and drop the (unreadable) connection.
            self.close_connection = True
            raise bad_request("Content-Length header must be non-negative")
        if length > MAX_BODY_BYTES:
            # The body stays unread, so this keep-alive connection cannot
            # be reused — close it instead of misparsing the remainder.
            self.close_connection = True
            raise GatewayFault(
                E_PAYLOAD_TOO_LARGE, 413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        return self.rfile.read(length) if length else b""

    def _parse_deadline(self) -> Deadline | None:
        """The request's deadline budget, from header or server default."""
        raw = self.headers.get(DEADLINE_HEADER)
        if raw is None:
            default_ms = getattr(self.server, "deadline_ms", None)
            if default_ms is None:
                return None
            return Deadline.after_ms(default_ms)
        try:
            milliseconds = float(raw)
        except ValueError:
            raise bad_request(
                f"{DEADLINE_HEADER} must be a number of milliseconds"
            ) from None
        if not milliseconds > 0:  # also rejects NaN
            raise bad_request(f"{DEADLINE_HEADER} must be > 0")
        return Deadline.after_ms(milliseconds)

    def _admit(self, path: str) -> bool:
        """Admission control for sheddable paths; True when a matching
        ``leave()`` is owed.

        Runs *after* the body is read: refusing with unread body bytes
        would desync the keep-alive connection.  Shedding closes the
        connection anyway — an overloaded gateway should not hold idle
        sockets open for clients it just turned away.
        """
        if path not in _SHEDDABLE_PATHS:
            return False
        app = self.app
        if getattr(self.server, "draining", False):
            app.record_shed("draining")
            self.close_connection = True
            raise GatewayFault(
                E_OVERLOADED, 429,
                "gateway is draining for shutdown; retry elsewhere",
            )
        queue = getattr(self.server, "admission", None)
        if queue is None:
            return False
        if not queue.try_enter():
            app.record_shed("overloaded")
            self.close_connection = True
            raise GatewayFault(
                E_OVERLOADED, 429,
                f"gateway is at its in-flight limit ({queue.limit}); "
                "back off and retry",
            )
        return True

    def _dispatch(self, routes, other_routes) -> None:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        query = parse_qs(urlsplit(self.path).query)
        app = self.app
        hub = app.telemetry
        self._trace_started = time.perf_counter()
        self._trace_id = sanitize_trace_id(self.headers.get(TRACE_HEADER))
        store = None if path in _UNSTORED_PATHS else hub.traces
        status = 500
        trace = start_trace(f"{self.command} {path}",
                            trace_id=self._trace_id, store=store,
                            endpoint=path, method=self.command)
        # The response is buffered and written only after the trace is
        # archived and the metrics recorded: the moment a client sees the
        # reply, its trace is scrapeable (no bookkeeping race).
        reply = None  # (status, send-method, payload)
        with trace as root:
            try:
                # Drain the body before routing: a 404/405 that left it
                # unread would be misparsed as the keep-alive connection's
                # next request line.
                body = self._read_body()
                handler = routes.get(path)
                if handler is None:
                    if path in other_routes:
                        raise GatewayFault(
                            E_METHOD_NOT_ALLOWED, 405,
                            f"{self.command} is not allowed on {path}",
                        )
                    raise GatewayFault(E_NOT_FOUND, 404,
                                       f"no such endpoint: {path}")
                admitted = self._admit(path)
                try:
                    payload = None
                    if routes is _POST_ROUTES:
                        payload = decode_json_body(body)
                    with deadline_scope(self._parse_deadline()):
                        response = handler(app, payload, query)
                finally:
                    if admitted:
                        self.server.admission.leave()
                status = 200
                if isinstance(response, str):
                    reply = (200, self._send_text, response)
                else:
                    reply = (200, self._send_json, response.encode())
            except GatewayFault as fault:
                status = fault.status
                self._record_fault(path, fault)
                reply = (fault.status, self._send_json,
                         encode_body(error_envelope(fault)))
            except ConnectionError:  # pragma: no cover - client went away
                status = 0
            except Exception as exc:  # noqa: BLE001 - boundary: envelope, not trace
                self.close_connection = True
                fault = internal_error(exc, (self._trace_id,))
                self._record_fault(path, fault)
                reply = (500, self._send_json,
                         encode_body(error_envelope(fault)))
            root.set("status", status)
        elapsed = time.perf_counter() - self._trace_started
        app.record_request(_endpoint_label(path), status, elapsed)
        hub.maybe_log_slow(root)
        if getattr(self.server, "verbose", False):
            hub.logger.info(
                "request", method=self.command, path=path, status=status,
                duration_ms=round(elapsed * 1000.0, 3),
                trace_id=self._trace_id,
            )
        try:
            if reply is not None:
                reply_status, send, data = reply
                send(reply_status, data)
        except BrokenPipeError:  # pragma: no cover - client went away
            pass

    def _record_fault(self, path: str, fault: GatewayFault) -> None:
        """One error envelope = one counter bump + one structured line.

        The line for an unexpected exception also carries its message,
        its traceback and the trace ids of every request it failed — once
        per failure, however many coalesced requests it answered.
        """
        app = self.app
        app.count("errors")
        app.record_error(fault.code)
        log = app.telemetry.logger
        emit = log.error if fault.status >= 500 else log.warning
        fields = {
            "code": fault.code, "status": fault.status, "endpoint": path,
            "method": self.command, "message": str(fault),
        }
        cause = fault.take_cause()
        if cause is not None:
            fields["exception"] = type(cause).__name__
            fields["detail"] = str(cause)
            fields["traceback"] = "".join(traceback.format_exception(
                type(cause), cause, cause.__traceback__))
            fields["trace_ids"] = list(fault.trace_ids)
        emit("gateway_error", **fields)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(_GET_ROUTES, _POST_ROUTES)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch(_POST_ROUTES, _GET_ROUTES)

    def _reject_method(self) -> None:
        """Any other verb: the envelope contract still applies (the stdlib
        default would answer with an HTML 501 page).  405 on known paths,
        404 on unknown ones."""
        if self.command == "HEAD":
            # A HEAD reply must not carry a body; ours does (the envelope),
            # so drop the connection rather than desync the client parser.
            self.close_connection = True
        self._dispatch({}, {**_GET_ROUTES, **_POST_ROUTES})

    do_PUT = do_DELETE = do_PATCH = do_HEAD = do_OPTIONS = _reject_method


class GatewayHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`GatewayApp`.

    Resilience knobs (ISSUE 7):

    * ``max_inflight`` bounds concurrently *served* rank/observe requests
      via an :class:`AdmissionQueue`; excess requests get a fast 429
      ``overloaded`` envelope instead of queueing behind the model.
    * ``deadline_ms`` is a default per-request budget applied when the
      client sends no ``X-Repro-Deadline-Ms`` header; expired budgets
      answer 503 ``deadline_exceeded`` before scoring starts.
    * :meth:`begin_drain` / :meth:`wait_drained` implement graceful
      shutdown: new work is refused (sheddable paths answer 429 with the
      connection closed) while in-flight requests run to completion.
    """

    daemon_threads = True

    def __init__(self, address: tuple[str, int], app: GatewayApp,
                 verbose: bool = False, max_inflight: int | None = None,
                 deadline_ms: float | None = None,
                 listen_socket=None):
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError("deadline_ms must be > 0 (or None)")
        if listen_socket is None:
            super().__init__(address, _GatewayHandler)
        else:
            # Adopt a pre-bound, already-listening socket (the pool binds
            # with SO_REUSEPORT before forking workers).  Skip the stdlib
            # bind/activate, close the socket it would have created, and
            # fill in the attributes server_bind() normally derives —
            # without the getfqdn() call, which can stall on slow DNS.
            super().__init__(address, _GatewayHandler,
                             bind_and_activate=False)
            self.socket.close()
            self.socket = listen_socket
            self.server_address = listen_socket.getsockname()
            host, port = self.server_address[:2]
            self.server_name = host
            self.server_port = port
        self.app = app
        self.verbose = verbose
        self.admission = AdmissionQueue(max_inflight)
        self.deadline_ms = deadline_ms
        self.draining = False

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    # -- graceful shutdown ---------------------------------------------------

    def begin_drain(self) -> None:
        """Stop admitting sheddable work; already-running requests finish.

        A bare ``bool`` flag is enough: handler threads only read it, and
        Python attribute stores are atomic.  Callers follow up with
        :meth:`wait_drained` and then the normal ``shutdown()``.
        """
        self.draining = True

    def wait_drained(self, timeout: float | None = None) -> bool:
        """Block until every admitted request left; True when drained."""
        return self.admission.drain(timeout)


def make_server(app: GatewayApp, host: str = "127.0.0.1",
                port: int = 0, verbose: bool = False,
                max_inflight: int | None = None,
                deadline_ms: float | None = None,
                listen_socket=None) -> GatewayHTTPServer:
    """Bind a gateway server (``port=0`` picks a free port).

    ``listen_socket`` hands over a pre-bound listening socket (worker
    pool); ``host``/``port`` are then ignored for binding.
    """
    return GatewayHTTPServer((host, port), app, verbose=verbose,
                             max_inflight=max_inflight,
                             deadline_ms=deadline_ms,
                             listen_socket=listen_socket)


def serve_in_thread(app: GatewayApp, host: str = "127.0.0.1",
                    port: int = 0, **server_kwargs) -> tuple[
                        GatewayHTTPServer, threading.Thread]:
    """Start a gateway in a daemon thread; caller shuts the server down.

    Keyword arguments (``max_inflight``, ``deadline_ms``, ``verbose``)
    pass through to :func:`make_server`.
    """
    server = make_server(app, host, port, **server_kwargs)
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-gateway", daemon=True)
    thread.start()
    return server, thread
