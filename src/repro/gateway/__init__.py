"""repro.gateway — the versioned HTTP/JSON serving surface.

Everything in-process serving can do, over a wire protocol (ISSUE 5):
``POST /v1/rank`` and ``/v1/rank/batch`` score announcements through the
micro-batched :class:`~repro.serving.PredictionService`,
``POST /v1/observe`` feeds channel history, ``GET /v1/models`` +
``POST /v1/models/reload`` list and hot-swap
:class:`~repro.registry.ModelRegistry` artifacts with zero dropped
requests, and ``GET /v1/healthz`` / ``GET /v1/stats`` expose liveness and
:class:`~repro.serving.ServiceStats`.

Observability (ISSUE 6): ``GET /v1/metrics`` serves the Prometheus text
exposition of every registry the gateway can see, ``GET /v1/trace/recent``
returns recent span trees, every response carries ``X-Repro-Trace-Id`` and
``X-Repro-Duration-Ms`` headers, and errors are logged as structured JSON
(see :mod:`repro.telemetry`).

Layers
------
``schema``  — wire-schema version, typed request/response dataclasses,
              strict decode, stable error codes (:data:`ERROR_CODES`).
``app``     — :class:`GatewayApp`: transport-free endpoint logic over
              one service whose model is swapped atomically on reload.
              Every ranked announcement, from ``/v1/rank`` or
              ``/v1/rank/batch``, passes one gate under the scoring lock.
``server``  — :class:`GatewayHTTPServer` (stdlib ``ThreadingHTTPServer``)
              plus :func:`make_server` / :func:`serve_in_thread`.
``client``  — :class:`GatewayClient`: the Python SDK; decodes responses
              through the shared ``from_payload`` codecs (rankings
              straight into arrays), and retries transient failures
              under a
              :class:`~repro.resilience.RetryPolicy` (ISSUE 7).
``replay``  — :func:`replay_against_gateway`: drive a remote gateway from
              a locally replayed message stream (``repro serve
              --gateway``) through the in-process
              :class:`~repro.serving.StreamEngine`, with
              :func:`remote_ranker` scoring over the wire.
``microbatch`` — :class:`MicroBatcher`: coalesce concurrent ``/v1/rank``
              requests across connections into one forward pass.  Every
              ``/v1/rank`` goes through it: requests that queue while
              another holds the scoring lock share its next flush.
``pool``    — :func:`worker_serve`: the one worker loop every gateway
              serves through, on one BLAS thread, in-process for
              ``--workers 1``; with
              :func:`bind_pool_sockets` / :func:`run_pool`, the
              ``--workers N`` pre-fork worker pool with crash
              supervision, SIGTERM fan-out and pool-level metrics
              aggregation.
"""

from repro.gateway.app import DEFAULT_MAX_BATCH, GatewayApp, describe_model
from repro.gateway.microbatch import MicroBatcher
from repro.gateway.pool import (
    PoolMetrics,
    bind_pool_sockets,
    run_pool,
    worker_serve,
)
from repro.gateway.client import (
    DEFAULT_TIMEOUT,
    RETRYABLE_STATUSES,
    GatewayCircuitOpenError,
    GatewayClient,
    GatewayClientError,
    GatewayConnectionError,
    GatewayRequestError,
    GatewayTimeoutError,
)
from repro.gateway.replay import remote_ranker, replay_against_gateway
from repro.gateway.schema import (
    DEADLINE_HEADER,
    ERROR_CODES,
    SCHEMA_VERSION,
    GatewayFault,
    TraceResponseV1,
    error_envelope,
)
from repro.telemetry import DURATION_HEADER, TRACE_HEADER
from repro.gateway.server import (
    GatewayHTTPServer,
    make_server,
    serve_in_thread,
)

__all__ = [
    "SCHEMA_VERSION", "ERROR_CODES", "GatewayFault", "error_envelope",
    "GatewayApp", "describe_model", "DEFAULT_MAX_BATCH",
    "GatewayHTTPServer", "make_server", "serve_in_thread",
    "GatewayClient", "GatewayClientError", "GatewayConnectionError",
    "GatewayRequestError", "GatewayTimeoutError", "GatewayCircuitOpenError",
    "DEFAULT_TIMEOUT", "RETRYABLE_STATUSES",
    "remote_ranker", "replay_against_gateway",
    "TraceResponseV1", "TRACE_HEADER", "DURATION_HEADER",
    "DEADLINE_HEADER",
    "MicroBatcher",
    "PoolMetrics", "bind_pool_sockets", "run_pool", "worker_serve",
]
