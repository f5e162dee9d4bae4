"""The gateway wire schema: versioned request/response types + error codes.

Schema-version policy
---------------------
Every request and response body is a JSON object carrying
``"schema_version"``.  The version is a single integer, bumped only for
*incompatible* changes (a renamed/removed field, a changed meaning);
purely additive fields do not bump it.  The server accepts exactly
:data:`SCHEMA_VERSION` — a request from a newer or older client fails
with the stable error code ``unsupported_schema_version`` instead of
being half-understood, mirroring how :mod:`repro.registry` treats
artifact schema mismatches: **never a stack trace, never a wrong score**.
Responses (including error envelopes) always state the server's version
so a client can diagnose the mismatch.

Decode layer
------------
``decode_*`` functions turn raw HTTP bodies into typed request
dataclasses.  Any malformed input — invalid JSON, a missing field, a
mistyped field, an unknown schema version — raises :class:`GatewayFault`
with a stable machine-readable ``code`` and the HTTP status the server
should answer with; :func:`error_envelope` renders the fault as the
uniform error body::

    {"schema_version": 1, "error": {"code": "...", "message": "..."}}

The payload codecs themselves live on the domain types
(:meth:`Announcement.to_payload`, :meth:`Ranking.to_payload`,
:meth:`Alert.to_payload` and their ``from_payload`` duals), shared by the
server and the client SDK.  Every typed response has one ``encode()`` to
its body bytes: compact JSON of ``to_payload()``.  The two rank responses
write each alert's :attr:`~repro.serving.service.Alert.wire_json` — one
encoder straight from the ranking's columns, run once per alert and
shared with the event log — and their bytes equal
``json.dumps(to_payload(), separators=(",", ":"))`` exactly, so the
schema version is unchanged.  Floats go through ``repr`` on both paths:
rankings survive the wire bit-for-bit.

Observability endpoints (ISSUE 6)
---------------------------------
``GET /v1/trace/recent`` is a normal versioned JSON endpoint
(:class:`TraceResponseV1`); individual span-tree *fields* follow the
additive rule like any other payload.  ``GET /v1/metrics`` is the one
deliberate exception to the JSON envelope: it speaks Prometheus text
exposition format (version 0.0.4), which carries its own compatibility
contract — series may be *added* freely, but renaming or re-labelling an
existing series is a breaking change governed by the metric naming
conventions in the README's "Observability" section, not by
``schema_version``.  Error responses on both endpoints still use the
uniform JSON envelope.  Every response on every endpoint carries
``X-Repro-Trace-Id`` (echoing the request's id, if it sent one) and
``X-Repro-Duration-Ms`` headers; both are additive metadata outside the
schema version.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.serving.online import Announcement
from repro.serving.service import Alert
from repro.utils.payload import (
    compact_json,
    payload_float,
    payload_int,
    payload_list,
    payload_object,
    payload_str,
)

#: Wire-schema version this server/client pair speaks (see policy above).
SCHEMA_VERSION = 1

# -- stable error codes (the machine-readable contract) -----------------------

E_BAD_JSON = "bad_json"                          # 400: body is not JSON
E_BAD_REQUEST = "bad_request"                    # 400: missing/mistyped field
E_UNSUPPORTED_SCHEMA = "unsupported_schema_version"   # 400
E_UNKNOWN_CHANNEL = "unknown_channel"            # 422: untrained channel
E_NO_CANDIDATES = "no_candidates"                # 422: nothing listed
E_NO_MARKET_DATA = "no_market_data"              # 422: no candles at time
E_BATCH_TOO_LARGE = "batch_too_large"            # 413
E_PAYLOAD_TOO_LARGE = "payload_too_large"        # 413: raw body cap
E_UNKNOWN_MODEL = "unknown_model"                # 404: reload ref not found
E_BAD_ARTIFACT = "bad_artifact"                  # 409: reload target corrupt
E_NO_REGISTRY = "no_registry"                    # 409: gateway has no registry
E_NOT_FOUND = "not_found"                        # 404: unknown route
E_METHOD_NOT_ALLOWED = "method_not_allowed"      # 405
E_INTERNAL = "internal"                          # 500
E_OVERLOADED = "overloaded"                      # 429: admission bound hit
E_DEADLINE_EXCEEDED = "deadline_exceeded"        # 503: request budget spent

#: Every code a conforming server may emit — pinned by tests so clients
#: can switch on them without chasing a moving target.
ERROR_CODES = frozenset({
    E_BAD_JSON, E_BAD_REQUEST, E_UNSUPPORTED_SCHEMA, E_UNKNOWN_CHANNEL,
    E_NO_CANDIDATES, E_NO_MARKET_DATA, E_BATCH_TOO_LARGE, E_PAYLOAD_TOO_LARGE,
    E_UNKNOWN_MODEL, E_BAD_ARTIFACT, E_NO_REGISTRY, E_NOT_FOUND,
    E_METHOD_NOT_ALLOWED, E_INTERNAL, E_OVERLOADED, E_DEADLINE_EXCEEDED,
})

#: Optional per-request deadline budget, in milliseconds (additive
#: metadata like the trace headers).  The server refuses to *start*
#: expensive work once the budget is spent and answers 503
#: ``deadline_exceeded`` — the client has already given up, so finishing
#: the work would only burn capacity nobody collects.
DEADLINE_HEADER = "X-Repro-Deadline-Ms"


class GatewayFault(Exception):
    """A request the gateway refuses, as a (code, HTTP status, message).

    A fault standing for an unexpected exception (see
    :func:`internal_error`) also keeps that exception and the trace ids of
    the requests it failed, for the server log only — never on the wire.
    """

    def __init__(self, code: str, status: int, message: str, *,
                 cause: BaseException | None = None,
                 trace_ids: tuple[str, ...] = ()):
        # Registration is enforced statically by `repro lint` (WIRE001);
        # this debug-build check only catches codes built at runtime,
        # which the linter cannot see.  Stripped under `python -O`.
        if __debug__ and code not in ERROR_CODES:
            raise AssertionError(f"unregistered error code {code!r}")
        super().__init__(message)
        self.code = code
        self.status = status
        self.message = message
        self.trace_ids = trace_ids
        self._causes = [cause] if cause is not None else []

    def take_cause(self) -> BaseException | None:
        """The exception behind this fault, to its first caller only.

        One micro-batch failure answers every request of the flush with
        the same fault; ``list.pop`` is atomic, so exactly one of their
        handler threads logs the traceback.
        """
        try:
            return self._causes.pop()
        except IndexError:
            return None


def internal_error(exc: BaseException,
                   trace_ids: tuple[str, ...] = ()) -> GatewayFault:
    """The 500 for an unexpected exception: the wire names only its type;
    the exception itself rides along for the server log."""
    return GatewayFault(
        E_INTERNAL, 500,
        f"internal error ({type(exc).__name__}); see server logs",
        cause=exc, trace_ids=trace_ids,
    )


def error_envelope(fault: GatewayFault) -> dict:
    """The uniform error body every non-2xx response carries."""
    return {
        "schema_version": SCHEMA_VERSION,
        "error": {"code": fault.code, "message": fault.message},
    }


def bad_request(message: str) -> GatewayFault:
    return GatewayFault(E_BAD_REQUEST, 400, message)


def encode_body(payload: dict) -> bytes:
    """A JSON body as the gateway writes it.

    Compact separators: a ranking response is dominated by its scores
    array, and the default ``", "``/``": "`` padding is ~10% of the bytes
    every response pays to encode and ship.
    """
    return compact_json(payload).encode("utf-8")


# -- envelope decoding --------------------------------------------------------


def _reject_constant(name: str):
    # Python's json accepts the non-standard NaN/Infinity tokens by
    # default; a NaN time would silently fail every listing comparison
    # downstream, so refuse them at the door.
    raise ValueError(f"non-finite JSON token {name!r} is not allowed")


def decode_json_body(raw: bytes) -> dict:
    """Parse a request body into a dict or fail with a 400 fault."""
    try:
        payload = json.loads(raw.decode("utf-8"),
                             parse_constant=_reject_constant)
    except (UnicodeDecodeError, ValueError) as exc:
        raise GatewayFault(E_BAD_JSON, 400,
                           f"request body is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise GatewayFault(E_BAD_JSON, 400,
                           "request body must be a JSON object")
    return payload


def check_schema_version(payload: dict) -> None:
    """Reject any request not speaking exactly :data:`SCHEMA_VERSION`."""
    try:
        version = payload_int(payload, "schema_version")
    except ValueError as exc:
        raise bad_request(str(exc)) from None
    if version != SCHEMA_VERSION:
        raise GatewayFault(
            E_UNSUPPORTED_SCHEMA, 400,
            f"unsupported schema_version {version}; this server speaks "
            f"version {SCHEMA_VERSION}",
        )


def _decode_announcement(obj, *, require_coin: bool) -> Announcement:
    try:
        announcement = Announcement.from_payload(obj)
    except ValueError as exc:
        raise bad_request(f"bad announcement: {exc}") from None
    if require_coin and announcement.coin_id < 0:
        raise bad_request(
            "bad announcement: 'coin_id' is required here — observing a "
            "pump with an unknown released coin would poison the history"
        )
    return announcement


# -- typed requests -----------------------------------------------------------


@dataclass(frozen=True)
class RankRequestV1:
    """``POST /v1/rank`` — score one announcement."""

    announcement: Announcement

    def to_payload(self) -> dict:
        return {"schema_version": SCHEMA_VERSION,
                "announcement": self.announcement.to_payload()}

    @classmethod
    def decode(cls, payload: dict) -> "RankRequestV1":
        check_schema_version(payload)
        try:
            obj = payload_object(payload, "announcement")
        except ValueError as exc:
            raise bad_request(str(exc)) from None
        return cls(_decode_announcement(obj, require_coin=False))


@dataclass(frozen=True)
class RankBatchRequestV1:
    """``POST /v1/rank/batch`` — score a micro-batch in one forward pass."""

    announcements: tuple[Announcement, ...]

    def to_payload(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "announcements": [a.to_payload() for a in self.announcements],
        }

    @classmethod
    def decode(cls, payload: dict) -> "RankBatchRequestV1":
        check_schema_version(payload)
        try:
            entries = payload_list(payload, "announcements")
        except ValueError as exc:
            raise bad_request(str(exc)) from None
        announcements = []
        for index, entry in enumerate(entries):
            try:
                announcements.append(
                    _decode_announcement(entry, require_coin=False)
                )
            except GatewayFault as fault:
                raise GatewayFault(
                    fault.code, fault.status,
                    f"announcements[{index}]: {fault.message}",
                ) from None
        return cls(tuple(announcements))


@dataclass(frozen=True)
class ObserveRequestV1:
    """``POST /v1/observe`` — feed a resolved release into the history.

    ``event_id`` (additive, optional) names the observation uniquely so
    retransmissions deduplicate: the server folds a given id at most
    once, however many times a retrying client delivers it.  Omitting it
    keeps the pre-ISSUE-7 at-least-once semantics.
    """

    announcement: Announcement
    event_id: str | None = None

    def to_payload(self) -> dict:
        payload = {"schema_version": SCHEMA_VERSION,
                   "announcement": self.announcement.to_payload()}
        if self.event_id is not None:
            payload["event_id"] = self.event_id
        return payload

    @classmethod
    def decode(cls, payload: dict) -> "ObserveRequestV1":
        check_schema_version(payload)
        try:
            obj = payload_object(payload, "announcement")
            event_id = payload_str(payload, "event_id", default="")
        except ValueError as exc:
            raise bad_request(str(exc)) from None
        return cls(_decode_announcement(obj, require_coin=True),
                   event_id=event_id or None)


@dataclass(frozen=True)
class ReloadRequestV1:
    """``POST /v1/models/reload`` — hot-swap to a registry artifact."""

    ref: str

    def to_payload(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, "ref": self.ref}

    @classmethod
    def decode(cls, payload: dict) -> "ReloadRequestV1":
        check_schema_version(payload)
        try:
            ref = payload_str(payload, "ref")
        except ValueError as exc:
            raise bad_request(str(exc)) from None
        if not ref:
            raise bad_request("field 'ref' must not be empty")
        return cls(ref)


# -- typed responses ----------------------------------------------------------


def _versioned(body: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, **body}


class _Response:
    """Base of the typed responses: one way from ``to_payload()`` to the
    body bytes."""

    def encode(self) -> bytes:
        """The response body: :meth:`to_payload` as compact JSON."""
        return encode_body(self.to_payload())


@dataclass(frozen=True)
class RankResponseV1(_Response):
    alert: Alert

    def to_payload(self) -> dict:
        return _versioned({"alert": self.alert.to_payload()})

    def encode(self) -> bytes:
        return (f'{{"schema_version":{SCHEMA_VERSION},'
                f'"alert":{self.alert.wire_json}}}').encode("utf-8")

    @classmethod
    def decode(cls, payload: dict) -> "RankResponseV1":
        check_schema_version(payload)
        try:
            return cls(Alert.from_payload(payload_object(payload, "alert")))
        except ValueError as exc:
            raise bad_request(f"bad rank response: {exc}") from None


@dataclass(frozen=True)
class RankBatchResponseV1(_Response):
    alerts: tuple[Alert, ...]

    def to_payload(self) -> dict:
        return _versioned({"alerts": [a.to_payload() for a in self.alerts]})

    def encode(self) -> bytes:
        alerts = ",".join(alert.wire_json for alert in self.alerts)
        return (f'{{"schema_version":{SCHEMA_VERSION},'
                f'"alerts":[{alerts}]}}').encode("utf-8")

    @classmethod
    def decode(cls, payload: dict) -> "RankBatchResponseV1":
        check_schema_version(payload)
        try:
            alerts = tuple(
                Alert.from_payload(entry)
                for entry in payload_list(payload, "alerts")
            )
        except ValueError as exc:
            raise bad_request(f"bad batch response: {exc}") from None
        return cls(alerts)


@dataclass(frozen=True)
class ObserveResponseV1(_Response):
    channel_id: int
    history_length: int
    # Additive: True when the event_id had been folded before — a retry
    # landing after the original succeeded.  The history did not grow.
    duplicate: bool = False

    def to_payload(self) -> dict:
        return _versioned({"observed": True, "channel_id": self.channel_id,
                           "history_length": self.history_length,
                           "duplicate": self.duplicate})

    @classmethod
    def decode(cls, payload: dict) -> "ObserveResponseV1":
        check_schema_version(payload)
        try:
            return cls(channel_id=payload_int(payload, "channel_id"),
                       history_length=payload_int(payload, "history_length"),
                       duplicate=bool(payload.get("duplicate", False)))
        except ValueError as exc:
            raise bad_request(f"bad observe response: {exc}") from None


@dataclass(frozen=True)
class ReloadResponseV1(_Response):
    model: dict                      # the now-current model descriptor
    previous: dict | None = None     # what was serving before the swap

    def to_payload(self) -> dict:
        return _versioned({"swapped": True, "model": dict(self.model),
                           "previous": self.previous})

    @classmethod
    def decode(cls, payload: dict) -> "ReloadResponseV1":
        check_schema_version(payload)
        try:
            model = payload_object(payload, "model")
            previous = payload.get("previous")
        except ValueError as exc:
            raise bad_request(f"bad reload response: {exc}") from None
        return cls(model=model, previous=previous)


@dataclass(frozen=True)
class HealthResponseV1(_Response):
    status: str
    model: dict
    uptime_seconds: float
    reloads: int

    def to_payload(self) -> dict:
        return _versioned({
            "status": self.status,
            "model": dict(self.model),
            "uptime_seconds": self.uptime_seconds,
            "reloads": self.reloads,
        })

    @classmethod
    def decode(cls, payload: dict) -> "HealthResponseV1":
        check_schema_version(payload)
        try:
            return cls(
                status=payload_str(payload, "status"),
                model=payload_object(payload, "model", default={}),
                uptime_seconds=payload_float(payload, "uptime_seconds",
                                             default=0.0),
                reloads=payload_int(payload, "reloads", default=0),
            )
        except ValueError as exc:
            raise bad_request(f"bad health response: {exc}") from None


@dataclass(frozen=True)
class StatsResponseV1(_Response):
    service: dict                    # ServiceStats.summary()
    gateway: dict                    # per-endpoint request counters etc.

    def to_payload(self) -> dict:
        return _versioned({"service": dict(self.service),
                           "gateway": dict(self.gateway)})

    @classmethod
    def decode(cls, payload: dict) -> "StatsResponseV1":
        check_schema_version(payload)
        try:
            return cls(service=payload_object(payload, "service"),
                       gateway=payload_object(payload, "gateway"))
        except ValueError as exc:
            raise bad_request(f"bad stats response: {exc}") from None


@dataclass(frozen=True)
class TraceResponseV1(_Response):
    """``GET /v1/trace/recent`` — the last N finished span trees."""

    traces: list = field(default_factory=list)  # TraceStore.recent() dicts

    def to_payload(self) -> dict:
        return _versioned({"traces": list(self.traces)})

    @classmethod
    def decode(cls, payload: dict) -> "TraceResponseV1":
        check_schema_version(payload)
        try:
            return cls(traces=payload_list(payload, "traces"))
        except ValueError as exc:
            raise bad_request(f"bad trace response: {exc}") from None


@dataclass(frozen=True)
class ModelsResponseV1(_Response):
    registry: str | None             # registry root, or None if unconfigured
    current: dict                    # descriptor of the model now serving
    models: list = field(default_factory=list)   # registry_payload()["models"]

    def to_payload(self) -> dict:
        return _versioned({"registry": self.registry,
                           "current": dict(self.current),
                           "models": list(self.models)})

    @classmethod
    def decode(cls, payload: dict) -> "ModelsResponseV1":
        check_schema_version(payload)
        try:
            return cls(
                registry=payload.get("registry"),
                current=payload_object(payload, "current"),
                models=payload_list(payload, "models"),
            )
        except ValueError as exc:
            raise bad_request(f"bad models response: {exc}") from None
