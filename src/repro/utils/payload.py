"""Strict readers for JSON-decoded payloads, and the compact writer.

Every ``from_payload`` codec (rankings, alerts, announcements, the gateway
wire schema) funnels field access through these helpers so a malformed
payload fails with a pointed ``ValueError`` naming the field and the
expected type — the gateway maps that message verbatim into a 4xx error
envelope, and a wrong type can never flow onward as a wrong score.

``bool`` is deliberately rejected where a number is expected: JSON
``true`` decoding into channel id 1 would be exactly the kind of silent
coercion this layer exists to stop.

On the way out, :func:`compact_json` is the one JSON writer of the wire
and the event log, and :func:`json_strings` memoizes string literals for
hand-written encoders of hot payloads (:meth:`Ranking.to_json
<repro.core.predictor.Ranking.to_json>`).
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii

_MISSING = object()

#: ``json.dumps(value, separators=(",", ":"))`` without building an
#: encoder per call.
compact_json = json.JSONEncoder(separators=(",", ":")).encode

#: Distinct strings :func:`json_strings` remembers before starting over —
#: far above any coin catalog, so a server escapes each symbol once.
_LITERALS_CAPACITY = 1 << 16


class _Literals(dict):
    """``text -> json.dumps(text)``, computed on first use."""

    def __missing__(self, text: str) -> str:
        if len(self) >= _LITERALS_CAPACITY:
            self.clear()
        literal = self[text] = encode_basestring_ascii(text)
        return literal


_LITERALS = _Literals()


def json_strings(texts) -> list[str]:
    """The JSON string literal of each text, as ``json.dumps`` writes it."""
    return list(map(_LITERALS.__getitem__, texts))


def _get(payload: dict, key: str, default):
    if not isinstance(payload, dict):
        raise ValueError(f"expected an object with field {key!r}")
    value = payload.get(key, _MISSING)
    if value is _MISSING:
        if default is _MISSING:
            raise ValueError(f"missing required field {key!r}")
        return default
    return value


def payload_int(payload: dict, key: str, default=_MISSING) -> int:
    """An integer field (floats with integral values are accepted)."""
    value = _get(payload, key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"field {key!r} must be an integer, "
                         f"got {type(value).__name__}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"field {key!r} must be an integer, got {value!r}")
    return int(value)


def payload_float(payload: dict, key: str, default=_MISSING) -> float:
    """A finite JSON number field."""
    value = _get(payload, key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"field {key!r} must be a number, "
                         f"got {type(value).__name__}")
    try:
        value = float(value)
    except OverflowError:  # an int past float64's range
        raise ValueError(f"field {key!r} is out of range for a "
                         "float64") from None
    if not math.isfinite(value):
        raise ValueError(f"field {key!r} must be finite, got {value!r}")
    return value


def payload_str(payload: dict, key: str, default=_MISSING) -> str:
    value = _get(payload, key, default)
    if not isinstance(value, str):
        raise ValueError(f"field {key!r} must be a string, "
                         f"got {type(value).__name__}")
    return value


def payload_list(payload: dict, key: str, default=_MISSING) -> list:
    value = _get(payload, key, default)
    if not isinstance(value, list):
        raise ValueError(f"field {key!r} must be an array, "
                         f"got {type(value).__name__}")
    return value


def payload_object(payload: dict, key: str, default=_MISSING) -> dict:
    value = _get(payload, key, default)
    if not isinstance(value, dict):
        raise ValueError(f"field {key!r} must be an object, "
                         f"got {type(value).__name__}")
    return value
