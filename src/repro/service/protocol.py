"""The newline-delimited-JSON wire protocol of the query service.

One request or response per line, UTF-8 JSON, ``\\n``-terminated.  Requests
carry a client-chosen ``id`` echoed verbatim in the response, so a client
may pipeline many queries over one connection and match replies by id.

Request ops:

* ``{"id", "op": "query", "cache", "sql", "client"?}`` — execute TRAPP SQL;
* ``{"id", "op": "ping"}`` — liveness probe, echoes the server clock;
* ``{"id", "op": "hello", "client"}`` — set the connection's client id;
* ``{"id", "op": "metrics", "format"?: "text"}`` — the telemetry registry
  snapshot (or its Prometheus text exposition);
* ``{"id", "op": "trace", "limit"?, "client"?}`` — recent query spans.

Responses are ``{"id", "ok": true, ...}`` or
``{"id", "ok": false, "error": {"kind", "message"}}`` where ``kind`` is
the server-side exception class name (``AdmissionError``, ...).
"""

from __future__ import annotations

import json

from repro.core.answer import BoundedAnswer
from repro.errors import WireProtocolError

__all__ = [
    "MAX_LINE_BYTES",
    "encode",
    "decode",
    "json_number",
    "json_safe",
    "answer_payload",
    "error_payload",
]

#: Upper bound on one protocol line; a longer line is a protocol error
#: (it would otherwise buffer without limit).
MAX_LINE_BYTES = 1 << 20


def encode(message: dict) -> bytes:
    """Serialize one protocol message to a terminated wire line.

    ``allow_nan=False`` keeps the output strict JSON — non-finite floats
    must be mapped to the string sentinels first (see
    :func:`json_number`), or encoding raises instead of emitting bare
    ``Infinity`` tokens no standards-compliant peer can parse.
    """
    return (
        json.dumps(message, separators=(",", ":"), allow_nan=False).encode("utf-8")
        + b"\n"
    )


def json_number(value: float) -> "float | str":
    """A float as strict JSON: finite values unchanged, non-finite ones
    as the strings ``"inf"`` / ``"-inf"`` / ``"nan"`` (round-trippable
    via ``float()``, which the bundled client applies anyway)."""
    if value != value or value in (float("inf"), float("-inf")):
        return str(value)
    return value


def json_safe(value):
    """A document with every non-finite float mapped via :func:`json_number`.

    The ``metrics``/``trace`` ops ship nested payloads built from live
    telemetry (span fields, histogram sums) where an infinite width or
    timestamp is legal; this walks them once so strict :func:`encode`
    never trips on a bare ``Infinity``.
    """
    if isinstance(value, float):
        return json_number(value)
    if isinstance(value, dict):
        return {key: json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    return value


def decode(line: bytes) -> dict:
    """Parse one wire line; raises :class:`WireProtocolError` if malformed."""
    if len(line) > MAX_LINE_BYTES:
        raise WireProtocolError(
            f"protocol line exceeds {MAX_LINE_BYTES} bytes"
        )
    try:
        message = json.loads(line)
    except ValueError as exc:
        raise WireProtocolError(f"undecodable protocol line: {exc}") from None
    if not isinstance(message, dict):
        raise WireProtocolError(
            f"protocol messages must be JSON objects, got {type(message).__name__}"
        )
    return message


def answer_payload(answer: BoundedAnswer, cached: bool) -> dict:
    """The JSON shape of one bounded answer.

    Endpoints can be infinite (e.g. MIN over an empty predicate match
    with no ``WITHIN``), so every float goes through :func:`json_number`.
    """
    payload = {
        "lo": json_number(answer.bound.lo),
        "hi": json_number(answer.bound.hi),
        "width": json_number(answer.width),
        "exact": answer.is_exact,
        "refreshed": sorted(answer.refreshed),
        "refresh_cost": json_number(answer.refresh_cost),
        "cached": cached,
    }
    if answer.degraded:
        payload["degraded"] = True
        payload["unreachable_sources"] = list(answer.unreachable_sources)
    return payload


def error_payload(exc: BaseException) -> dict:
    return {"kind": type(exc).__name__, "message": str(exc)}
