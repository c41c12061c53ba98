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

Both directions are strict JSON: a non-finite number is neither sent
(:func:`json_number`) nor accepted (:func:`decode`).
"""

from __future__ import annotations

import json
from typing import NamedTuple

from repro.core.answer import BoundedAnswer
from repro.errors import WireProtocolError

__all__ = [
    "MAX_LINE_BYTES",
    "EncodedAnswer",
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


#: The one encoder of every reply: ``json.dumps`` with these arguments
#: would build a new one per call.  ``allow_nan=False`` keeps the output
#: strict JSON — non-finite floats must be mapped to the string sentinels
#: first (see :func:`json_number`), or encoding raises instead of emitting
#: bare ``Infinity`` tokens no standards-compliant peer can parse.
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def encode(message: dict) -> bytes:
    """Serialize one protocol message to a terminated wire line (the bytes
    ``json.dumps(message, separators=(",", ":"), allow_nan=False)`` gives)."""
    return _ENCODER.encode(message).encode("utf-8") + b"\n"


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


def _finite(literal: str) -> float:
    value = float(literal)
    if value - value != 0.0:
        raise ValueError(f"number {literal} does not fit a finite float")
    return value


def _no_constant(name: str) -> float:
    raise ValueError(f"{name} is not a JSON number")


#: The one decoder of every line.  ``json.loads`` takes ``NaN``,
#: ``Infinity`` and an overflowing literal such as ``1e999`` as floats
#: that the strict encoder could never echo back; this one refuses them.
_DECODER = json.JSONDecoder(parse_float=_finite, parse_constant=_no_constant)


def decode(line: bytes) -> dict:
    """Parse one wire line; raises :class:`WireProtocolError` if malformed.

    Malformed covers what ``json.loads`` refuses, a non-finite number,
    and nesting deeper than the interpreter's recursion limit lets the
    parser follow.
    """
    if len(line) > MAX_LINE_BYTES:
        raise WireProtocolError(
            f"protocol line exceeds {MAX_LINE_BYTES} bytes"
        )
    try:
        if not isinstance(line, str):
            line = line.decode(json.detect_encoding(line), "surrogatepass")
        message = _DECODER.decode(line)
    except (ValueError, RecursionError) as exc:
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


#: What precedes an answer payload's ``cached`` flag.  A quote inside a
#: JSON string is always escaped, so the first bare occurrence in an
#: encoded payload is the key itself.
_CACHED_KEY = b'"cached":'


class EncodedAnswer(NamedTuple):
    """One answer's :func:`answer_payload`, encoded once.

    The bytes are kept split around the ``cached`` flag, the one field in
    which the replies carrying the same answer differ.
    """

    #: The payload up to and including ``"cached":``.
    head: bytes
    #: The payload after the flag.
    tail: bytes

    @classmethod
    def of(cls, line: bytes) -> "EncodedAnswer":
        """Split ``line``, the :func:`encode` of an answer's payload."""
        split = line.index(_CACHED_KEY) + len(_CACHED_KEY)
        flag = 4 if line.startswith(b"true", split) else 5
        return cls(line[:split], line[split + flag : -1])

    def line(self, request_id, cached: bool) -> bytes:
        """The reply line ``encode({"id": request_id, "ok": True,
        "result": answer_payload(answer, cached)})`` gives, byte for byte."""
        if type(request_id) is int:
            encoded_id = b"%d" % request_id
        else:
            encoded_id = _ENCODER.encode(request_id).encode("utf-8")
        return b'{"id":%b,"ok":true,"result":%b%b%b}\n' % (
            encoded_id,
            self.head,
            b"true" if cached else b"false",
            self.tail,
        )


def error_payload(exc: BaseException) -> dict:
    return {"kind": type(exc).__name__, "message": str(exc)}
