"""JSONL wire protocol of the analysis service (``repro.service/1``).

One request or response per line, each a JSON object.  Requests carry an
``op`` and an optional client-chosen ``rid`` (request id) that the
matching response echoes, so clients may pipeline.  Responses carry
``ok`` (bool) plus either the payload fields or an ``error``/
``error_type`` pair.  ``events`` responses are followed by a stream of
``{"event": ...}`` lines until the connection closes.

Request ops::

    {"op": "hello"}                              → schema + server info
    {"op": "submit", "job": {"op": ..., "params": {...}}} → job record
    {"op": "status", "id": "job-000001"}          → job record (no result)
    {"op": "result", "id": "job-000001", "timeout": 5.0} → job record
    {"op": "cancel", "id": "job-000001"}          → {"cancelled": bool}
    {"op": "stats"}                               → service snapshot
    {"op": "events"}                              → subscribe to job events
    {"op": "shutdown", "drain": true}             → ack, then server exits

The framing is deliberately the same newline-delimited JSON used by the
repo's trajectory store — greppable, append-friendly, no binary deps.
A request line may be at most :data:`MAX_LINE_BYTES` long.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = [
    "SCHEMA",
    "ProtocolError",
    "encode",
    "decode",
    "ok_response",
    "error_response",
    "REQUEST_OPS",
    "MAX_LINE_BYTES",
]

#: Protocol schema tag, echoed by ``hello`` and checked by the client.
SCHEMA = "repro.service/1"

#: Ops a request line may carry.
REQUEST_OPS = (
    "hello",
    "submit",
    "status",
    "result",
    "cancel",
    "stats",
    "events",
    "shutdown",
)


#: Longest request line the server reads (asyncio's default
#: ``StreamReader`` limit, 64 KiB).  A longer line is answered with a
#: ``protocol`` error and the session is closed.
MAX_LINE_BYTES = 2**16


class ProtocolError(ValueError):
    """A malformed request or response line."""


def encode(message: dict[str, Any]) -> bytes:
    """Serialize one protocol message to a newline-terminated JSON line."""
    return (json.dumps(message, separators=(",", ":"), sort_keys=True) + "\n").encode()


def decode(line: bytes | str) -> dict[str, Any]:
    """Parse one line into a message dict.

    Raises
    ------
    ProtocolError
        If the line is not valid JSON or not a JSON object.
    """
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    line = line.strip()
    if not line:
        raise ProtocolError("empty protocol line")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("protocol line must be a JSON object")
    return message


def ok_response(rid: Any = None, **payload: Any) -> dict[str, Any]:
    """A success response, echoing *rid* when the request carried one."""
    out: dict[str, Any] = {"ok": True, **payload}
    if rid is not None:
        out["rid"] = rid
    return out


def error_response(
    message: str, *, error_type: str = "error", rid: Any = None
) -> dict[str, Any]:
    """A failure response with a stable ``error_type`` discriminator."""
    out: dict[str, Any] = {"ok": False, "error": message, "error_type": error_type}
    if rid is not None:
        out["rid"] = rid
    return out
