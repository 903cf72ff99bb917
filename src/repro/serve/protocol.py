"""Wire protocol of the compile service: newline-delimited JSON frames.

One frame is one JSON object on one line.  The same framing is spoken on
both hops — client ↔ supervisor (stdin/stdout or a Unix socket) and
supervisor ↔ worker (the worker's pipes) — so a transcript of either is
replayable against the other.

Client-facing request ops:

``run``       compile ``source`` (optimized by default) and execute
              ``fn(args)``; the response carries the observable outcome
              (value or trap), dynamic check counters, and how the
              request was served (``mode`` optimized/degraded);
``compile``   compile only; the response carries the static elimination
              report, no execution;
``status``    supervisor-side: outcome counters, breaker states, worker
              pool (never dispatched to a worker);
``shutdown``  drain and stop the server.

A ``run``/``compile`` request may carry ``deadline_ms`` — a positive
integer bound on how long the *caller* will wait.  The supervisor sheds
the request (never dispatching it) once that deadline expires while
queued, and threads the remaining budget into the worker as its compile
deadline.

A worker answers with ``status`` ``"ok"`` (request served), ``"error"``
(deterministic user error — e.g. a type error in the submitted source;
*not* a worker failure, never retried), or ``"failure"`` (the worker
contained an internal problem — e.g. the memory cap fired — and the
supervisor should retry or degrade).  Anything else arriving on the
worker pipe — EOF, a truncated line, non-JSON bytes, a mismatched
request id — is a protocol violation: the supervisor kills that worker
and treats the attempt as failed.

A response a worker produced carries ``served``, that worker's request
count.  With a certificate store, a request for a program the store
holds is a hit (``"cache": "hit"``, ``"mode": "cached"``): the supervisor
answers a ``compile`` hit itself, so that response has no ``served``
field, while a ``run`` hit is executed by a worker.

The supervisor itself may answer a client with ``status`` ``"shed"`` —
overload backpressure, carrying a ``retry_after`` hint (seconds), the
shed ``reason`` (``queue-full``, ``degrade-level``,
``deadline-expired``, ``shutting-down``), and the degradation-ladder
``degrade_level`` that made the call.  A shed response is an explicit
answer, not a dropped request: the no-lost-request guarantee counts it.

Frames are capped at :data:`MAX_FRAME_BYTES` so a berserk worker cannot
balloon the supervisor's memory through the response pipe.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

#: Upper bound on one encoded frame.  Honest responses are tiny (scalar
#: results plus counters); the cap exists for corrupted/adversarial ones.
MAX_FRAME_BYTES = 4 * 1024 * 1024

#: Request ops a client may send.
CLIENT_OPS = ("run", "compile", "status", "shutdown")

#: Ops the supervisor forwards to workers.
WORKER_OPS = ("run", "compile", "shutdown")


class ProtocolError(Exception):
    """A malformed, oversized, or mismatched frame."""


def encode_frame(payload: Dict[str, Any]) -> bytes:
    """One JSON object → one line of UTF-8 bytes (sorted keys, so equal
    payloads are byte-equal — transcripts diff cleanly)."""
    data = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    encoded = data.encode("utf-8") + b"\n"
    if len(encoded) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(encoded)} bytes exceeds cap")
    return encoded


def decode_frame(line: bytes) -> Dict[str, Any]:
    """One line of bytes → the frame dict, or :class:`ProtocolError`."""
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(line)} bytes exceeds cap")
    try:
        payload = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def validate_request(frame: Dict[str, Any]) -> Dict[str, Any]:
    """Check a client request frame's shape; returns it normalized.

    ``id`` is optional on the wire (the supervisor assigns one), but when
    present must be a string or integer.  ``run``/``compile`` require a
    string ``source``; ``fn`` defaults to ``"main"`` and ``args`` to
    ``[]`` (integers only — the MiniJ calling convention).
    """
    op = frame.get("op")
    if op not in CLIENT_OPS:
        raise ProtocolError(f"unknown op {op!r} (expected one of {CLIENT_OPS})")
    request_id = frame.get("id")
    if request_id is not None and not isinstance(request_id, (str, int)):
        raise ProtocolError(f"request id must be str/int, got {request_id!r}")
    if op in ("run", "compile"):
        if not isinstance(frame.get("source"), str):
            raise ProtocolError(f"op {op!r} requires a string 'source'")
        fn = frame.get("fn", "main")
        if not isinstance(fn, str):
            raise ProtocolError(f"'fn' must be a string, got {fn!r}")
        frame["fn"] = fn
        args = frame.get("args", [])
        if not isinstance(args, list) or not all(
            isinstance(a, int) and not isinstance(a, bool) for a in args
        ):
            raise ProtocolError(f"'args' must be a list of ints, got {args!r}")
        frame["args"] = args
        deadline_ms = frame.get("deadline_ms")
        if deadline_ms is not None:
            if (
                not isinstance(deadline_ms, int)
                or isinstance(deadline_ms, bool)
                or deadline_ms <= 0
            ):
                raise ProtocolError(
                    f"'deadline_ms' must be a positive integer, got {deadline_ms!r}"
                )
    return frame


def validate_worker_response(
    frame: Dict[str, Any], request_id: Any
) -> Dict[str, Any]:
    """Check a worker response frame against the in-flight request.

    A response that does not echo the request id is as untrustworthy as a
    truncated one — the worker may have skipped or reordered work — so it
    is rejected and the attempt treated as failed.
    """
    status = frame.get("status")
    if status not in ("ok", "error", "failure"):
        raise ProtocolError(f"unknown worker status {status!r}")
    if frame.get("id") != request_id:
        raise ProtocolError(
            f"response id {frame.get('id')!r} does not match "
            f"request id {request_id!r}"
        )
    return frame


def error_response(
    request_id: Any, error: str, message: str, op: Optional[str] = None
) -> Dict[str, Any]:
    """A terminal user-error response (deterministic, never retried)."""
    payload = {
        "id": request_id,
        "status": "error",
        "error": error,
        "message": message,
    }
    if op is not None:
        payload["op"] = op
    return payload


def shed_response(
    request_id: Any,
    reason: str,
    retry_after: float,
    degrade_level: int,
) -> Dict[str, Any]:
    """An overload backpressure response: rejected fast, retry later.

    ``retry_after`` is a hint in seconds; ``degrade_level`` is the
    ladder level that made the shed decision, so clients (and the storm
    verifier) can distinguish admission-control sheds from
    deadline-expiry sheds on an otherwise healthy service.
    """
    return {
        "id": request_id,
        "status": "shed",
        "reason": reason,
        "retry_after": retry_after,
        "degrade_level": degrade_level,
    }
