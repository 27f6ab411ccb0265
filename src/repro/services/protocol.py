"""Binary data-plane message framing.

"The sockets are specified during the initial SOAP-based service
subscription by the client" — once subscribed, RAVE talks length-prefixed
binary frames.  A frame is a fixed little-endian header (magic, version,
payload length, CRC32) followed by the payload produced by
:mod:`repro.network.marshalling`.

Frames may carry a trace context (``FLAG_TRACE``): a 16-byte prefix of
two little-endian u64s — trace id, then parent span id — inside the
CRC-protected payload, so the checksum covers it and old readers that
ignore the flag fail loudly on length rather than silently misparse.
:func:`unframe_message` strips the prefix and surfaces it as a
:class:`~repro.obs.tracing.TraceContext` on the returned header.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass

from repro.errors import MarshallingError
from repro.obs.metrics import COMPACT_JSON
from repro.obs.tracing import TraceContext

_MAGIC = 0x52415645  # "RAVE"
_VERSION = 1
_HEADER = struct.Struct("<IHHIQ")  # magic, version, flags, crc32, length
_TRACE = struct.Struct("<QQ")      # trace id, parent span id

#: frame carries a telemetry scrape payload (JSON body)
FLAG_TELEMETRY = 0x0001
#: frame carries an admission reject (429-style backpressure, JSON body)
FLAG_REJECT = 0x0002
#: frame carries a render-farm message (frame lease or result, JSON body)
FLAG_FARM = 0x0004
#: frame payload is prefixed with a 16-byte trace context (two u64 ids)
FLAG_TRACE = 0x0008


@dataclass(frozen=True)
class FrameHeader:
    version: int
    flags: int
    crc32: int
    length: int
    trace: TraceContext | None = None


def frame_message(payload: bytes, flags: int = 0,
                  trace: TraceContext | None = None) -> bytes:
    """Wrap a payload in a RAVE frame (optionally trace-stamped)."""
    if trace is not None:
        flags |= FLAG_TRACE
        payload = _TRACE.pack(int(trace.trace_id, 16),
                              int(trace.span_id, 16)) + payload
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return _HEADER.pack(_MAGIC, _VERSION, flags, crc, len(payload)) + payload


def unframe_message(data: bytes) -> tuple[FrameHeader, bytes]:
    """Unwrap a frame, validating magic, version, length and checksum."""
    if len(data) < _HEADER.size:
        raise MarshallingError(
            f"frame shorter than header ({len(data)} bytes)")
    magic, version, flags, crc, length = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise MarshallingError(f"bad frame magic 0x{magic:08x}")
    if version != _VERSION:
        raise MarshallingError(f"unsupported frame version {version}")
    body = data[_HEADER.size:]
    if len(body) != length:
        raise MarshallingError(
            f"frame length mismatch: header says {length}, got {len(body)}")
    actual = zlib.crc32(body) & 0xFFFFFFFF
    if actual != crc:
        raise MarshallingError(
            f"frame checksum mismatch: 0x{actual:08x} != 0x{crc:08x}")
    trace = None
    if flags & FLAG_TRACE:
        if len(body) < _TRACE.size:
            raise MarshallingError(
                f"trace-flagged frame too short for a trace context "
                f"({len(body)} bytes)")
        trace_id, span_id = _TRACE.unpack_from(body)
        trace = TraceContext(trace_id=f"{trace_id:016x}",
                             span_id=f"{span_id:016x}")
        body = body[_TRACE.size:]
    return FrameHeader(version=version, flags=flags, crc32=crc,
                       length=length, trace=trace), body


def frame_telemetry(payload: dict, trace: TraceContext | None = None) -> bytes:
    """Wrap a telemetry scrape payload for the wire (the scrape endpoint).

    Compact deterministic JSON (:data:`~repro.obs.metrics.COMPACT_JSON`)
    inside a standard RAVE frame: the byte length is what the monitor
    charges as simulated transfer cost.  ``ServiceTelemetry.scrape_frame``
    writes the same bytes for its own payload from a template.
    """
    return frame_message(COMPACT_JSON.encode(payload).encode("utf-8"),
                         flags=FLAG_TELEMETRY, trace=trace)


def unframe_telemetry(data: bytes) -> dict:
    """Unwrap and parse a telemetry frame (validates flags + checksum)."""
    header, body = unframe_message(data)
    if not header.flags & FLAG_TELEMETRY:
        raise MarshallingError(
            f"frame flags 0x{header.flags:04x} carry no telemetry")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise MarshallingError(f"malformed telemetry body: {exc}") from exc
    if not isinstance(payload, dict):
        raise MarshallingError("telemetry payload must be a JSON object")
    return payload


@dataclass(frozen=True)
class RejectInfo:
    """A decoded admission reject: the grid's 429 "too many requests".

    Mirrors the explicit-backpressure contract of Rendering-as-a-Service
    front ends: a full grid answers with a status, a human-readable
    reason, and a ``retry_after`` hint rather than timing out or
    degrading silently.
    """

    status: int
    reason: str
    retry_after: float
    tenant: str = ""
    session_id: str = ""
    queue_depth: int = 0
    trace: TraceContext | None = None


def frame_reject(reason: str, retry_after: float = 0.0, *,
                 status: int = 429, tenant: str = "",
                 session_id: str = "", queue_depth: int = 0,
                 trace: TraceContext | None = None) -> bytes:
    """Wrap an admission reject for the wire (grid → thin client).

    Compact deterministic JSON inside a standard RAVE frame, so the
    refusal costs real simulated transfer time like any other message.
    """
    body = COMPACT_JSON.encode(
        {"status": status, "reason": reason, "retry_after": retry_after,
         "tenant": tenant, "session_id": session_id,
         "queue_depth": queue_depth}).encode("utf-8")
    return frame_message(body, flags=FLAG_REJECT, trace=trace)


def unframe_reject(data: bytes) -> RejectInfo:
    """Unwrap and parse a reject frame (validates flags + checksum)."""
    header, body = unframe_message(data)
    if not header.flags & FLAG_REJECT:
        raise MarshallingError(
            f"frame flags 0x{header.flags:04x} carry no admission reject")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise MarshallingError(f"malformed reject body: {exc}") from exc
    if not isinstance(payload, dict) or "status" not in payload:
        raise MarshallingError("reject payload must carry a status")
    try:
        return RejectInfo(
            status=int(payload["status"]),
            reason=str(payload.get("reason", "")),
            retry_after=float(payload.get("retry_after", 0.0)),
            tenant=str(payload.get("tenant", "")),
            session_id=str(payload.get("session_id", "")),
            queue_depth=int(payload.get("queue_depth", 0)),
            trace=header.trace)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MarshallingError(f"malformed reject field: {exc}") from exc


@dataclass(frozen=True)
class FarmLease:
    """One leased animation frame: queue → worker.

    The queue hands out exactly one frame per pull; the lease names the
    job, the frame index, the scene session to render against, which
    attempt this is, the job's scheduling priority, and the
    simulated-clock deadline after which the queue may re-issue the
    frame to another worker.
    """

    job_id: str
    frame: int
    session_id: str
    attempt: int
    deadline: float
    priority: int = 0
    trace: TraceContext | None = None


@dataclass(frozen=True)
class FarmResult:
    """One completed frame: worker → queue."""

    job_id: str
    frame: int
    worker: str
    render_seconds: float
    nbytes: int
    #: which lease attempt produced this result; the queue completes a
    #: frame only for the attempt it currently has out on lease
    attempt: int = 0
    trace: TraceContext | None = None


def frame_farm_lease(lease: FarmLease) -> bytes:
    """Wrap a frame lease for the wire (queue → render worker)."""
    body = COMPACT_JSON.encode(
        {"type": "lease", "job_id": lease.job_id, "frame": lease.frame,
         "session_id": lease.session_id, "attempt": lease.attempt,
         "deadline": lease.deadline,
         "priority": lease.priority}).encode("utf-8")
    return frame_message(body, flags=FLAG_FARM, trace=lease.trace)


def unframe_farm_lease(data: bytes) -> FarmLease:
    """Unwrap and parse a farm lease frame (validates flags + checksum)."""
    header, body = unframe_message(data)
    if not header.flags & FLAG_FARM:
        raise MarshallingError(
            f"frame flags 0x{header.flags:04x} carry no farm message")
    payload = _decode_farm_body(body)
    if payload.get("type") != "lease":
        raise MarshallingError(
            f"farm frame type {payload.get('type')!r} is not a lease")
    try:
        return FarmLease(
            job_id=str(payload.get("job_id", "")),
            frame=int(payload["frame"]),
            session_id=str(payload.get("session_id", "")),
            attempt=int(payload.get("attempt", 1)),
            deadline=float(payload.get("deadline", 0.0)),
            priority=int(payload["priority"]),
            trace=header.trace)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MarshallingError(f"malformed farm lease field: {exc}") from exc


def frame_farm_result(result: FarmResult) -> bytes:
    """Wrap a completed-frame report for the wire (worker → queue)."""
    body = COMPACT_JSON.encode(
        {"type": "result", "job_id": result.job_id, "frame": result.frame,
         "worker": result.worker, "render_seconds": result.render_seconds,
         "nbytes": result.nbytes,
         "attempt": result.attempt}).encode("utf-8")
    return frame_message(body, flags=FLAG_FARM, trace=result.trace)


def unframe_farm_result(data: bytes) -> FarmResult:
    """Unwrap and parse a farm result frame (validates flags + checksum)."""
    header, body = unframe_message(data)
    if not header.flags & FLAG_FARM:
        raise MarshallingError(
            f"frame flags 0x{header.flags:04x} carry no farm message")
    payload = _decode_farm_body(body)
    if payload.get("type") != "result":
        raise MarshallingError(
            f"farm frame type {payload.get('type')!r} is not a result")
    try:
        return FarmResult(
            job_id=str(payload.get("job_id", "")),
            frame=int(payload["frame"]),
            worker=str(payload.get("worker", "")),
            render_seconds=float(payload.get("render_seconds", 0.0)),
            nbytes=int(payload.get("nbytes", 0)),
            attempt=int(payload.get("attempt", 0)),
            trace=header.trace)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MarshallingError(f"malformed farm result field: {exc}") from exc


def _decode_farm_body(body: bytes) -> dict:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise MarshallingError(f"malformed farm body: {exc}") from exc
    if not isinstance(payload, dict) or "frame" not in payload:
        raise MarshallingError("farm payload must carry a frame index")
    return payload
