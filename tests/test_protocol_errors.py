"""Error paths of the wire decoders.

Mostly the binary framing in ``services/protocol.py``; the last classes
hold ``soap_decode`` and ``decode_value`` to the same contract, and
``soap_decode`` to refusing a document type declaration.

The happy path is exercised everywhere the monitor scrapes; these tests
pin down the defensive half of the contract: every way a frame can be
corrupt — short, misbranded, stale-versioned, truncated, bit-flipped,
misflagged or carrying garbage JSON — raises :class:`MarshallingError`
with a diagnosable message instead of propagating a struct/JSON error.
``TestJsonFrameBodies`` holds the farm and reject writers to the bytes
of the ``json.dumps`` calls they replaced.
"""

from __future__ import annotations

import json
import random
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MarshallingError, RaveError
from repro.farm import RenderJob
from repro.network.marshalling import decode_value, encode_value
from repro.obs.tracing import TraceContext
from repro.services.protocol import (
    FLAG_FARM,
    FLAG_REJECT,
    FLAG_TELEMETRY,
    FarmLease,
    FarmResult,
    FrameHeader,
    frame_farm_lease,
    frame_farm_result,
    frame_message,
    frame_reject,
    frame_telemetry,
    unframe_farm_lease,
    unframe_farm_result,
    unframe_message,
    unframe_reject,
    unframe_telemetry,
)
from repro.services.soap import soap_decode, soap_encode

HEADER = struct.Struct("<IHHIQ")
MAGIC = 0x52415645
VERSION = 1


def rebuild(payload: bytes, *, magic: int = MAGIC, version: int = VERSION,
            flags: int = 0, crc: int | None = None,
            length: int | None = None) -> bytes:
    """A frame with any single header field forced to a bad value."""
    crc = zlib.crc32(payload) & 0xFFFFFFFF if crc is None else crc
    length = len(payload) if length is None else length
    return HEADER.pack(magic, version, flags, crc, length) + payload


class TestUnframeMessage:
    def test_round_trip(self):
        header, body = unframe_message(frame_message(b"hello", flags=7))
        assert body == b"hello"
        assert header == FrameHeader(version=VERSION, flags=7,
                                     crc32=zlib.crc32(b"hello"), length=5)

    def test_truncated_header(self):
        frame = frame_message(b"payload")
        with pytest.raises(MarshallingError,
                           match="shorter than header"):
            unframe_message(frame[:HEADER.size - 1])

    def test_empty_input(self):
        with pytest.raises(MarshallingError, match="shorter than header"):
            unframe_message(b"")

    def test_bad_magic(self):
        with pytest.raises(MarshallingError, match="bad frame magic"):
            unframe_message(rebuild(b"x", magic=0xDEADBEEF))

    def test_wrong_version(self):
        with pytest.raises(MarshallingError,
                           match="unsupported frame version 2"):
            unframe_message(rebuild(b"x", version=2))

    def test_truncated_payload(self):
        frame = frame_message(b"twelve bytes")
        with pytest.raises(MarshallingError, match="length mismatch"):
            unframe_message(frame[:-3])

    def test_inflated_payload(self):
        with pytest.raises(MarshallingError, match="length mismatch"):
            unframe_message(frame_message(b"short") + b"trailing junk")

    def test_crc_mismatch(self):
        corrupt = rebuild(b"payload", crc=zlib.crc32(b"payload") ^ 0x1)
        with pytest.raises(MarshallingError, match="checksum mismatch"):
            unframe_message(corrupt)

    def test_flipped_payload_bit_fails_checksum(self):
        frame = bytearray(frame_message(b"payload"))
        frame[-1] ^= 0x40
        with pytest.raises(MarshallingError, match="checksum mismatch"):
            unframe_message(bytes(frame))


class TestHostileFarmResults:
    """Corrupt/hostile farm results must be dropped, never raised.

    The wire layer already rejects mangled bytes; these tests cover the
    next layer up — a structurally valid :class:`FarmResult` whose
    *content* is hostile (a frame index outside the job's range, or a
    job id the queue never saw) reaching
    :meth:`FrameQueueService.complete`.
    """

    def queue(self):
        from repro.data.generators import galleon
        from repro.testbed import build_testbed

        tb = build_testbed(farm=True)
        tb.publish_model("scene", galleon(2000))
        tb.farm_queue.submit(RenderJob(
            job_id="anim", session_id="scene",
            start_frame=1, end_frame=4))
        return tb.farm_queue

    @staticmethod
    def result(job_id="anim", frame=1, worker="w0"):
        return frame_farm_result(FarmResult(
            job_id=job_id, frame=frame, worker=worker,
            render_seconds=0.01, nbytes=64, attempt=1))

    def test_out_of_range_frame_is_counted_and_dropped(self):
        # regression: a result naming frame 99 of a 4-frame job used to
        # crash complete() with a KeyError out of the ledger lookup
        queue = self.queue()
        unframe_farm_lease(queue.lease("w0"))
        assert queue.complete(self.result(frame=99)) is False
        assert queue.invalid_results == 1
        assert queue.frames_completed == 0
        # the honest result for the leased frame still lands
        assert queue.complete(self.result(frame=1)) is True

    def test_unknown_job_is_counted_and_dropped(self):
        queue = self.queue()
        assert queue.complete(self.result(job_id="ghost")) is False
        assert queue.invalid_results == 1
        assert queue.duplicates_dropped == 0

    def test_invalid_results_export_a_counter(self):
        queue = self.queue()
        queue.complete(self.result(frame=-7))
        snapshot = queue.telemetry.registry.snapshot()
        family = snapshot["rave_farm_invalid_results_total"]
        assert family["series"][0]["value"] == 1


class TestFarmLeasePriorityOnTheWire:
    def test_priority_round_trips(self):
        lease = FarmLease(job_id="anim", frame=3, session_id="scene",
                          attempt=1, deadline=42.0, priority=5)
        assert unframe_farm_lease(frame_farm_lease(lease)).priority == 5

    def test_body_without_priority_is_refused(self):
        # frame_farm_lease always writes the field; no older peer omits it
        body = json.dumps({
            "type": "lease", "job_id": "anim", "frame": 3,
            "session_id": "scene", "attempt": 1, "deadline": 42.0,
        }).encode()
        with pytest.raises(MarshallingError, match="priority"):
            unframe_farm_lease(frame_message(body, flags=FLAG_FARM))


class TestFarmResultAttemptOnTheWire:
    def test_attempt_round_trips(self):
        result = FarmResult(job_id="anim", frame=3, worker="w0",
                            render_seconds=0.01, nbytes=64, attempt=2)
        assert unframe_farm_result(frame_farm_result(result)).attempt == 2

    def test_body_without_attempt_is_dropped(self):
        # a body with no attempt field parses (as attempt 0), and the
        # queue drops it: 0 names no lease the queue ever issued
        data = frame_message(json.dumps({
            "type": "result", "job_id": "anim", "frame": 1,
            "worker": "w0", "render_seconds": 0.01, "nbytes": 64,
        }).encode(), flags=FLAG_FARM)
        assert unframe_farm_result(data).attempt == 0
        queue = TestHostileFarmResults().queue()
        unframe_farm_lease(queue.lease("w0"))
        assert queue.complete(data) is False
        assert (queue.duplicates_dropped, queue.frames_completed) == (1, 0)


def dumped(body: dict) -> bytes:
    """A JSON body as the frame writers used to produce it."""
    return json.dumps(body, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


WIRE_TEXT = st.text(st.characters(codec="utf-8"), max_size=12)
WIRE_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
WIRE_TRACE = st.one_of(st.none(), st.builds(
    TraceContext, trace_id=st.just("00000000000000ab"),
    span_id=st.just("00000000000000cd")))


class TestJsonFrameBodies:
    """The farm and reject frame writers encode with ``COMPACT_JSON``: the
    bytes are those of the ``json.dumps`` call each made before."""

    @settings(max_examples=150, deadline=None)
    @given(job_id=WIRE_TEXT, frame=st.integers(-2**40, 2**40),
           session_id=WIRE_TEXT, attempt=st.integers(0, 99),
           deadline=WIRE_FLOAT, priority=st.integers(-5, 5),
           trace=WIRE_TRACE)
    def test_lease(self, job_id, frame, session_id, attempt, deadline,
                   priority, trace):
        lease = FarmLease(job_id, frame, session_id, attempt, deadline,
                          priority, trace)
        assert frame_farm_lease(lease) == frame_message(dumped({
            "type": "lease", "job_id": job_id, "frame": frame,
            "session_id": session_id, "attempt": attempt,
            "deadline": deadline, "priority": priority}),
            flags=FLAG_FARM, trace=trace)

    @settings(max_examples=150, deadline=None)
    @given(job_id=WIRE_TEXT, frame=st.integers(-2**40, 2**40),
           worker=WIRE_TEXT, render_seconds=WIRE_FLOAT,
           nbytes=st.integers(0, 2**40), attempt=st.integers(0, 99),
           trace=WIRE_TRACE)
    def test_result(self, job_id, frame, worker, render_seconds, nbytes,
                    attempt, trace):
        result = FarmResult(job_id, frame, worker, render_seconds, nbytes,
                            attempt, trace)
        assert frame_farm_result(result) == frame_message(dumped({
            "type": "result", "job_id": job_id, "frame": frame,
            "worker": worker, "render_seconds": render_seconds,
            "nbytes": nbytes, "attempt": attempt}),
            flags=FLAG_FARM, trace=trace)

    @settings(max_examples=150, deadline=None)
    @given(reason=WIRE_TEXT, retry_after=WIRE_FLOAT,
           status=st.integers(100, 599), tenant=WIRE_TEXT,
           session_id=WIRE_TEXT, queue_depth=st.integers(0, 10**6),
           trace=WIRE_TRACE)
    def test_reject(self, reason, retry_after, status, tenant, session_id,
                    queue_depth, trace):
        assert frame_reject(
            reason, retry_after, status=status, tenant=tenant,
            session_id=session_id, queue_depth=queue_depth, trace=trace,
        ) == frame_message(dumped({
            "status": status, "reason": reason, "retry_after": retry_after,
            "tenant": tenant, "session_id": session_id,
            "queue_depth": queue_depth}), flags=FLAG_REJECT, trace=trace)


LEASE_BODY = {"type": "lease", "job_id": "anim", "frame": 3,
              "session_id": "scene", "attempt": 1, "deadline": 42.0,
              "priority": 0}
RESULT_BODY = {"type": "result", "job_id": "anim", "frame": 3,
               "worker": "w0", "render_seconds": 0.01, "nbytes": 64,
               "attempt": 1}
REJECT_BODY = {"status": 429, "reason": "full", "retry_after": 1.5,
               "tenant": "t", "session_id": "s", "queue_depth": 2}


class TestJsonFieldsRaiseOnlyMarshallingError:
    """A body with a correct CRC that nests too deep for the JSON parser,
    or whose fields do not convert, is refused as a ``MarshallingError``;
    each case below used to leak another exception (named in its id)."""

    @pytest.mark.parametrize("decode,flags", [
        (unframe_farm_lease, FLAG_FARM),
        (unframe_telemetry, FLAG_TELEMETRY),
        (unframe_reject, FLAG_REJECT),
    ], ids=["lease-RecursionError", "telemetry-RecursionError",
            "reject-RecursionError"])
    def test_nesting_past_the_parser_limit(self, decode, flags):
        with pytest.raises(MarshallingError, match="malformed"):
            decode(frame_message(b"[" * 100_000, flags=flags))

    @pytest.mark.parametrize("decode,flags,body,field,value", [
        (unframe_farm_lease, FLAG_FARM, LEASE_BODY, "frame", "x"),
        (unframe_farm_lease, FLAG_FARM, LEASE_BODY, "frame", None),
        (unframe_farm_lease, FLAG_FARM, LEASE_BODY, "deadline", {}),
        (unframe_farm_lease, FLAG_FARM, LEASE_BODY, "frame", float("inf")),
        (unframe_farm_result, FLAG_FARM, RESULT_BODY, "frame", "1e999"),
        (unframe_farm_result, FLAG_FARM, RESULT_BODY, "nbytes", [1]),
        (unframe_reject, FLAG_REJECT, REJECT_BODY, "status", "x"),
        (unframe_reject, FLAG_REJECT, REJECT_BODY, "retry_after", {}),
        (unframe_reject, FLAG_REJECT, REJECT_BODY, "queue_depth",
         float("inf")),
    ], ids=["lease-frame-ValueError", "lease-frame-TypeError",
            "lease-deadline-TypeError", "lease-frame-OverflowError",
            "result-frame-ValueError", "result-nbytes-TypeError",
            "reject-status-ValueError", "reject-retry-TypeError",
            "reject-depth-OverflowError"])
    def test_one_bad_field(self, decode, flags, body, field, value):
        data = frame_message(json.dumps({**body, field: value}).encode(),
                             flags=flags)
        with pytest.raises(MarshallingError, match="malformed"):
            decode(data)

    @pytest.mark.parametrize("decode,flags,body", [
        (unframe_farm_lease, FLAG_FARM, LEASE_BODY),
        (unframe_farm_result, FLAG_FARM, RESULT_BODY),
        (unframe_reject, FLAG_REJECT, REJECT_BODY),
    ], ids=["lease", "result", "reject"])
    def test_the_valid_body_decodes(self, decode, flags, body):
        decode(frame_message(json.dumps(body).encode(), flags=flags))


class TestUnframeTelemetry:
    def test_round_trip(self):
        payload = {"kind": "render", "metrics": {"a": 1}}
        assert unframe_telemetry(frame_telemetry(payload)) == payload

    def test_missing_telemetry_flag(self):
        body = json.dumps({"ok": True}).encode()
        with pytest.raises(MarshallingError, match="carry no telemetry"):
            unframe_telemetry(frame_message(body, flags=0))

    def test_corrupt_frame_detected_before_json(self):
        frame = bytearray(frame_telemetry({"kind": "render"}))
        frame[-1] ^= 0x01
        with pytest.raises(MarshallingError, match="checksum mismatch"):
            unframe_telemetry(bytes(frame))

    def test_malformed_json_body(self):
        frame = frame_message(b"{not json", flags=FLAG_TELEMETRY)
        with pytest.raises(MarshallingError, match="malformed telemetry"):
            unframe_telemetry(frame)

    def test_non_utf8_body(self):
        frame = frame_message(b"\xff\xfe\xfd", flags=FLAG_TELEMETRY)
        with pytest.raises(MarshallingError, match="malformed telemetry"):
            unframe_telemetry(frame)

    def test_non_object_json_payload(self):
        frame = frame_message(b"[1, 2, 3]", flags=FLAG_TELEMETRY)
        with pytest.raises(MarshallingError,
                           match="must be a JSON object"):
            unframe_telemetry(frame)


def mutations(valid: bytes, n: int, seed: int):
    """``n`` seeded corruptions of ``valid``: bit flip / truncate / insert /
    overwrite, up to three deep."""
    rng = random.Random(seed)
    for _ in range(n):
        data = bytearray(valid)
        for _ in range(rng.randint(1, 3)):
            if not data:
                break
            at = rng.randrange(len(data))
            kind = rng.randrange(4)
            if kind == 0:
                data[at] ^= 1 << rng.randrange(8)
            elif kind == 1:
                del data[at:]
            elif kind == 2:
                data[at:at] = rng.randbytes(rng.randint(1, 4))
            else:
                data[at:at + 4] = rng.randbytes(rng.randint(1, 4))
        yield bytes(data)


def assert_decodes_or_raises_rave_error(decode, valid: bytes, n: int,
                                        seed: int) -> None:
    leaked = {}
    for data in mutations(valid, n, seed):
        try:
            decode(data)
        except RaveError:
            pass
        except Exception as exc:  # the sweep's whole point is to find these
            leaked.setdefault(type(exc).__name__, data)
    assert not leaked


#: a message with one of everything the value grammar has
WIRE_VALUE = {
    "session": "s00017", "héllo": "wörld", "n": 7, "rate": 2.5,
    "ok": True, "no": False, "nothing": None, "blob": b"\x00\x01",
    "cam": {"pos": [1.0, 2.0, 3.0], "names": ["a", ""], "deep": {"x": []}},
    "verts": np.arange(6, dtype="<f4").reshape(2, 3),
    "ids": np.arange(3, dtype="u1"), "scalar": np.array(5.0),
}


class TestSoapDecodeRaisesOnlyMarshallingError:
    """Every receive path catches ``MarshallingError`` / ``SoapFault``;
    each case below used to unwind with something else."""

    VALID = soap_encode("op", WIRE_VALUE)

    @pytest.mark.parametrize("old,new", [
        # binascii.Error: base64 with one pad stripped
        (b">AAE=<", b">AAE<"),
        # LookupError: a declared encoding Python has no codec for
        (b"encoding='utf-8'", b"encoding='utf-9'"),
        # TypeError: a dtype string numpy refuses
        (b'dtype="|u1"', b'dtype="&lt;q9"'),
        # ValueError: shape, integer and float text that do not parse
        (b'shape="3"', b'shape="x"'),
        (b">7<", b">3x<"),
        (b">2.5<", b">1.5.5<"),
        # ValueError: three u1 relabelled as one 0-d f4 (3 bytes, needs 4)
        (b'dtype="|u1" shape="3"', b'dtype="&lt;f4" shape=""'),
    ], ids=["base64-padding", "unknown-encoding", "bad-dtype", "bad-shape",
            "bad-long", "bad-double", "payload-shorter-than-dtype"])
    def test_one_bad_field(self, old, new):
        assert self.VALID.count(old) == 1
        with pytest.raises(MarshallingError):
            soap_decode(self.VALID.replace(old, new))

    def test_nesting_past_the_depth_limit(self):
        deep = (b"<item type='rave:list'>" * 5000 + b"</item>" * 5000)
        with pytest.raises(MarshallingError, match="depth"):
            soap_decode(b"<Envelope><Body><Operation name='op'><arg key='k'>"
                        + deep + b"</arg></Operation></Body></Envelope>")

    def test_mutation_sweep(self):
        assert_decodes_or_raises_rave_error(soap_decode, self.VALID,
                                            20_000, seed=2004)


def entity_bomb(levels: int = 8, fan: int = 10) -> bytes:
    """An envelope whose one string is ``fan ** levels`` nested entity
    expansions of "lol": under 600 bytes on the wire."""
    entities = "".join(['<!ENTITY a0 "lol">'] + [
        f'<!ENTITY a{i} "{f"&a{i - 1};" * fan}">'
        for i in range(1, levels + 1)])
    return (f"<!DOCTYPE Envelope [{entities}]><Envelope><Body>"
            f"<Operation name='op'><arg key='k'><value>&a{levels};</value>"
            f"</arg></Operation></Body></Envelope>").encode()


class TestSoapRefusesADoctype:
    """SOAP 1.2 Part 1 §5: a SOAP message carries no document type
    declaration.  The decoder refuses it where it starts, so none of its
    entities is ever declared, let alone expanded."""

    def test_an_entity_bomb_is_refused_in_bounded_memory(self):
        bomb = entity_bomb()
        assert len(bomb) < 600
        tracemalloc.start()
        try:
            with pytest.raises(MarshallingError, match="DOCTYPE"):
                soap_decode(bomb)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # expanding it would take tens of megabytes and most of a second
        assert peak < 1_000_000

    def test_one_declared_entity_is_refused(self):
        injected = soap_encode("op", {"k": "ENTITY"}).replace(
            b"\n", b'\n<!DOCTYPE Envelope [<!ENTITY a "injected">]>', 1
        ).replace(b"ENTITY<", b"&a;<")
        assert b"&a;" in injected
        with pytest.raises(MarshallingError, match="DOCTYPE"):
            soap_decode(injected)

    def test_a_doctype_without_entities_is_refused_too(self):
        with pytest.raises(MarshallingError, match="DOCTYPE"):
            soap_decode(b"<!DOCTYPE Envelope><Envelope><Body>"
                        b"<Operation name='op'/></Body></Envelope>")


class TestDecodeValueRaisesOnlyMarshallingError:
    VALID = encode_value(WIRE_VALUE)

    @pytest.mark.parametrize("old,new", [
        # UnicodeDecodeError: bytes that are not UTF-8 inside a string
        ("wörld".encode(), b"w\xff\xferld"),
        # TypeError / SyntaxError: dtype strings numpy refuses
        (b"a\x03|u1", b"a\x03<q9"),
        (b"a\x03|u1", b"a\x03(,)"),
    ], ids=["bad-utf8", "bad-dtype", "dtype-syntax"])
    def test_one_bad_field(self, old, new):
        assert len(old) == len(new) and self.VALID.count(old) == 1
        with pytest.raises(MarshallingError):
            decode_value(self.VALID.replace(old, new))

    def test_mutation_sweep(self):
        assert_decodes_or_raises_rave_error(decode_value, self.VALID,
                                            20_000, seed=2004)
