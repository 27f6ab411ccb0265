"""Marshalling: wire codecs and their CPU cost models.

Two things live here, deliberately together:

1. a real, pickle-free binary codec (:func:`encode_value` /
   :func:`decode_value`) for the wire dicts produced by the scene graph and
   services — type-tagged, length-prefixed, numpy arrays packed raw;

2. the *cost models* for the two marshalling strategies the paper compares:

   - :class:`IntrospectionMarshaller` — the Java-style reflective walk
     ("each node in the scene graph is examined for implemented
     interfaces...").  The paper measures this at roughly 2.9 simulated
     seconds per megabyte end-to-end (Table 5: 10.5 s for a 0.3 MB model vs
     68.2 s for 20 MB, both over 100 Mbit ethernet — CPU-bound, not
     network-bound), and names it the bootstrap bottleneck.
   - :class:`BinaryMarshaller` — the direct buffer path ("directly sending
     a native Java3D stream" / the C++ client's pointer cast), orders of
     magnitude cheaper per byte.

Both produce identical *bytes*; they differ in simulated CPU seconds.  The
ablation benchmark regenerates the paper's bottleneck claim from these two
models.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from repro.errors import MarshallingError

# --------------------------------------------------------------------------
# binary value codec
# --------------------------------------------------------------------------

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"i"
_TAG_FLOAT = b"f"
_TAG_STR = b"s"
_TAG_BYTES = b"b"
_TAG_ARRAY = b"a"
_TAG_LIST = b"l"
_TAG_DICT = b"d"

_MAX_DEPTH = 32

# the fixed layouts of the wire format; an array's ``<{ndim}q`` shape is
# the only one built per value
_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")


def _encode_into(out: list[bytes], value, depth: int) -> None:
    if depth > _MAX_DEPTH:
        raise MarshallingError("value nesting exceeds maximum depth")
    if value is None:
        out.append(_TAG_NONE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif isinstance(value, (int, np.integer)):
        out.append(_TAG_INT + _I64.pack(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(_TAG_FLOAT + _F64.pack(float(value)))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_TAG_STR + _U32.pack(len(raw)) + raw)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        out.append(_TAG_BYTES + _U32.pack(len(raw)) + raw)
    elif isinstance(value, np.ndarray):
        # ascontiguousarray promotes 0-d to 1-d; reshape restores the rank
        arr = np.ascontiguousarray(value).reshape(value.shape)
        dt = arr.dtype.str.encode("ascii")
        out.append(_TAG_ARRAY + _U8.pack(len(dt)) + dt)
        out.append(_U8.pack(arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}q", *arr.shape))
        raw = arr.tobytes()
        out.append(_U64.pack(len(raw)))
        out.append(raw)
    elif isinstance(value, (list, tuple)):
        out.append(_TAG_LIST + _U32.pack(len(value)))
        for item in value:
            _encode_into(out, item, depth + 1)
    elif isinstance(value, dict):
        out.append(_TAG_DICT + _U32.pack(len(value)))
        for key, item in value.items():
            if not isinstance(key, str):
                raise MarshallingError(f"dict keys must be str; got {key!r}")
            raw = key.encode("utf-8")
            out.append(_U32.pack(len(raw)) + raw)
            _encode_into(out, item, depth + 1)
    else:
        raise MarshallingError(
            f"cannot marshal value of type {type(value).__name__}")


def encode_value(value) -> bytes:
    """Encode a wire value (primitives / str / bytes / ndarray / list / dict)."""
    out: list[bytes] = []
    _encode_into(out, value, 0)
    return b"".join(out)


class _Reader:
    """A cursor over received bytes that never reads past their end.

    ``take(n)`` returns the next ``n`` bytes; ``unpack(layout)`` reads one
    precompiled :class:`struct.Struct` in place at ``pos`` (no slice, no
    format string parsed per field).  Both raise
    :class:`MarshallingError` when fewer bytes are left than asked for.
    """

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        pos = self.pos
        if pos + n > len(self.data):
            raise MarshallingError("truncated wire data")
        self.pos = pos + n
        return self.data[pos:pos + n]

    def unpack(self, layout: struct.Struct) -> tuple:
        pos = self.pos
        if pos + layout.size > len(self.data):
            raise MarshallingError("truncated wire data")
        self.pos = pos + layout.size
        return layout.unpack_from(self.data, pos)


def _decode_from(r: _Reader, depth: int):
    if depth > _MAX_DEPTH:
        raise MarshallingError("wire data nesting exceeds maximum depth")
    tag = r.take(1)
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_TRUE:
        return True
    if tag == _TAG_FALSE:
        return False
    if tag == _TAG_STR:
        (n,) = r.unpack(_U32)
        return r.take(n).decode("utf-8")
    if tag == _TAG_INT:
        return r.unpack(_I64)[0]
    if tag == _TAG_FLOAT:
        return r.unpack(_F64)[0]
    if tag == _TAG_DICT:
        (n,) = r.unpack(_U32)
        out = {}
        for _ in range(n):
            (klen,) = r.unpack(_U32)
            key = r.take(klen).decode("utf-8")
            out[key] = _decode_from(r, depth + 1)
        return out
    if tag == _TAG_LIST:
        (n,) = r.unpack(_U32)
        return [_decode_from(r, depth + 1) for _ in range(n)]
    if tag == _TAG_BYTES:
        (n,) = r.unpack(_U32)
        return r.take(n)
    if tag == _TAG_ARRAY:
        (dt_len,) = r.unpack(_U8)
        dt = np.dtype(r.take(dt_len).decode("ascii"))
        (ndim,) = r.unpack(_U8)
        shape = r.unpack(struct.Struct(f"<{ndim}q"))
        (nbytes,) = r.unpack(_U64)
        if nbytes != dt.itemsize * math.prod(shape):
            raise MarshallingError(
                f"array byte count {nbytes} does not match shape {shape}")
        raw = r.take(nbytes)
        return np.frombuffer(raw, dtype=dt).reshape(shape).copy()
    raise MarshallingError(f"unknown wire tag {tag!r}")


def decode_value(data: bytes):
    """Decode bytes produced by :func:`encode_value`.

    Raises :class:`MarshallingError`, and nothing else, on bytes that are
    not such a value.
    """
    r = _Reader(data)
    try:
        value = _decode_from(r, 0)
    except (ValueError, TypeError, SyntaxError) as exc:
        # bad UTF-8, a dtype string numpy refuses (its comma-list parser
        # raises SyntaxError), a shape the payload cannot be viewed as
        raise MarshallingError(f"malformed wire value: {exc}") from exc
    if r.pos != len(data):
        raise MarshallingError(
            f"{len(data) - r.pos} trailing bytes after wire value")
    return value


# --------------------------------------------------------------------------
# decode memos: a control message seen again is not parsed again
# --------------------------------------------------------------------------

#: results a :class:`DecodeMemo` keeps; the oldest is evicted first
MEMO_ENTRIES = 64
#: longer messages bypass a memo: copying their arrays is their decode cost
MEMO_MAX_BYTES = 64 * 1024


#: what decoders return besides dict, list and ndarray: immutable, never copied
_IMMUTABLE = frozenset((type(None), bool, int, float, str, bytes))


def fresh(value):
    """A copy of a decoded value that shares no dict, list or ndarray with it.

    Decoders build exactly these three containers; everything else they
    return is in :data:`_IMMUTABLE` and is handed out as it is.
    """
    kind = type(value)
    if kind is dict:
        # a C-level copy first: most bodies are all immutable leaves
        out = dict(value)
        for key, item in out.items():
            if type(item) not in _IMMUTABLE:
                out[key] = fresh(item)
        return out
    if kind is list:
        return [item if type(item) in _IMMUTABLE else fresh(item)
                for item in value]
    if kind is np.ndarray:
        return value.copy()
    return value


class DecodeMemo:
    """The last :data:`MEMO_ENTRIES` results of a decoder, by exact input.

    ``decode`` must be a pure function of its bytes; ``copy`` turns a kept
    result into one the caller may mutate.  Every call returns such a copy,
    a miss included, so nothing handed out is ever shared with the memo.  A
    decode that raises keeps nothing, so hostile bytes are parsed (and
    refused) every time they arrive.  Inputs that are not ``bytes``, or are
    longer than :data:`MEMO_MAX_BYTES`, go straight to ``decode``.
    """

    __slots__ = ("_decode", "_copy", "_entries")

    def __init__(self, decode, copy) -> None:
        self._decode = decode
        self._copy = copy
        self._entries: dict[bytes, object] = {}

    def __call__(self, data):
        if type(data) is not bytes or len(data) > MEMO_MAX_BYTES:
            return self._decode(data)
        entries = self._entries
        entry = entries.get(data)
        if entry is None:
            entry = self._decode(data)
            if len(entries) >= MEMO_ENTRIES:
                del entries[next(iter(entries))]
            entries[data] = entry
        return self._copy(entry)

    def __contains__(self, data) -> bool:
        return data in self._entries

    def __len__(self) -> int:
        return len(self._entries)


def _decode_counted(data: bytes) -> tuple[object, int, int]:
    """The decode step both marshallers' ``demarshal`` share: the value
    and the two walks their simulated CPU cost is computed from."""
    value = decode_value(data)
    return value, count_fields(value), payload_nbytes(value)


_demarshal_memo = DecodeMemo(
    _decode_counted, lambda entry: (fresh(entry[0]), entry[1], entry[2]))


# --------------------------------------------------------------------------
# field counting (the introspection cost driver)
# --------------------------------------------------------------------------


def count_fields(value) -> int:
    """Number of leaf fields a reflective walk would visit."""
    if isinstance(value, dict):
        return sum(count_fields(v) for v in value.values()) or 1
    if isinstance(value, (list, tuple)):
        return sum(count_fields(v) for v in value) or 1
    return 1


def payload_nbytes(value) -> int:
    """Bulk payload size (arrays/strings/bytes) of a wire value.

    Arrays and byte strings are billed what :func:`encode_value` ships for
    them.  A ``str`` is billed its *character* count, not its UTF-8 length:
    Table 5's bootstrap times were calibrated with it.
    """
    if isinstance(value, (np.ndarray, memoryview)):
        return value.nbytes
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, str):
        return len(value)
    if isinstance(value, dict):
        return sum(payload_nbytes(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(payload_nbytes(v) for v in value)
    return 8


# --------------------------------------------------------------------------
# marshaller cost models
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MarshalResult:
    """Bytes on the wire plus the simulated CPU cost of producing them."""

    data: bytes
    cpu_seconds: float
    n_fields: int

    @property
    def nbytes(self) -> int:
        return len(self.data)


class BinaryMarshaller:
    """The fast path: direct buffer streaming.

    Calibration: a 2004-era JVM/CPU streams contiguous buffers at roughly
    60 MB/s (the C++ PDA client "directly cast" path is effectively memcpy);
    ``cpu_factor`` scales with the machine profile (1.0 = the Centrino
    reference).
    """

    SECONDS_PER_BYTE = 1.0 / 60e6
    SECONDS_PER_FIELD = 2e-6

    def __init__(self, cpu_factor: float = 1.0) -> None:
        if cpu_factor <= 0:
            raise ValueError("cpu_factor must be positive")
        self.cpu_factor = cpu_factor

    def marshal(self, value) -> MarshalResult:
        data = encode_value(value)
        n_fields = count_fields(value)
        cpu = (len(data) * self.SECONDS_PER_BYTE
               + n_fields * self.SECONDS_PER_FIELD) / self.cpu_factor
        return MarshalResult(data=data, cpu_seconds=cpu, n_fields=n_fields)

    def demarshal(self, data: bytes) -> tuple[object, float]:
        """Returns (value, simulated cpu seconds).

        The decode goes through a memo of the last 64 messages up to
        64 KiB, keyed by their exact bytes.  The value is always a fresh
        copy, a failure is never kept, and the CPU seconds are computed
        from the same counts whether the message was parsed or recalled.
        """
        value, n_fields, _ = _demarshal_memo(data)
        cpu = (len(data) * self.SECONDS_PER_BYTE * 0.8
               + n_fields * self.SECONDS_PER_FIELD) / self.cpu_factor
        return value, cpu


class IntrospectionMarshaller:
    """The Java-reflection path RAVE used at publication time.

    Cost structure (per the paper's own analysis of its Table 5 numbers):

    - every node is checked against the full interface catalogue
      (``SECONDS_PER_INTERFACE_CHECK`` each);
    - every leaf field costs a reflective accessor call
      (``SECONDS_PER_FIELD``);
    - bulk data is copied element-wise through boxing at
      ``SECONDS_PER_BYTE`` — the dominant term.  Calibration: Table 5's two
      bootstrap points (10.5 s at ~0.1 MB in-memory payload, 68.2 s at
      ~15.1 MB) give a ~3.7 s/MB end-to-end CPU slope over 100 Mbit
      ethernet.  In the default testbed the data service marshals on the
      dual-Xeon (cpu_factor 1.5) and the render service demarshals on the
      Centrino reference, so 3.18 s/MB marshal + 1.59 s/MB demarshal (both
      at reference speed) + store-and-forward wire time reproduces both
      measured points.
    """

    SECONDS_PER_BYTE = 3.18 / 1e6
    DEMARSHAL_SECONDS_PER_BYTE = 1.59 / 1e6
    SECONDS_PER_FIELD = 50e-6
    SECONDS_PER_INTERFACE_CHECK = 5e-6

    def __init__(self, cpu_factor: float = 1.0,
                 n_interfaces: int | None = None) -> None:
        if cpu_factor <= 0:
            raise ValueError("cpu_factor must be positive")
        self.cpu_factor = cpu_factor
        if n_interfaces is None:
            from repro.scenegraph.interfaces import INTERFACES
            n_interfaces = len(INTERFACES)
        self.n_interfaces = n_interfaces

    def marshal(self, value) -> MarshalResult:
        data = encode_value(value)
        n_fields = count_fields(value)
        nbytes = payload_nbytes(value)
        cpu = (
            nbytes * self.SECONDS_PER_BYTE
            + n_fields * self.SECONDS_PER_FIELD
            + n_fields * self.n_interfaces * self.SECONDS_PER_INTERFACE_CHECK
        ) / self.cpu_factor
        return MarshalResult(data=data, cpu_seconds=cpu, n_fields=n_fields)

    def demarshal(self, data: bytes) -> tuple[object, float]:
        """Returns (value, simulated cpu seconds); memoised as
        :meth:`BinaryMarshaller.demarshal` is."""
        value, n_fields, nbytes = _demarshal_memo(data)
        cpu = (
            nbytes * self.DEMARSHAL_SECONDS_PER_BYTE
            + n_fields * self.SECONDS_PER_FIELD
        ) / self.cpu_factor
        return value, cpu
