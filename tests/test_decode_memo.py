"""The decode memos: a control message seen again is not parsed again.

``soap_decode`` and both marshallers' ``demarshal`` recall the result of
bytes they decoded recently.  Recalling must be invisible: every call
returns a result equal to a fresh decode that shares no dict, list or
array with any other call's, mutating one result leaves the next one
alone, the simulated CPU seconds do not move, and bytes that raise raise
every time without ever being kept.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MarshallingError
from repro.network import marshalling
from repro.network.marshalling import (
    MEMO_ENTRIES,
    MEMO_MAX_BYTES,
    BinaryMarshaller,
    IntrospectionMarshaller,
    count_fields,
    decode_value,
    encode_value,
    payload_nbytes,
)
from repro.services import soap
from repro.services.soap import soap_decode, soap_encode

from tests.test_protocol_errors import entity_bomb
from tests.test_soap_properties import any_text, any_values, traces
from tests.test_wire_grammar import ACCEPTED, same

#: every value kind of the grammar table, nested
wire_values = st.recursive(
    st.sampled_from([sent for examples in ACCEPTED.values()
                     for sent, _ in examples]),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        # a key is UTF-8 on the binary plane: no lone surrogates
        st.dictionaries(st.text(st.characters(blacklist_categories=("Cs",)),
                                max_size=8), children, max_size=4)),
    max_leaves=12)

MARSHALLERS = [BinaryMarshaller(cpu_factor=1.5),
               IntrospectionMarshaller(cpu_factor=0.75)]


def containers(value) -> list:
    """Every dict, list and ndarray inside a decoded value."""
    if isinstance(value, dict):
        return [value] + [c for item in value.values()
                          for c in containers(item)]
    if isinstance(value, list):
        return [value] + [c for item in value for c in containers(item)]
    if isinstance(value, np.ndarray):
        return [value]
    return []


def assert_disjoint(a, b) -> None:
    for x in containers(a):
        for y in containers(b):
            assert x is not y
            if isinstance(x, np.ndarray) and isinstance(y, np.ndarray):
                assert not np.shares_memory(x, y)


def scribble(value) -> None:
    """Mutate every container of a decoded value in place."""
    for c in containers(value):
        if isinstance(c, dict):
            c.clear()
        elif isinstance(c, list):
            c.append("scribbled")
        elif c.size:
            c.reshape(-1)[0] = 1 if c.dtype.kind in "iub" else 0.5


def expected_cpu(marshaller, data: bytes, value) -> float:
    """The simulated cost of demarshalling ``data``, from a fresh decode."""
    if isinstance(marshaller, BinaryMarshaller):
        return (len(data) * marshaller.SECONDS_PER_BYTE * 0.8
                + count_fields(value) * marshaller.SECONDS_PER_FIELD
                ) / marshaller.cpu_factor
    return (payload_nbytes(value) * marshaller.DEMARSHAL_SECONDS_PER_BYTE
            + count_fields(value) * marshaller.SECONDS_PER_FIELD
            ) / marshaller.cpu_factor


class TestDemarshalMemo:
    @pytest.mark.parametrize("marshaller", MARSHALLERS,
                             ids=lambda m: type(m).__name__)
    @given(value=wire_values)
    @settings(max_examples=60, deadline=None)
    def test_a_recalled_value_is_a_fresh_decode(self, marshaller, value):
        data = encode_value(value)
        first, cpu_first = marshaller.demarshal(data)
        second, cpu_second = marshaller.demarshal(data)
        reference = decode_value(data)
        assert data in marshalling._demarshal_memo
        assert same(first, reference) and same(second, reference)
        assert cpu_first == cpu_second == expected_cpu(marshaller, data,
                                                       reference)
        assert_disjoint(first, second)
        scribble(first)
        third, _ = marshaller.demarshal(data)
        assert same(third, reference)
        assert_disjoint(second, third)

    @pytest.mark.parametrize("data", [
        b"", b"Z", encode_value({"k": [1, 2]})[:-1],
        encode_value("x") + b"trailing",
    ], ids=["empty", "unknown-tag", "truncated", "trailing-bytes"])
    def test_bytes_that_raise_raise_again_and_are_never_kept(self, data):
        for _ in range(2):
            with pytest.raises(MarshallingError):
                BinaryMarshaller().demarshal(data)
        assert data not in marshalling._demarshal_memo

    def test_a_large_message_bypasses_the_memo(self):
        value = {"blob": np.arange(MEMO_MAX_BYTES // 8 + 1, dtype="<f8")}
        data = encode_value(value)
        assert len(data) > MEMO_MAX_BYTES
        first, _ = BinaryMarshaller().demarshal(data)
        second, _ = BinaryMarshaller().demarshal(data)
        assert data not in marshalling._demarshal_memo
        assert same(first, value) and same(second, value)
        assert_disjoint(first, second)

    def test_the_oldest_entry_is_evicted(self):
        messages = [encode_value({"eviction": k})
                    for k in range(MEMO_ENTRIES + 1)]
        for data in messages:
            BinaryMarshaller().demarshal(data)
        assert len(marshalling._demarshal_memo) == MEMO_ENTRIES
        assert messages[0] not in marshalling._demarshal_memo
        assert all(data in marshalling._demarshal_memo
                   for data in messages[1:])


class TestSoapMemo:
    @given(operation=any_text,
           body=st.one_of(st.none(), st.dictionaries(any_text, any_values,
                                                     max_size=5)),
           fault=st.one_of(st.none(), st.tuples(any_text, any_text)),
           trace=st.one_of(st.none(), traces))
    @settings(max_examples=100, deadline=None)
    def test_a_recalled_envelope_is_a_fresh_decode(self, operation, body,
                                                   fault, trace):
        data = soap_encode(operation, body, fault, trace)
        try:
            reference = soap._parse_envelope(data)
        except MarshallingError:
            # text XML 1.0 cannot carry: refused, every time, never kept
            for _ in range(2):
                with pytest.raises(MarshallingError):
                    soap_decode(data)
            assert data not in soap._envelope_memo
            return
        first = soap_decode(data)
        second = soap_decode(data)
        assert data in soap._envelope_memo
        for env in (first, second):
            assert (env.operation, env.fault, env.trace) == (
                reference.operation, reference.fault, reference.trace)
            assert same(env.body, reference.body)
        assert first is not second
        assert_disjoint(first.body, second.body)
        scribble(first.body)
        assert same(soap_decode(data).body, reference.body)

    @pytest.mark.parametrize("data", [
        entity_bomb(),
        soap_encode("op", {"k": 1})[:-9],
        soap_encode("op", {"k": b"\x00\x01"}).replace(b">AAE=<", b">AAE<"),
        b"<Envelope><Body/></Envelope>",
    ], ids=["entity-bomb", "truncated", "bad-base64", "no-operation"])
    def test_bytes_that_raise_raise_again_and_are_never_kept(self, data):
        for _ in range(2):
            with pytest.raises(MarshallingError):
                soap_decode(data)
        assert data not in soap._envelope_memo
