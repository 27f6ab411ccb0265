"""One value grammar, checked against the four walks that implement it.

The control plane (``services/soap.py::_encode_element``), the data plane
(``network/marshalling.py::_encode_into``) and the two cost walks beside it
(``count_fields``, ``payload_nbytes``) are four hand-written type switches
over the same values: None, bool, int, float, str, bytes, ndarray, list,
dict.  They stay hand-written -- a shared walker with emitter callbacks
costs a Python call per node -- so this table is what keeps them one
grammar: every kind is accepted by both planes and comes back equal, or is
refused by both with :class:`MarshallingError`.
"""

from __future__ import annotations

import ast
import inspect
import textwrap

import numpy as np
import pytest

from repro.errors import MarshallingError
from repro.network import marshalling
from repro.network.marshalling import (
    IntrospectionMarshaller,
    count_fields,
    decode_value,
    encode_value,
    payload_nbytes,
)
from repro.services import soap
from repro.services.soap import soap_decode, soap_encode

#: kind -> (value sent, value expected back) examples
ACCEPTED = {
    "none": [(None, None)],
    "bool": [(True, True), (False, False)],
    "int": [(0, 0), (-1, -1), (2**62, 2**62)],
    "np.integer": [(np.int32(-7), -7), (np.uint8(200), 200),
                   (np.int64(2**40), 2**40)],
    "float": [(0.0, 0.0), (-2.5, -2.5), (1e300, 1e300)],
    "np.floating": [(np.float32(1.5), 1.5), (np.float64(-0.1), -0.1)],
    "str": [("", ""), ("héllo <&> \U0001f600", "héllo <&> \U0001f600")],
    "bytes": [(b"", b""), (b"twelve bytes", b"twelve bytes")],
    "bytearray": [(bytearray(b"twelve bytes"), b"twelve bytes")],
    "memoryview": [(memoryview(b"twelve bytes"), b"twelve bytes")],
    "ndarray-0d": [(np.array(5.0), np.array(5.0)),
                   (np.array(3, dtype="u1"), np.array(3, dtype="u1"))],
    "ndarray-1d": [(np.arange(5, dtype="<i4"), np.arange(5, dtype="<i4"))],
    "ndarray-2d": [(np.arange(6, dtype="<f4").reshape(2, 3),
                    np.arange(6, dtype="<f4").reshape(2, 3)),
                   # not contiguous: goes out in C order
                   (np.arange(6, dtype="<u2").reshape(2, 3).T,
                    np.arange(6, dtype="<u2").reshape(2, 3).T.copy())],
    "ndarray-empty": [(np.zeros((0, 3), "<f8"), np.zeros((0, 3), "<f8")),
                      (np.zeros(0, "u1"), np.zeros(0, "u1"))],
    "list": [([], []), ([1, "two", None, [3.0]], [1, "two", None, [3.0]])],
    "tuple": [((), []), ((1, (2, 3)), [1, [2, 3]])],
    "dict": [({}, {}), ({"k": {"n": [1, b"x"]}}, {"k": {"n": [1, b"x"]}})],
}


def nested(levels: int):
    value = "leaf"
    for _ in range(levels):
        value = [value]
    return value


REJECTED = {
    "np.bool_": np.bool_(True),
    "set": {1, 2},
    "object": object(),
    "complex": 1j,
    "non-str-key": {1: "x"},
    "nested-non-str-key": {"k": [{None: 1}]},
    "nesting-past-max-depth": nested(marshalling._MAX_DEPTH + 1),
}

#: the four hand-written walks over the grammar
WALKS = {
    "soap._encode_element":
        lambda value: soap._encode_element([], "value", value),
    "marshalling._encode_into":
        lambda value: marshalling._encode_into([], value, 0),
    "count_fields": count_fields,
    "payload_nbytes": payload_nbytes,
}
#: the two of them that decide what may go on a wire
ENCODERS = ("soap._encode_element", "marshalling._encode_into")

accepted = pytest.mark.parametrize(
    "sent,expected",
    [pytest.param(s, e, id=f"{kind}-{i}")
     for kind, examples in ACCEPTED.items()
     for i, (s, e) in enumerate(examples)])


def same(a, b) -> bool:
    """Equal values of equal type and, for arrays, dtype and shape."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and a.shape == b.shape
                and np.array_equal(a, b))
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b


def via_soap(value):
    return soap_decode(soap_encode("op", {"v": value})).body["v"]


def via_binary(value):
    return decode_value(encode_value(value))


class TestAcceptedKinds:
    @accepted
    @pytest.mark.parametrize("walk", WALKS)
    def test_every_walk_takes_it(self, walk, sent, expected):
        WALKS[walk](sent)

    @accepted
    def test_both_planes_return_the_same_value(self, sent, expected):
        assert same(via_soap(sent), expected)
        assert same(via_binary(sent), expected)

    @accepted
    def test_cost_walks_agree_before_and_after_the_wire(self, sent, expected):
        assert count_fields(sent) == count_fields(expected) >= 1
        assert payload_nbytes(sent) == payload_nbytes(expected)

    @pytest.mark.parametrize("value", [
        b"twelve bytes", bytearray(b"twelve bytes"),
        memoryview(b"twelve bytes"),
        np.arange(6, dtype="<f4").reshape(2, 3),
        np.arange(6, dtype="<u2").reshape(2, 3).T, np.array(5.0),
    ], ids=lambda v: type(v).__name__)
    def test_bulk_is_billed_what_the_encoder_ships(self, value):
        # the payload is the tail of the encoding, after tag and lengths
        shipped = bytes(value) if not isinstance(value, np.ndarray) \
            else value.tobytes()
        assert encode_value(value).endswith(shipped)
        assert payload_nbytes(value) == len(shipped)
        cost = IntrospectionMarshaller(n_interfaces=0)
        assert cost.marshal(value).cpu_seconds == pytest.approx(
            len(shipped) * cost.SECONDS_PER_BYTE + cost.SECONDS_PER_FIELD)

    def test_a_str_is_billed_its_characters(self):
        # deliberately not its UTF-8 length: Table 5 was calibrated with it
        assert payload_nbytes("héllo") == 5 < len("héllo".encode())


class TestRejectedKinds:
    @pytest.mark.parametrize("walk", ENCODERS)
    @pytest.mark.parametrize("kind", REJECTED)
    def test_both_planes_refuse_it(self, kind, walk):
        with pytest.raises(MarshallingError):
            WALKS[walk](REJECTED[kind])

    def test_the_deepest_accepted_nesting_is_the_same(self):
        value = nested(marshalling._MAX_DEPTH)
        assert same(via_soap(value), value)
        assert same(via_binary(value), value)

    def test_an_empty_struct_key_is_the_one_known_difference(self):
        # SOAP refuses it inside a struct (an entry's key attribute must
        # name something); the binary plane carries it
        with pytest.raises(MarshallingError, match="struct keys"):
            soap_encode("op", {"v": {"": 1}})
        assert via_binary({"": 1}) == {"": 1}


def types_switched_on(function) -> set[str]:
    """Every type a walk names in an ``isinstance(value, ...)`` test."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", "")
                == "isinstance" and ast.unparse(node.args[0]) == "value"):
            spec = node.args[1]
            names.update(ast.unparse(e) for e in
                         (spec.elts if isinstance(spec, ast.Tuple) else [spec]))
    return names


def test_both_planes_switch_on_the_same_types():
    """A type added to one plane's switch is missing from the other's."""
    control = types_switched_on(soap._encode_element)
    data = types_switched_on(marshalling._encode_into)
    # the binary plane tests the two bools by identity
    assert "np.ndarray" in data
    assert control - {"bool"} == data
