"""Property-based tests for the SOAP/WSDL layer."""

import ast
import base64
from pathlib import Path
from xml.etree import ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MarshallingError
from repro.obs.tracing import TraceContext
from repro.services import soap
from repro.services.soap import _ENV_NS, _RAVE_NS, soap_decode, soap_encode
from repro.services.wsdl import Operation, WsdlDocument, build_wsdl

# XML 1.0 forbids most control characters; generated text sticks to
# printable content, which is what service payloads carry anyway.
xml_text = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x2FF,
                           exclude_characters="\x7f"),
    max_size=40)

soap_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-2**62, 2**62),
        st.floats(allow_nan=False, allow_infinity=False),
        xml_text,
        st.binary(max_size=64),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(xml_text.filter(bool), children, max_size=4),
    ),
    max_leaves=15)


class TestSoapProperties:
    @given(st.dictionaries(xml_text.filter(bool), soap_values, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_body_roundtrip(self, body):
        env = soap_decode(soap_encode("op", body))
        assert env.operation == "op"
        assert env.body == body

    @given(st.integers(0, 2**32 - 1),
           st.sampled_from(["<f4", "<f8", "<i4", "<u2", "u1"]),
           st.integers(0, 50), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_ndarray_roundtrip(self, seed, dtype, n, cols):
        rng = np.random.default_rng(seed)
        arr = (rng.random((n, cols)) * 100).astype(np.dtype(dtype))
        env = soap_decode(soap_encode("op", {"a": arr}))
        back = env.body["a"]
        assert back.dtype == arr.dtype
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)

    @given(xml_text.filter(bool), xml_text)
    @settings(max_examples=60, deadline=None)
    def test_fault_roundtrip(self, code, reason):
        env = soap_decode(soap_encode("op", {}, fault=(code, reason)))
        assert env.is_fault
        assert env.fault == (code, reason)

    @given(st.dictionaries(xml_text.filter(bool), soap_values, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_envelope_always_parseable_xml(self, body):
        data = soap_encode("op", body)
        ET.fromstring(data)   # must not raise


# --------------------------------------------------------------------------
# byte identity: the writer is specified by ElementTree's serialisation
# --------------------------------------------------------------------------


def _reference_element(parent: ET.Element, name: str, value) -> None:
    el = ET.SubElement(parent, name)
    if value is None:
        el.set("xsi-nil", "true")
    elif isinstance(value, bool):
        el.set("type", "xsd:boolean")
        el.text = "true" if value else "false"
    elif isinstance(value, (int, np.integer)):
        el.set("type", "xsd:long")
        el.text = str(int(value))
    elif isinstance(value, (float, np.floating)):
        el.set("type", "xsd:double")
        el.text = repr(float(value))
    elif isinstance(value, str):
        el.set("type", "xsd:string")
        el.text = value
    elif isinstance(value, (bytes, bytearray, memoryview)):
        el.set("type", "xsd:base64Binary")
        el.text = base64.b64encode(bytes(value)).decode("ascii")
    elif isinstance(value, np.ndarray):
        # ascontiguousarray promotes 0-d to 1-d; reshape restores the rank
        arr = np.ascontiguousarray(value).reshape(value.shape)
        el.set("type", "rave:ndarray")
        el.set("dtype", arr.dtype.str)
        el.set("shape", ",".join(str(s) for s in arr.shape))
        el.text = base64.b64encode(arr.tobytes()).decode("ascii")
    elif isinstance(value, (list, tuple)):
        el.set("type", "rave:list")
        for item in value:
            _reference_element(el, "item", item)
    elif isinstance(value, dict):
        el.set("type", "rave:struct")
        for key, item in value.items():
            if not isinstance(key, str) or not key:
                raise MarshallingError(f"SOAP struct keys must be str: {key!r}")
            entry = ET.SubElement(el, "entry")
            entry.set("key", key)
            _reference_element(entry, "value", item)
    else:
        raise MarshallingError(
            f"cannot SOAP-encode value of type {type(value).__name__}")


def reference_encode(operation, body=None, fault=None, trace=None) -> bytes:
    """``soap_encode`` as it was while it built a tree: the specification.

    The envelope is an ``ElementTree`` handed to ``ET.tostring``; the
    writer in ``services/soap.py`` must emit these bytes exactly.
    """
    envelope = ET.Element("Envelope")
    envelope.set("xmlns", _ENV_NS)
    envelope.set("xmlns:rave", _RAVE_NS)
    header_el = ET.SubElement(envelope, "Header")
    if trace is not None:
        trace_el = ET.SubElement(header_el, "TraceContext")
        trace_el.set("traceId", trace.trace_id)
        trace_el.set("spanId", trace.span_id)
    body_el = ET.SubElement(envelope, "Body")
    if fault is not None:
        fault_el = ET.SubElement(body_el, "Fault")
        code_el = ET.SubElement(fault_el, "Code")
        code_el.text = fault[0]
        reason_el = ET.SubElement(fault_el, "Reason")
        reason_el.text = fault[1]
    op_el = ET.SubElement(body_el, "Operation")
    op_el.set("name", operation)
    for key, value in (body or {}).items():
        entry = ET.SubElement(op_el, "arg")
        entry.set("key", key)
        _reference_element(entry, "value", value)
    return ET.tostring(envelope, encoding="utf-8", xml_declaration=True)


# any text at all: control characters, non-BMP, lone surrogates.  XML 1.0
# cannot carry all of it back, so only the bytes are compared here.
any_text = st.text(max_size=20)
wire_arrays = st.builds(
    lambda dtype, shape, seed: (np.random.default_rng(seed).random(shape)
                                * 100).astype(dtype),
    st.sampled_from(["<f4", "<f8", "<i4", "<u2", "u1"]),
    st.one_of(st.just(()), st.tuples(st.integers(0, 5)),
              st.tuples(st.integers(0, 4), st.integers(0, 3))),
    st.integers(0, 2**32 - 1))
any_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-2**62, 2**62),
        st.integers(-2**31, 2**31 - 1).map(np.int32),
        st.integers(0, 2**63).map(np.uint64),
        st.floats(),
        st.floats(width=32).map(np.float32),
        st.floats().map(np.float64),
        any_text,
        st.binary(max_size=32),
        st.binary(max_size=32).map(bytearray),
        st.binary(max_size=32).map(memoryview),
        wire_arrays,
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(any_text.filter(bool), children, max_size=4),
    ),
    max_leaves=15)
traces = st.builds(TraceContext, trace_id=any_text, span_id=any_text)

#: one case per escape and per short-form rule, so a failure names its rule:
#: (id, soap_encode kwargs, a fragment the envelope must contain)
_RULES = [
    ("text-amp", dict(body={"k": "a&b"}), b">a&amp;b<"),
    ("text-lt", dict(body={"k": "a<b"}), b">a&lt;b<"),
    ("text-gt", dict(body={"k": "a]]>b"}), b">a]]&gt;b<"),
    ("text-keeps-quote-cr-lf-tab", dict(body={"k": "\"'\r\n\t"}),
     b">\"'\r\n\t<"),
    ("text-control-chars-verbatim", dict(body={"k": "\x00\x01"}),
     b">\x00\x01<"),
    ("text-non-bmp-is-utf8", dict(body={"k": "é\U0001f600"}),
     "é\U0001f600".encode()),
    ("text-lone-surrogate-charref", dict(body={"k": "\ud800"}),
     b">&#55296;<"),
    ("attr-amp", dict(body={"a&b": 1}), b'key="a&amp;b"'),
    ("attr-lt", dict(body={"a<b": 1}), b'key="a&lt;b"'),
    ("attr-gt", dict(body={"a>b": 1}), b'key="a&gt;b"'),
    ("attr-quote", dict(body={"a\"b": 1}), b'key="a&quot;b"'),
    ("attr-apostrophe-verbatim", dict(body={"a'b": 1}), b"key=\"a'b\""),
    ("attr-cr", dict(body={"a\rb": 1}), b'key="a&#13;b"'),
    ("attr-lf", dict(body={"a\nb": 1}), b'key="a&#10;b"'),
    ("attr-tab", dict(body={"a\tb": 1}), b'key="a&#09;b"'),
    ("attr-lone-surrogate-charref", dict(body={"\udfff": 1}),
     b'key="&#57343;"'),
    ("attr-struct-key", dict(body={"k": {"<\n>": 1}}),
     b'<entry key="&lt;&#10;&gt;">'),
    ("attr-operation", dict(operation="a\"&\n"),
     b'<Operation name="a&quot;&amp;&#10;" />'),
    ("attr-dtype", dict(body={"k": np.zeros(1, "<f4")}), b'dtype="&lt;f4"'),
    ("attr-trace", dict(trace=TraceContext(trace_id="t\"\n", span_id="<s>")),
     b'<TraceContext traceId="t&quot;&#10;" spanId="&lt;s&gt;" />'),
    ("text-fault", dict(fault=("a&b", "<why>")),
     b"<Code>a&amp;b</Code><Reason>&lt;why&gt;</Reason>"),
    ("declaration", dict(), b"<?xml version='1.0' encoding='utf-8'?>\n<Env"),
    ("short-header", dict(), b"<Header /><Body>"),
    ("short-operation-no-body", dict(body=None), b'<Operation name="op" />'),
    ("short-operation-empty-body", dict(body={}), b'<Operation name="op" />'),
    ("short-nil", dict(body={"k": None}), b'<value xsi-nil="true" />'),
    ("short-empty-string", dict(body={"k": ""}),
     b'<value type="xsd:string" />'),
    ("short-empty-bytes", dict(body={"k": b""}),
     b'<value type="xsd:base64Binary" />'),
    ("short-empty-list", dict(body={"k": []}), b'<value type="rave:list" />'),
    ("short-empty-tuple", dict(body={"k": ()}), b'<value type="rave:list" />'),
    ("short-empty-struct", dict(body={"k": {}}),
     b'<value type="rave:struct" />'),
    ("short-empty-array", dict(body={"k": np.zeros((0, 3), "<i4")}),
     b'<value type="rave:ndarray" dtype="&lt;i4" shape="0,3" />'),
    ("short-nested-item", dict(body={"k": [""]}),
     b'<item type="xsd:string" />'),
    ("short-fault-code", dict(fault=("", "why")), b"<Fault><Code /><Reason>"),
    ("short-fault-reason", dict(fault=("Sender", "")),
     b"</Code><Reason /></Fault>"),
    ("array-0d-has-empty-shape", dict(body={"k": np.array(5.0)}),
     b'dtype="&lt;f8" shape="">'),
    ("array-2d-shape", dict(body={"k": np.zeros((2, 3), "u1")}),
     b'dtype="|u1" shape="2,3">AAAAAAAA<'),
    ("array-strided-is-c-order", dict(body={"k": np.arange(6, dtype="u1")
                                            .reshape(2, 3).T}),
     b'shape="3,2">AAMBBAIF<'),
]


class TestByteIdentity:
    """``soap_encode`` emits what ``ET.tostring`` emitted, byte for byte.

    An envelope's length is its simulated transfer time and its
    ``soap_cpu_seconds``, so this is what keeps Table 5, the ablations and
    every same-seed replay where they are.
    """

    @given(operation=any_text,
           body=st.one_of(st.none(), st.dictionaries(any_text, any_values,
                                                     max_size=5)),
           fault=st.one_of(st.none(), st.tuples(any_text, any_text)),
           trace=st.one_of(st.none(), traces))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_elementtree_reference(self, operation, body, fault,
                                               trace):
        assert (soap_encode(operation, body, fault, trace)
                == reference_encode(operation, body, fault, trace))

    @pytest.mark.parametrize("kwargs,fragment",
                             [pytest.param(k, f, id=i) for i, k, f in _RULES])
    def test_rule(self, kwargs, fragment):
        kwargs = {"operation": "op", **kwargs}
        data = soap_encode(**kwargs)
        assert data == reference_encode(**kwargs)
        assert fragment in data

    @pytest.mark.parametrize("kwargs", [
        dict(operation=5),
        dict(operation=b"op"),
        dict(operation="op", body={5: 1}),
        dict(operation="op", body={None: 1}),
        dict(operation="op", fault=(5, "why")),
        dict(operation="op", fault=("Sender", b"why")),
        dict(operation="op", trace=TraceContext(trace_id=7, span_id="s")),
        dict(operation="op", trace=TraceContext(trace_id="t", span_id=None)),
    ], ids=repr)
    def test_non_str_names_raise_and_are_not_stringified(self, kwargs):
        with pytest.raises(TypeError, match="cannot serialize"):
            reference_encode(**kwargs)
        with pytest.raises(TypeError, match="cannot serialize"):
            soap_encode(**kwargs)

    @pytest.mark.parametrize("key", [5, None, ""], ids=repr)
    def test_struct_keys_must_be_non_empty_str(self, key):
        with pytest.raises(MarshallingError, match="struct keys"):
            soap_encode("op", {"k": {key: 1}})

    def test_the_encoder_builds_no_tree(self):
        """The ElementTree build is the reference above; it must not grow
        back on the encode path in ``services/soap.py``."""
        tree = ast.parse(Path(soap.__file__).read_text())
        builders = {"tostring", "SubElement"}
        found = {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr in builders}
        found |= {alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  for alias in node.names if alias.name in builders}
        assert not found, f"services/soap.py uses {sorted(found)}"


op_names = st.text(
    alphabet=st.characters(min_codepoint=ord("a"), max_codepoint=ord("z")),
    min_size=1, max_size=12)
params = st.lists(
    st.tuples(op_names, st.sampled_from(
        ["xsd:string", "xsd:long", "xsd:double", "rave:struct"])),
    max_size=4).map(tuple)


class TestWsdlProperties:
    @given(st.lists(
        st.builds(Operation, name=op_names, inputs=params, outputs=params),
        min_size=1, max_size=5, unique_by=lambda op: op.name))
    @settings(max_examples=60, deadline=None)
    def test_xml_roundtrip_preserves_signature(self, operations):
        doc = build_wsdl("Svc", operations)
        back = WsdlDocument.from_xml(doc.to_xml())
        assert back.signature() == doc.signature()
        assert back.compatible_with(doc)

    @given(st.lists(
        st.builds(Operation, name=op_names, inputs=params, outputs=params),
        min_size=2, max_size=5, unique_by=lambda op: op.name))
    @settings(max_examples=40, deadline=None)
    def test_signature_order_independent(self, operations):
        a = build_wsdl("Svc", operations)
        b = build_wsdl("Svc", list(reversed(operations)))
        assert a.signature() == b.signature()

    @given(st.builds(Operation, name=op_names, inputs=params,
                     outputs=params))
    @settings(max_examples=40, deadline=None)
    def test_adding_an_operation_changes_signature(self, extra):
        base = build_wsdl("Svc", [Operation("ping")])
        if extra.name == "ping":
            return
        extended = build_wsdl("Svc", [Operation("ping"), extra])
        assert base.signature() != extended.signature()
