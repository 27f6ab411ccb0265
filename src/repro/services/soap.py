"""SOAP envelope encoding/decoding.

"Grid and Web services both implement remote procedure calls by sending the
procedure arguments and results in XML format (using SOAP).  They are hence
not tied to any particular architecture ... This also means that they are
not suited to large data transmission or low latency, due to the size of
the SOAP packets related to the size of the data, and the time required to
marshall/demarshall the data."  (paper §4.3)

This module makes that trade-off concrete: a real XML envelope codec whose
output *is* the bytes the simulated network carries.  Scalars become typed
elements, numpy arrays become base64 payloads (with the 4/3 size blow-up),
and the XML scaffolding adds the per-message overhead that motivates RAVE's
binary data plane.

:func:`soap_encode` writes those bytes directly, and they are specified by
``ElementTree``'s serialisation of the same envelope: an envelope's length
is its simulated transfer time, so every table and same-seed replay rests
on it.  The tree-building reference is ``reference_encode`` in
``tests/test_soap_properties.py``, compared byte for byte.  The rules:

- the ``<?xml version='1.0' encoding='utf-8'?>`` declaration and a newline;
- attributes in the order written here;
- an element with no text and no children is ``<tag ... />`` (an empty
  ``Header``, string, list, struct, array or fault field; an ``Operation``
  with no arguments);
- ``& < >`` are ``&amp; &lt; &gt;`` in text; attribute values escape those
  and ``" \\r \\n \\t`` as ``&quot; &#13; &#10; &#09;``;
- what UTF-8 cannot carry (a lone surrogate) is a ``&#N;`` reference.

:func:`soap_decode` leaves hostile bytes to expat, refuses a document
type declaration before any entity in it is declared (SOAP 1.2 Part 1
§5 forbids one in a SOAP message), and finds elements by local name,
whatever their prefix or namespace.  An envelope it has parsed recently
is not parsed again (see its docstring).
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass, field
from xml.etree import ElementTree as ET
from xml.parsers import expat

import numpy as np

from repro.errors import MarshallingError, SoapFault
from repro.network.marshalling import _MAX_DEPTH, DecodeMemo, fresh
from repro.obs.tracing import TraceContext

_ENV_NS = "http://www.w3.org/2003/05/soap-envelope"
_RAVE_NS = "urn:rave:sc2004"
_ENVELOPE_OPEN = ("<?xml version='1.0' encoding='utf-8'?>\n"
                  f'<Envelope xmlns="{_ENV_NS}" xmlns:rave="{_RAVE_NS}">')

#: simulated CPU seconds per byte of XML text processed (parse/serialise);
#: calibrated so a warm UDDI scan of a handful of kilobyte-scale responses
#: costs tens of milliseconds, as in Table 5.
XML_SECONDS_PER_BYTE = 1.2e-7
#: fixed per-envelope cost (DOM setup, schema checks)
ENVELOPE_FIXED_SECONDS = 2.5e-3


@dataclass
class SoapEnvelope:
    """A decoded SOAP message: operation name, body values, optional fault.

    ``trace`` is the cross-service trace context carried in the SOAP
    Header (a ``rave:TraceContext`` element), the control-plane twin of
    the binary frame header's ``FLAG_TRACE`` prefix.
    """

    operation: str
    body: dict = field(default_factory=dict)
    fault: tuple[str, str] | None = None  # (code, reason)
    trace: TraceContext | None = None

    @property
    def is_fault(self) -> bool:
        return self.fault is not None

    def raise_for_fault(self) -> None:
        if self.fault is not None:
            raise SoapFault(*self.fault)


def _text(text: str) -> str:
    """Escape character data the way ``ElementTree`` does."""
    if not isinstance(text, str):  # as ElementTree: never stringified
        raise TypeError(f"cannot serialize {text!r} (type {type(text).__name__})")
    if "&" in text:
        text = text.replace("&", "&amp;")
    if "<" in text:
        text = text.replace("<", "&lt;")
    if ">" in text:
        text = text.replace(">", "&gt;")
    return text


def _attr(text: str) -> str:
    """Escape an attribute value the way ``ElementTree`` does."""
    text = _text(text)
    if '"' in text:
        text = text.replace('"', "&quot;")
    if "\r" in text:
        text = text.replace("\r", "&#13;")
    if "\n" in text:
        text = text.replace("\n", "&#10;")
    if "\t" in text:
        text = text.replace("\t", "&#09;")
    return text


def _element(head: str, name: str, text: str) -> str:
    """``<head>text</name>``, or the ``<head />`` short form when empty."""
    return f"<{head}>{text}</{name}>" if text else f"<{head} />"


def _encode_element(out: list[str], name: str, value, depth: int = 0) -> None:
    """Append the XML of one typed value element to ``out``."""
    if depth > _MAX_DEPTH:
        raise MarshallingError("value nesting exceeds maximum depth")
    if value is None:
        out.append(f'<{name} xsi-nil="true" />')
    elif isinstance(value, bool):
        text = "true" if value else "false"
        out.append(f'<{name} type="xsd:boolean">{text}</{name}>')
    elif isinstance(value, (int, np.integer)):
        out.append(f'<{name} type="xsd:long">{int(value)}</{name}>')
    elif isinstance(value, (float, np.floating)):
        out.append(f'<{name} type="xsd:double">{float(value)!r}</{name}>')
    elif isinstance(value, str):
        out.append(_element(f'{name} type="xsd:string"', name, _text(value)))
    elif isinstance(value, (bytes, bytearray, memoryview)):
        out.append(_element(f'{name} type="xsd:base64Binary"', name,
                            base64.b64encode(bytes(value)).decode("ascii")))
    elif isinstance(value, np.ndarray):
        # tobytes() is C-order whatever the strides; a 0-d array has shape=""
        shape = ",".join(map(str, value.shape))
        out.append(_element(
            f'{name} type="rave:ndarray" dtype="{_attr(value.dtype.str)}"'
            f' shape="{shape}"', name,
            base64.b64encode(value.tobytes()).decode("ascii")))
    elif isinstance(value, (list, tuple)):
        if value:
            out.append(f'<{name} type="rave:list">')
            for item in value:
                _encode_element(out, "item", item, depth + 1)
            out.append(f"</{name}>")
        else:
            out.append(f'<{name} type="rave:list" />')
    elif isinstance(value, dict):
        if value:
            out.append(f'<{name} type="rave:struct">')
            for key, item in value.items():
                if not isinstance(key, str) or not key:
                    raise MarshallingError(
                        f"SOAP struct keys must be str: {key!r}")
                out.append(f'<entry key="{_attr(key)}">')
                _encode_element(out, "value", item, depth + 1)
                out.append("</entry>")
            out.append(f"</{name}>")
        else:
            out.append(f'<{name} type="rave:struct" />')
    else:
        raise MarshallingError(
            f"cannot SOAP-encode value of type {type(value).__name__}")


def _decode_element(el: ET.Element, depth: int = 0):
    if depth > _MAX_DEPTH:
        raise MarshallingError("SOAP value nesting exceeds maximum depth")
    if el.get("xsi-nil") == "true":
        return None
    kind = el.get("type", "xsd:string")
    text = el.text or ""
    if kind == "xsd:boolean":
        return text.strip() == "true"
    if kind == "xsd:long":
        return int(text)
    if kind == "xsd:double":
        return float(text)
    if kind == "xsd:string":
        return text
    if kind == "xsd:base64Binary":
        return base64.b64decode(text)
    if kind == "rave:ndarray":
        dtype = np.dtype(el.get("dtype", "<f8"))
        shape = tuple(int(s) for s in el.get("shape", "").split(",") if s != "")
        raw = base64.b64decode(text)
        expected = dtype.itemsize * math.prod(shape)
        if len(raw) != expected:
            raise MarshallingError(
                f"ndarray payload is {len(raw)} bytes, expected {expected}")
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    if kind == "rave:list":
        return [_decode_element(child, depth + 1) for child in el]
    if kind == "rave:struct":
        out = {}
        for entry in el:
            key = entry.get("key")
            if key is None or len(entry) != 1:
                raise MarshallingError("malformed SOAP struct entry")
            out[key] = _decode_element(entry[0], depth + 1)
        return out
    raise MarshallingError(f"unknown SOAP value type {kind!r}")


def soap_encode(operation: str, body: dict | None = None,
                fault: tuple[str, str] | None = None,
                trace: TraceContext | None = None) -> bytes:
    """Build a SOAP envelope; returns the XML bytes that go on the wire."""
    out = [_ENVELOPE_OPEN]
    if trace is None:
        out.append("<Header />")
    else:
        out.append(f'<Header><TraceContext traceId="{_attr(trace.trace_id)}"'
                   f' spanId="{_attr(trace.span_id)}" /></Header>')
    out.append("<Body>")
    if fault is not None:
        out.append("<Fault>" + _element("Code", "Code", _text(fault[0]))
                   + _element("Reason", "Reason", _text(fault[1])) + "</Fault>")
    if body:
        out.append(f'<Operation name="{_attr(operation)}">')
        for key, value in body.items():
            out.append(f'<arg key="{_attr(key)}">')
            _encode_element(out, "value", value)
            out.append("</arg>")
        out.append("</Operation></Body></Envelope>")
    else:
        out.append(f'<Operation name="{_attr(operation)}" /></Body></Envelope>')
    return "".join(out).encode("utf-8", "xmlcharrefreplace")


def _child(el: ET.Element, name: str) -> ET.Element | None:
    """First direct child with local name ``name``, whatever its prefix."""
    suffix = ":" + name
    for child in el:
        if child.tag == name or child.tag.endswith(suffix):
            return child
    return None


def _child_text(el: ET.Element, name: str, default: str) -> str:
    """``findtext`` by local name: absent -> ``default``, empty -> ``''``."""
    child = _child(el, name)
    return default if child is None else child.text or ""


def _refuse_doctype(*_declaration) -> None:
    raise MarshallingError("XML must not contain a DOCTYPE")


def _parse_xml(data: bytes) -> ET.Element:
    """expat into an ``ElementTree``, stopping at a DOCTYPE.

    The handler raises at ``<!DOCTYPE``, before the internal subset is
    read, so no entity is ever declared or expanded.  Namespace processing
    is off (it is a sixth of a cold parse): a tag keeps its prefix, as in
    ``e:Body``, and :func:`_child` matches the local part after it.
    """
    builder = ET.TreeBuilder()
    parser = expat.ParserCreate()
    parser.buffer_text = True
    parser.StartDoctypeDeclHandler = _refuse_doctype
    parser.StartElementHandler = builder.start
    parser.EndElementHandler = builder.end
    parser.CharacterDataHandler = builder.data
    parser.Parse(data, True)
    return builder.close()


def _parse_envelope(data: bytes) -> SoapEnvelope:
    try:
        return _decode_envelope(_parse_xml(data))
    except (expat.ExpatError, SyntaxError, ValueError, TypeError,
            LookupError) as exc:
        # expat's own errors, an unknown declared encoding (LookupError);
        # the leaf conversions raise the other kinds
        raise MarshallingError(f"malformed SOAP XML: {exc}") from exc


_envelope_memo = DecodeMemo(
    _parse_envelope,
    # positional: a third cheaper than keywords on every recalled envelope
    lambda env: SoapEnvelope(env.operation, fresh(env.body), env.fault,
                             env.trace))


def soap_decode(data: bytes) -> SoapEnvelope:
    """Parse a SOAP envelope produced by :func:`soap_encode`.

    Raises :class:`MarshallingError`, and nothing else, on bytes that are
    not such an envelope, a document type declaration included.

    The last 64 envelopes decoded, each at most 64 KiB, are kept by their
    exact bytes, so a repeated handshake or a constant response is parsed
    once.  Every call returns a fresh envelope whose body shares no dict,
    list or array with any other call's, and bytes that fail to decode are
    never kept.
    """
    return _envelope_memo(data)


def _decode_envelope(root: ET.Element) -> SoapEnvelope:
    trace = None
    header_el = _child(root, "Header")
    if header_el is not None:
        trace_el = _child(header_el, "TraceContext")
        if trace_el is not None:
            trace_id = trace_el.get("traceId", "")
            span_id = trace_el.get("spanId", "")
            if not trace_id or not span_id:
                raise MarshallingError(
                    "SOAP TraceContext header needs traceId and spanId")
            trace = TraceContext(trace_id=trace_id, span_id=span_id)
    body_el = _child(root, "Body")
    if body_el is None:
        raise MarshallingError("SOAP envelope has no Body")
    fault = None
    fault_el = _child(body_el, "Fault")
    if fault_el is not None:
        fault = (_child_text(fault_el, "Code", "Receiver"),
                 _child_text(fault_el, "Reason", ""))
    op_el = _child(body_el, "Operation")
    if op_el is None:
        raise MarshallingError("SOAP body has no Operation")
    body = {}
    for entry in op_el:
        key = entry.get("key")
        if key is None or len(entry) != 1:
            raise MarshallingError("malformed SOAP arg")
        body[key] = _decode_element(entry[0])
    return SoapEnvelope(operation=op_el.get("name", ""), body=body,
                        fault=fault, trace=trace)


def soap_cpu_seconds(nbytes: int, cpu_factor: float = 1.0) -> float:
    """Simulated CPU time to produce or parse ``nbytes`` of SOAP XML."""
    return (ENVELOPE_FIXED_SECONDS + nbytes * XML_SECONDS_PER_BYTE) / cpu_factor

