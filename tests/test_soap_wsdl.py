"""SOAP envelopes, WSDL documents, and the transport channels."""

import time
import tracemalloc

import numpy as np
import pytest

from repro.errors import MarshallingError, NetworkError, SoapFault
from repro.network.simnet import Network
from repro.network.transport import BinaryChannel, SoapChannel
from repro.services.soap import (
    SoapEnvelope,
    soap_cpu_seconds,
    soap_decode,
    soap_encode,
)
from repro.services.wsdl import (
    DATA_SERVICE_WSDL,
    FRAME_QUEUE_WSDL,
    MONITOR_SERVICE_WSDL,
    Operation,
    RENDER_SERVICE_WSDL,
    WsdlDocument,
    build_wsdl,
)


class TestSoapEnvelope:
    def test_roundtrip_scalars(self):
        data = soap_encode("getCapacity", {
            "count": 42, "rate": 3.5, "name": "rs", "ok": True,
            "nothing": None})
        env = soap_decode(data)
        assert env.operation == "getCapacity"
        assert env.body == {"count": 42, "rate": 3.5, "name": "rs",
                            "ok": True, "nothing": None}

    def test_roundtrip_arrays_base64(self):
        arr = np.arange(12, dtype=np.float32).reshape(3, 4)
        env = soap_decode(soap_encode("op", {"m": arr}))
        assert np.array_equal(env.body["m"], arr)
        assert env.body["m"].dtype == np.float32

    def test_roundtrip_nested(self):
        body = {"cam": {"pos": [1.0, 2.0], "deep": {"x": b"\x00\x01"}}}
        env = soap_decode(soap_encode("op", body))
        assert env.body == body

    def test_xml_is_humanly_xml(self):
        data = soap_encode("op", {"a": 1})
        assert data.startswith(b"<?xml")
        assert b"Envelope" in data and b"Operation" in data

    def test_xml_overhead_vs_binary(self):
        """SOAP's size blow-up — the reason RAVE backs off to sockets."""
        from repro.network.marshalling import encode_value

        arr = np.zeros(10000, dtype=np.float32)
        soap_len = len(soap_encode("op", {"data": arr}))
        bin_len = len(encode_value({"data": arr}))
        assert soap_len > 1.25 * bin_len   # base64 alone is 4/3

    def test_fault_roundtrip(self):
        data = soap_encode("op", {}, fault=("Receiver", "no such session"))
        env = soap_decode(data)
        assert env.is_fault
        with pytest.raises(SoapFault) as info:
            env.raise_for_fault()
        assert "no such session" in str(info.value)

    def test_no_fault_passthrough(self):
        env = SoapEnvelope(operation="x")
        env.raise_for_fault()  # no-op

    def test_malformed_xml(self):
        with pytest.raises(MarshallingError):
            soap_decode(b"<unclosed>")

    def test_missing_operation(self):
        with pytest.raises(MarshallingError):
            soap_decode(b"<?xml version='1.0'?><Envelope><Body/></Envelope>")

    def test_unsupported_value(self):
        with pytest.raises(MarshallingError):
            soap_encode("op", {"bad": object()})

    @pytest.mark.parametrize("open_tag,prefix", [
        ("<Envelope>", ""),
        ('<Envelope xmlns="urn:someone:else">', ""),
        ('<e:Envelope xmlns:e="http://www.w3.org/2003/05/soap-envelope">',
         "e:"),
    ], ids=["no-namespace", "foreign-default-namespace", "prefixed"])
    def test_elements_are_found_by_local_name(self, open_tag, prefix):
        p = prefix
        data = (f"{open_tag}<{p}Header><{p}TraceContext traceId='t' "
                f"spanId='s'/></{p}Header><{p}Body><{p}Fault><{p}Code/>"
                f"</{p}Fault><{p}Operation name='op'><arg key='n'>"
                f"<value type='xsd:long'>7</value></arg></{p}Operation>"
                f"</{p}Body></{p}Envelope>").encode()
        env = soap_decode(data)
        assert (env.operation, env.body) == ("op", {"n": 7})
        assert (env.trace.trace_id, env.trace.span_id) == ("t", "s")
        # an empty Code is '', an absent Reason is its default
        assert env.fault == ("", "")

    def test_absent_fault_code_defaults_to_receiver(self):
        env = soap_decode(b"<Envelope><Body><Fault><Reason>why</Reason>"
                          b"</Fault><Operation name='op'/></Body></Envelope>")
        assert env.fault == ("Receiver", "why")

    def test_only_direct_children_are_looked_up(self):
        # an Operation nested somewhere else is not the body's Operation
        with pytest.raises(MarshallingError, match="no Operation"):
            soap_decode(b"<Envelope><Body><x><Operation name='op'/></x>"
                        b"</Body></Envelope>")

    def test_cpu_cost_scales(self):
        assert soap_cpu_seconds(10**6) > soap_cpu_seconds(10**3)
        assert soap_cpu_seconds(1000, cpu_factor=2.0) == pytest.approx(
            soap_cpu_seconds(1000) / 2)


class TestWsdl:
    def test_signature_stable_under_operation_order(self):
        ops = [Operation("a", (("x", "xsd:int"),)), Operation("b")]
        w1 = build_wsdl("S", ops)
        w2 = build_wsdl("S", list(reversed(ops)))
        assert w1.signature() == w2.signature()

    def test_signature_differs_on_params(self):
        w1 = build_wsdl("S", [Operation("a", (("x", "xsd:int"),))])
        w2 = build_wsdl("S", [Operation("a", (("x", "xsd:string"),))])
        assert w1.signature() != w2.signature()

    def test_compatibility_is_tmodel_match(self):
        clone = build_wsdl("OtherName", list(RENDER_SERVICE_WSDL.operations))
        assert clone.compatible_with(RENDER_SERVICE_WSDL)
        assert not DATA_SERVICE_WSDL.compatible_with(RENDER_SERVICE_WSDL)

    def test_xml_roundtrip(self):
        back = WsdlDocument.from_xml(RENDER_SERVICE_WSDL.to_xml())
        assert back.compatible_with(RENDER_SERVICE_WSDL)
        assert back.service_name == "RaveRenderService"

    def test_endpoint_in_xml(self):
        doc = build_wsdl("S", [Operation("a")],
                         endpoint="http://host:8080/axis/S")
        back = WsdlDocument.from_xml(doc.to_xml())
        assert back.endpoint == "http://host:8080/axis/S"

    def test_operation_lookup(self):
        assert RENDER_SERVICE_WSDL.operation("getCapacity").name == \
            "getCapacity"
        with pytest.raises(KeyError):
            RENDER_SERVICE_WSDL.operation("nope")

    def test_duplicate_operations_rejected(self):
        with pytest.raises(ValueError):
            build_wsdl("S", [Operation("a"), Operation("a")])

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            build_wsdl("", [])

    def test_malformed_xml(self):
        with pytest.raises(MarshallingError):
            WsdlDocument.from_xml(b"<oops")

    def test_unknown_encoding_is_malformed(self):
        with pytest.raises(MarshallingError, match="encoding"):
            WsdlDocument.from_xml(b"<?xml version='1.0' encoding='bogus'?>"
                                  b"<definitions/>")

    @pytest.mark.parametrize("doc", [
        DATA_SERVICE_WSDL, RENDER_SERVICE_WSDL, MONITOR_SERVICE_WSDL,
        FRAME_QUEUE_WSDL,
        build_wsdl("S", [Operation("a", (("x", "xsd:int"),))],
                   endpoint="http://host:8080/axis/S", namespace="urn:x",
                   documentation="<&> — 'quoted' \"twice\""),
    ], ids=["data", "render", "monitor", "frame-queue", "escaped"])
    def test_every_document_roundtrips_equal(self, doc):
        assert WsdlDocument.from_xml(doc.to_xml()) == doc

    def test_an_entity_bomb_is_refused_in_bounded_memory(self):
        entities = "".join(['<!ENTITY a0 "lol">'] + [
            f'<!ENTITY a{i} "{f"&a{i - 1};" * 10}">' for i in range(1, 9)])
        bomb = (f"<!DOCTYPE definitions [{entities}]><definitions name='S'>"
                f"<documentation>&a8;</documentation></definitions>").encode()
        assert len(bomb) < 600
        tracemalloc.start()
        try:
            started = time.perf_counter()
            with pytest.raises(MarshallingError, match="DOCTYPE"):
                WsdlDocument.from_xml(bomb)
            elapsed = time.perf_counter() - started
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # expanding its 10**8 "lol"s would take most of a second and tens
        # of megabytes before expat's amplification limit stopped it
        assert elapsed < 0.010
        assert peak < 1_000_000

    def test_digest_is_short_and_stable(self):
        d1 = RENDER_SERVICE_WSDL.signature_digest()
        d2 = RENDER_SERVICE_WSDL.signature_digest()
        assert d1 == d2 and len(d1) == 16


@pytest.fixture
def two_hosts():
    net = Network()
    net.add_host("a")
    net.add_host("b")
    net.add_link("a", "b", 100e6, 0.0002)
    return net


class TestChannels:
    def test_soap_channel_roundtrip(self, two_hosts):
        ch = SoapChannel(two_hosts, "a", "b")
        (op, body), timing = ch.send(("hello", {"x": 1}))
        assert op == "hello" and body == {"x": 1}
        assert timing.total_seconds > 0
        assert timing.nbytes > 100

    def test_soap_channel_advances_clock(self, two_hosts):
        ch = SoapChannel(two_hosts, "a", "b")
        before = two_hosts.sim.clock.now
        _, timing = ch.send(("op", {}))
        assert two_hosts.sim.clock.now == pytest.approx(
            before + timing.total_seconds)

    def test_binary_channel_roundtrip(self, two_hosts):
        ch = BinaryChannel(two_hosts, "a", "b")
        value = {"arr": np.arange(5, dtype=np.int64), "s": "x"}
        out, timing = ch.send(value)
        assert out["s"] == "x"
        assert np.array_equal(out["arr"], value["arr"])

    def test_binary_beats_soap_for_bulk(self, two_hosts):
        """The §4.3 design rule: binary for data, SOAP only for control."""
        payload = {"data": np.zeros(100_000, np.float32)}
        _, t_bin = BinaryChannel(two_hosts, "a", "b").send(payload)
        _, t_soap = SoapChannel(two_hosts, "a", "b").send(("op", payload))
        assert t_soap.nbytes > t_bin.nbytes
        assert t_soap.total_seconds > t_bin.total_seconds

    def test_introspective_binary_channel_slower(self, two_hosts):
        payload = {"data": np.zeros(100_000, np.float32)}
        _, fast = BinaryChannel(two_hosts, "a", "b").send(payload)
        _, slow = BinaryChannel(two_hosts, "a", "b",
                                introspective=True).send(payload)
        assert slow.marshal_seconds > 10 * fast.marshal_seconds

    def test_request_combines_timings(self, two_hosts):
        ch = SoapChannel(two_hosts, "a", "b")
        resp, timing = ch.request(("q", {"n": 1}), ("r", {"n": 2}))
        assert resp[0] == "r"
        assert timing.nbytes > 200   # both directions

    def test_unknown_host(self, two_hosts):
        with pytest.raises(NetworkError):
            SoapChannel(two_hosts, "a", "ghost")

    def test_soap_payload_type_checked(self, two_hosts):
        ch = SoapChannel(two_hosts, "a", "b")
        with pytest.raises(NetworkError):
            ch.send([1, 2, 3])

    def test_channel_statistics(self, two_hosts):
        ch = BinaryChannel(two_hosts, "a", "b")
        ch.send({"x": 1})
        ch.send({"x": 2})
        assert ch.messages_sent == 2
        assert ch.bytes_sent > 0
