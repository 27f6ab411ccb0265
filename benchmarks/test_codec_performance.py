"""Wall-clock cost of the control plane's codecs, one call at a time.

``bench/run.py --workload grid_churn --trace 1`` reports these layers as
shares of an op; the cases here give each call its own number: the
subscribe envelope ``DataService.subscribe`` really sends (captured from a
live subscription, not written by hand), the ``uv_sphere(8, 8)`` scene's
``to_wire()`` dict ``grid_churn`` bootstraps with, and that dict through
the introspection marshaller, whose two cost walks (``count_fields``,
``payload_nbytes``) ride on every call.  No time is asserted and nothing is
written.

``soap_decode`` and ``demarshal`` recall the last 64 messages they decoded,
so each has a hit case (the same bytes every round) and a miss case (bytes
of the same shape that differ in one name every round, made outside the
timed call).
"""

import itertools

import pytest

from repro.data.generators import uv_sphere
from repro.network.marshalling import (
    IntrospectionMarshaller,
    decode_value,
    encode_value,
)
from repro.services import soap
from repro.services.soap import soap_decode, soap_encode
from repro.testbed import build_testbed


@pytest.fixture(scope="module")
def testbed():
    tb = build_testbed(render_hosts=("centrino",))
    tb.publish_model("scene", uv_sphere(nu=8, nv=8))
    return tb


@pytest.fixture(scope="module")
def subscribe_request(testbed):
    """The ``(operation, body)`` of a real subscribe handshake."""
    sent = []

    def recording(operation, body=None, fault=None, trace=None):
        sent.append((operation, body))
        return soap_encode(operation, body, fault, trace)

    # SoapChannel looks soap_encode up on the module at call time
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(soap, "soap_encode", recording)
        testbed.data_service.subscribe("scene", "bench-subscriber",
                                       host="centrino")
    return next(call for call in sent if call[0] == "subscribe")


@pytest.fixture(scope="module")
def scene_wire(testbed):
    return testbed.data_service.session("scene").tree.to_wire()


def test_soap_encode_subscribe(benchmark, subscribe_request):
    data = benchmark(soap_encode, *subscribe_request)
    assert b'<Operation name="subscribe">' in data


def test_soap_decode_subscribe_hit(benchmark, subscribe_request):
    operation, body = subscribe_request
    envelope = benchmark(soap_decode, soap_encode(operation, body))
    assert (envelope.operation, envelope.body) == (operation, body)


def test_soap_decode_subscribe_miss(benchmark, subscribe_request):
    operation, body = subscribe_request
    rounds = itertools.count()

    def unseen():
        renamed = {**body, "subscriber": f"{body['subscriber']}-{next(rounds)}"}
        return (soap_encode(operation, renamed),), {}

    envelope = benchmark.pedantic(soap_decode, setup=unseen, rounds=2000)
    assert envelope.operation == operation
    assert envelope.body["subscriber"].startswith(body["subscriber"] + "-")


def test_encode_value_scene(benchmark, scene_wire):
    data = benchmark(encode_value, scene_wire)
    assert len(data) > 1000


def test_decode_value_scene(benchmark, scene_wire):
    value = benchmark(decode_value, encode_value(scene_wire))
    assert encode_value(value) == encode_value(scene_wire)


def test_introspection_marshal_scene(benchmark, scene_wire):
    result = benchmark(IntrospectionMarshaller().marshal, scene_wire)
    assert result.data == encode_value(scene_wire)
    assert result.n_fields > 1 and result.cpu_seconds > 0


def test_introspection_demarshal_scene_hit(benchmark, scene_wire):
    data = encode_value(scene_wire)
    value, cpu_seconds = benchmark(IntrospectionMarshaller().demarshal, data)
    assert encode_value(value) == data and cpu_seconds > 0


def test_introspection_demarshal_scene_miss(benchmark, scene_wire):
    rounds = itertools.count()

    def unseen():
        renamed = {**scene_wire, "name": f"{scene_wire['name']}-{next(rounds)}"}
        return (encode_value(renamed),), {}

    value, cpu_seconds = benchmark.pedantic(
        IntrospectionMarshaller().demarshal, setup=unseen, rounds=2000)
    assert value["name"].startswith(scene_wire["name"] + "-")
    assert len(value["nodes"]) == len(scene_wire["nodes"])
    assert cpu_seconds > 0
