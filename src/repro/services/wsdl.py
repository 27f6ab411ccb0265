"""WSDL document model.

"A Grid/Web service can have its API described in a WSDL document, which is
then advertised as a 'Technical Model' in UDDI.  If any services are
advertised as adhering to this technical model, then we know they will have
the same API and underlying behaviour."  (paper §4.3)

A :class:`WsdlDocument` lists typed operations; :func:`build_wsdl`
constructs one; :meth:`WsdlDocument.signature` is the canonical string UDDI
technical models key on — two services match a tModel iff their WSDL
signatures are identical.  Documents serialise to real XML (the bytes a
UDDI query response carries).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from xml.etree import ElementTree as ET
from xml.parsers import expat

from repro.errors import MarshallingError
from repro.services.soap import _parse_xml


@dataclass(frozen=True)
class Operation:
    """One RPC operation: name plus (param name, xsd type) pairs each way."""

    name: str
    inputs: tuple[tuple[str, str], ...] = ()
    outputs: tuple[tuple[str, str], ...] = ()

    def signature(self) -> str:
        ins = ",".join(f"{n}:{t}" for n, t in self.inputs)
        outs = ",".join(f"{n}:{t}" for n, t in self.outputs)
        return f"{self.name}({ins})->({outs})"


@dataclass
class WsdlDocument:
    """A service description: target namespace, operations, endpoint."""

    service_name: str
    namespace: str
    operations: tuple[Operation, ...]
    endpoint: str = ""
    documentation: str = ""

    def signature(self) -> str:
        """Canonical API signature (operation order-independent)."""
        ops = "&".join(sorted(op.signature() for op in self.operations))
        return f"{self.namespace}|{ops}"

    def signature_digest(self) -> str:
        """Short stable key derived from the signature (tModel key material)."""
        return hashlib.sha1(self.signature().encode()).hexdigest()[:16]

    def compatible_with(self, other: WsdlDocument) -> bool:
        """Same API and behaviour contract (the tModel match rule)."""
        return self.signature() == other.signature()

    def operation(self, name: str) -> Operation:
        for op in self.operations:
            if op.name == name:
                return op
        raise KeyError(f"{self.service_name} has no operation {name!r}")

    # -- XML ------------------------------------------------------------------

    def to_xml(self) -> bytes:
        root = ET.Element("definitions")
        root.set("name", self.service_name)
        root.set("targetNamespace", self.namespace)
        if self.documentation:
            doc = ET.SubElement(root, "documentation")
            doc.text = self.documentation
        port = ET.SubElement(root, "portType")
        port.set("name", f"{self.service_name}PortType")
        for op in self.operations:
            op_el = ET.SubElement(port, "operation")
            op_el.set("name", op.name)
            for kind, params in (("input", op.inputs), ("output", op.outputs)):
                k_el = ET.SubElement(op_el, kind)
                for pname, ptype in params:
                    p_el = ET.SubElement(k_el, "part")
                    p_el.set("name", pname)
                    p_el.set("type", ptype)
        svc = ET.SubElement(root, "service")
        svc.set("name", self.service_name)
        if self.endpoint:
            port_el = ET.SubElement(svc, "port")
            addr = ET.SubElement(port_el, "address")
            addr.set("location", self.endpoint)
        return ET.tostring(root, encoding="utf-8", xml_declaration=True)

    @classmethod
    def from_xml(cls, data: bytes) -> WsdlDocument:
        """Parse a document; one with a DOCTYPE is refused where it
        starts, as a SOAP envelope is, so no entity is ever expanded."""
        try:
            root = _parse_xml(data)
        except (expat.ExpatError, LookupError) as exc:
            # expat's own errors and an unknown declared encoding
            raise MarshallingError(f"malformed WSDL XML: {exc}") from exc
        name = root.get("name", "")
        namespace = root.get("targetNamespace", "")
        documentation = root.findtext("documentation", "")
        ops: list[Operation] = []
        port = root.find("portType")
        if port is not None:
            for op_el in port.findall("operation"):
                def parts(kind: str) -> tuple[tuple[str, str], ...]:
                    k_el = op_el.find(kind)
                    if k_el is None:
                        return ()
                    return tuple((p.get("name", ""), p.get("type", ""))
                                 for p in k_el.findall("part"))
                ops.append(Operation(name=op_el.get("name", ""),
                                     inputs=parts("input"),
                                     outputs=parts("output")))
        endpoint = ""
        svc = root.find("service")
        if svc is not None:
            addr = svc.find("port/address")
            if addr is not None:
                endpoint = addr.get("location", "")
        return cls(service_name=name, namespace=namespace,
                   operations=tuple(ops), endpoint=endpoint,
                   documentation=documentation)


def build_wsdl(service_name: str, operations: list[Operation],
               endpoint: str = "", namespace: str = "urn:rave:sc2004",
               documentation: str = "") -> WsdlDocument:
    """Convenience constructor with validation."""
    if not service_name:
        raise ValueError("service_name must be non-empty")
    names = [op.name for op in operations]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate operation names in {names}")
    return WsdlDocument(service_name=service_name, namespace=namespace,
                        operations=tuple(operations), endpoint=endpoint,
                        documentation=documentation)


# -- the two RAVE technical models (paper: "we have two technical models,
#    one for the data service and one for the render service") -----------------

DATA_SERVICE_WSDL = build_wsdl(
    "RaveDataService",
    [
        Operation("createSession", (("dataUrl", "xsd:string"),),
                  (("sessionId", "xsd:string"),)),
        Operation("listSessions", (), (("sessions", "rave:list"),)),
        Operation("subscribe",
                  (("sessionId", "xsd:string"),
                   ("subscriber", "xsd:string"),
                   ("socket", "xsd:string")),
                  (("accepted", "xsd:boolean"),)),
        Operation("publishUpdate", (("update", "rave:struct"),),
                  (("sequence", "xsd:long"),)),
        Operation("requestRender",
                  (("sessionId", "xsd:string"),
                   ("client", "xsd:string")),
                  (("renderService", "xsd:string"),)),
    ],
    documentation="RAVE data service: persistent scene distribution point",
)

RENDER_SERVICE_WSDL = build_wsdl(
    "RaveRenderService",
    [
        Operation("getCapacity", (),
                  (("polygonsPerSecond", "xsd:double"),
                   ("textureMemoryBytes", "xsd:long"),
                   ("volumeSupport", "xsd:boolean"))),
        Operation("createRenderSession",
                  (("dataServiceUrl", "xsd:string"),
                   ("sessionId", "xsd:string")),
                  (("renderSessionId", "xsd:string"),)),
        Operation("renderFrame",
                  (("renderSessionId", "xsd:string"),
                   ("camera", "rave:struct")),
                  (("frame", "xsd:base64Binary"),)),
        Operation("renderTile",
                  (("renderSessionId", "xsd:string"),
                   ("tile", "rave:struct")),
                  (("frame", "xsd:base64Binary"),
                   ("depth", "xsd:base64Binary"))),
        Operation("reportLoad", (),
                  (("framesPerSecond", "xsd:double"),
                   ("utilisation", "xsd:double"))),
    ],
    documentation="RAVE render service: on/off-screen rendering provider",
)

MONITOR_SERVICE_WSDL = build_wsdl(
    "RaveMonitorService",
    [
        Operation("listTargets", (), (("services", "rave:list"),)),
        Operation("scrape", (("service", "xsd:string"),),
                  (("telemetry", "xsd:base64Binary"),)),
        Operation("getAlerts", (), (("alerts", "rave:list"),)),
        Operation("getSloReport", (), (("report", "rave:struct"),)),
    ],
    documentation="RAVE monitor service: scrapes per-service telemetry, "
                  "evaluates alert rules and SLO targets",
)

FRAME_QUEUE_WSDL = build_wsdl(
    "RaveFrameQueueService",
    [
        Operation("submitJob",
                  (("sessionId", "xsd:string"),
                   ("startFrame", "xsd:int"),
                   ("endFrame", "xsd:int")),
                  (("jobId", "xsd:string"),)),
        Operation("leaseFrame", (("worker", "xsd:string"),),
                  (("lease", "xsd:base64Binary"),)),
        Operation("completeFrame", (("result", "xsd:base64Binary"),),
                  (("accepted", "xsd:boolean"),)),
        Operation("jobProgress", (("jobId", "xsd:string"),),
                  (("done", "xsd:int"), ("total", "xsd:int"))),
        Operation("auditFrames", (("jobId", "xsd:string"),),
                  (("missing", "rave:list"),)),
    ],
    documentation="RAVE frame queue service: batch animation frame queue — "
                  "idle render services lease one frame at a time",
)
