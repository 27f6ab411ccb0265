"""Grid/Web services substrate.

The paper's control plane: SOAP RPC (Apache Axis in a Tomcat container),
WSDL service descriptions, UDDI discovery, and the factory pattern that
makes stateless Web services behave like stateful OGSA Grid services.  The
data plane "backs off from SOAP" onto raw sockets — modelled by
:mod:`repro.network.transport`.

- :mod:`repro.services.soap` — SOAP 1.2-style envelope codec (real XML);
- :mod:`repro.services.wsdl` — WSDL document model + technical-model match;
- :mod:`repro.services.uddi` — the UDDI registry (businesses, tModels,
  services, access points) with warm-scan vs full-bootstrap query paths;
- :mod:`repro.services.container` — the Axis/Tomcat-like service container
  and instance factory;
- :mod:`repro.services.data_service` / :mod:`repro.services.render_service`
  — RAVE's two service roles;
- :mod:`repro.services.clients` — the thin client (PDA) and active render
  client;
- :mod:`repro.services.protocol` — binary data-plane message framing;
- :mod:`repro.services.retry` — the retry policy of the thin client's
  frame requests.
"""

from repro.services.soap import SoapEnvelope, soap_decode, soap_encode
from repro.services.wsdl import WsdlDocument, Operation, build_wsdl
from repro.services.uddi import (
    AccessPoint,
    BindingTemplate,
    BusinessEntity,
    TechnicalModel,
    UddiRegistry,
)
from repro.services.container import ServiceContainer, ServiceInstance
from repro.services.protocol import (
    FrameHeader,
    RejectInfo,
    frame_message,
    frame_reject,
    unframe_message,
    unframe_reject,
)
from repro.services.data_service import DataService, DataSession
from repro.services.render_service import RenderService, RenderSession
from repro.services.clients import ActiveRenderClient, ThinClient, FrameTiming
from repro.services.retry import RetryPolicy

__all__ = [
    "SoapEnvelope",
    "soap_encode",
    "soap_decode",
    "WsdlDocument",
    "Operation",
    "build_wsdl",
    "UddiRegistry",
    "BusinessEntity",
    "TechnicalModel",
    "BindingTemplate",
    "AccessPoint",
    "ServiceContainer",
    "ServiceInstance",
    "FrameHeader",
    "frame_message",
    "unframe_message",
    "RejectInfo",
    "frame_reject",
    "unframe_reject",
    "DataService",
    "DataSession",
    "RenderService",
    "RenderSession",
    "ThinClient",
    "ActiveRenderClient",
    "FrameTiming",
    "RetryPolicy",
]
