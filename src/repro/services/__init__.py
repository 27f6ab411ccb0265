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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.services.soap": ("SoapEnvelope", "soap_decode", "soap_encode"),
    "repro.services.wsdl": ("WsdlDocument", "Operation", "build_wsdl"),
    "repro.services.uddi": ("AccessPoint", "BindingTemplate",
                            "BusinessEntity", "TechnicalModel",
                            "UddiRegistry"),
    "repro.services.container": ("ServiceContainer", "ServiceInstance"),
    "repro.services.protocol": ("FrameHeader", "RejectInfo", "frame_message",
                                "frame_reject", "unframe_message",
                                "unframe_reject"),
    "repro.services.data_service": ("DataService", "DataSession"),
    "repro.services.render_service": ("RenderService", "RenderSession"),
    "repro.services.clients": ("ActiveRenderClient", "ThinClient",
                               "FrameTiming"),
    "repro.services.retry": ("RetryPolicy",),
})
