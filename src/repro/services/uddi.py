"""UDDI registry and timed client.

The discovery layer: "WSDL can be registered with a UDDI server, enabling
remote users to find our publicly-available resources and connect
automatically."  The registry stores businesses, technical models (tModels,
keyed by WSDL signature), services and their binding templates (access
points), and answers the two query patterns Table 5 times:

- **warm scan** — an initialised UDDI session re-scanning access points of
  already-known services ("the simpler check ... for service removal or
  insertion"): paper ~0.70-0.73 s;
- **full bootstrap** — proxy creation, scan for the RAVE business, scan for
  render services under it, scan their access points: paper ~4.2-4.8 s.

:class:`UddiClient` performs those queries over a simulated network and
charges realistic 2004 costs: jUDDI's database-backed query processing
(~0.65 s/query server-side) plus SOAP envelope costs, and a ~2.3 s one-off
SOAP proxy creation (JVM class loading).  Both are calibration constants
with provenance; the query *logic* is real and tested independently of the
timing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import DiscoveryError
from repro.network.simnet import Network
from repro.network.transport import SoapChannel
from repro.obs.telemetry import ServiceTelemetry
from repro.obs.vocab import SERVICE_REGISTRY
from repro.services.wsdl import WsdlDocument

#: server-side processing per UDDI query (jUDDI over its SQL store, 2004)
QUERY_PROCESSING_SECONDS = 0.70
#: one-off SOAP proxy creation on the client (stub generation, class loading)
PROXY_CREATION_SECONDS = 2.3


@dataclass(frozen=True)
class AccessPoint:
    """Where to reach a service instance."""

    url: str
    host: str
    protocol: str = "http"


@dataclass(frozen=True)
class TechnicalModel:
    """A tModel: named API contract backed by a WSDL signature."""

    key: str
    name: str
    wsdl_signature: str


@dataclass
class BindingTemplate:
    """One deployed endpoint of a service, bound to tModels it implements."""

    binding_key: str
    access_point: AccessPoint
    tmodel_keys: tuple[str, ...]


@dataclass
class BusinessService:
    service_key: str
    name: str
    bindings: list[BindingTemplate] = field(default_factory=list)


@dataclass
class BusinessEntity:
    """A registered organisation (e.g. "RAVE project")."""

    business_key: str
    name: str
    description: str = ""
    services: list[BusinessService] = field(default_factory=list)


class UddiRegistry:
    """The registry proper — pure data structure + queries, no timing."""

    def __init__(self, name: str = "uddi",
                 host: str = "registry-host") -> None:
        self.name = name
        self.host = host
        self._businesses: dict[str, BusinessEntity] = {}
        self._tmodels: dict[str, TechnicalModel] = {}
        self._keys = itertools.count(1)
        #: registry-side telemetry (query/publication counters), scrapeable
        self.telemetry = ServiceTelemetry(name, host, SERVICE_REGISTRY)
        self._touch()

    def _touch(self) -> None:
        """Push the size gauges wherever an entry is published or removed."""
        registry = self.telemetry.registry
        registry.gauge("rave_uddi_businesses").set(len(self._businesses))
        registry.gauge("rave_uddi_tmodels").set(len(self._tmodels))
        registry.gauge("rave_uddi_services").set(
            sum(len(b.services) for b in self._businesses.values()))

    def _count_query(self, op: str) -> None:
        self.telemetry.registry.counter("rave_uddi_queries_total",
                                        op=op).inc()

    def _new_key(self, prefix: str) -> str:
        return f"uuid:{prefix}-{next(self._keys):08d}"

    # -- publication -----------------------------------------------------------

    def register_business(self, name: str,
                          description: str = "") -> BusinessEntity:
        entity = BusinessEntity(business_key=self._new_key("biz"), name=name,
                                description=description)
        self._businesses[entity.business_key] = entity
        self._touch()
        return entity

    def register_tmodel(self, name: str, wsdl: WsdlDocument) -> TechnicalModel:
        """Advertise a WSDL as a technical model; idempotent per signature."""
        signature = wsdl.signature()
        for tm in self._tmodels.values():
            if tm.wsdl_signature == signature:
                return tm
        tm = TechnicalModel(key=self._new_key("tm"), name=name,
                            wsdl_signature=signature)
        self._tmodels[tm.key] = tm
        self._touch()
        return tm

    def register_service(self, business_key: str, name: str,
                         access_point: AccessPoint,
                         tmodels: list[TechnicalModel]) -> BusinessService:
        business = self._require_business(business_key)
        service = BusinessService(service_key=self._new_key("svc"), name=name)
        service.bindings.append(BindingTemplate(
            binding_key=self._new_key("bind"),
            access_point=access_point,
            tmodel_keys=tuple(tm.key for tm in tmodels),
        ))
        business.services.append(service)
        self._touch()
        self._count_query("register_service")
        return service

    def unregister_service(self, business_key: str, service_key: str) -> None:
        business = self._require_business(business_key)
        before = len(business.services)
        business.services = [s for s in business.services
                             if s.service_key != service_key]
        if len(business.services) == before:
            raise DiscoveryError(f"no service {service_key!r} under "
                                 f"{business.name!r}")
        self._touch()

    # -- queries -----------------------------------------------------------------

    def _require_business(self, business_key: str) -> BusinessEntity:
        try:
            return self._businesses[business_key]
        except KeyError:
            raise DiscoveryError(f"unknown business {business_key!r}") from None

    def find_business(self, name: str) -> BusinessEntity:
        self._count_query("find_business")
        for entity in self._businesses.values():
            if entity.name == name:
                return entity
        raise DiscoveryError(f"no business named {name!r}")

    def find_tmodel(self, name: str) -> TechnicalModel:
        self._count_query("find_tmodel")
        for tm in self._tmodels.values():
            if tm.name == name:
                return tm
        raise DiscoveryError(f"no tModel named {name!r}")

    def find_services(self, business_key: str,
                      tmodel_key: str | None = None) -> list[BusinessService]:
        """Services of a business, optionally filtered by technical model."""
        self._count_query("find_services")
        business = self._require_business(business_key)
        if tmodel_key is None:
            return list(business.services)
        return [
            s for s in business.services
            if any(tmodel_key in b.tmodel_keys for b in s.bindings)
        ]

    def access_points(self, services: list[BusinessService]
                      ) -> list[AccessPoint]:
        return [b.access_point for s in services for b in s.bindings]

    def services_matching_wsdl(self, wsdl: WsdlDocument
                               ) -> list[BusinessService]:
        """Every registered service whose tModel matches this WSDL's API."""
        signature = wsdl.signature()
        keys = {tm.key for tm in self._tmodels.values()
                if tm.wsdl_signature == signature}
        out = []
        for business in self._businesses.values():
            for service in business.services:
                if any(set(b.tmodel_keys) & keys for b in service.bindings):
                    out.append(service)
        return out


@dataclass(frozen=True)
class ScanResult:
    """A timed discovery outcome."""

    access_points: tuple[AccessPoint, ...]
    elapsed_seconds: float
    queries: int


class UddiClient:
    """Timed UDDI access from a host on the simulated network."""

    def __init__(self, registry: UddiRegistry, network: Network,
                 client_host: str, registry_host: str,
                 cpu_factor: float = 1.0) -> None:
        self.registry = registry
        self.network = network
        self.client_host = client_host
        self.registry_host = registry_host
        self.cpu_factor = cpu_factor
        self._proxy_ready = False

    def _query(self, operation: str, request: dict, response: dict) -> float:
        """One SOAP query round trip + server-side processing; returns secs."""
        channel = SoapChannel(self.network, self.client_host,
                              self.registry_host, cpu_factor=self.cpu_factor)
        t0 = self.network.sim.clock.now
        channel.request((operation, request), (operation + "Response", response))
        self.network.sim.clock.advance(QUERY_PROCESSING_SECONDS)
        return self.network.sim.clock.now - t0

    def create_proxy(self) -> float:
        """Initialise the UDDI SOAP proxy (idempotent)."""
        if self._proxy_ready:
            return 0.0
        self.network.sim.clock.advance(PROXY_CREATION_SECONDS / self.cpu_factor)
        self._proxy_ready = True
        return PROXY_CREATION_SECONDS / self.cpu_factor

    def scan_access_points(self, business_name: str,
                           tmodel_name: str) -> ScanResult:
        """The warm scan: one query re-listing current access points."""
        if not self._proxy_ready:
            raise DiscoveryError("UDDI proxy not initialised; call "
                                 "create_proxy or full_bootstrap first")
        t0 = self.network.sim.clock.now
        business = self.registry.find_business(business_name)
        tmodel = self.registry.find_tmodel(tmodel_name)
        services = self.registry.find_services(business.business_key,
                                               tmodel.key)
        points = self.registry.access_points(services)
        self._query("get_bindingDetail",
                    {"business": business_name, "tModel": tmodel_name},
                    {"accessPoints": [p.url for p in points]})
        return ScanResult(access_points=tuple(points),
                          elapsed_seconds=self.network.sim.clock.now - t0,
                          queries=1)

    def full_bootstrap(self, business_name: str,
                       tmodel_name: str) -> ScanResult:
        """The cold path: proxy creation + business + service + binding scans.

        Mirrors the paper's enumeration: "proxy creation, scan business
        representing the RAVE project, scan for render services under the
        RAVE project, and finally scan for access points of these services".
        """
        t0 = self.network.sim.clock.now
        self._proxy_ready = False
        self.create_proxy()
        business = self.registry.find_business(business_name)
        self._query("find_business", {"name": business_name},
                    {"businessKey": business.business_key})
        tmodel = self.registry.find_tmodel(tmodel_name)
        services = self.registry.find_services(business.business_key,
                                               tmodel.key)
        self._query("find_service",
                    {"businessKey": business.business_key,
                     "tModel": tmodel_name},
                    {"serviceKeys": [s.service_key for s in services]})
        points = self.registry.access_points(services)
        self._query("get_bindingDetail",
                    {"serviceKeys": [s.service_key for s in services]},
                    {"accessPoints": [p.url for p in points]})
        return ScanResult(access_points=tuple(points),
                          elapsed_seconds=self.network.sim.clock.now - t0,
                          queries=3)
