"""One-call construction of the paper's testbed.

Builds the §4.4 environment: the six machines on 100 Mbit switched
ethernet, the Zaurus on an 11 Mbit 802.11b cell, service containers, a UDDI
registry (jUDDI stand-in) with the RAVE business and both technical models,
a data service, and render services on every render-capable machine — all
over one simulated clock.

Every example, test and benchmark that needs "the paper's setup" starts
from :func:`build_testbed` so the topology lives in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.recruitment import (
    DATA_TMODEL,
    FARM_TMODEL,
    MONITOR_TMODEL,
    RAVE_BUSINESS,
    RENDER_TMODEL,
    Recruiter,
)
from repro.data.meshes import Mesh
from repro.errors import ServiceError
from repro.hardware.profiles import TESTBED as PROFILES
from repro.network.simnet import Network, WirelessCell
from repro.scenegraph.nodes import MeshNode
from repro.scenegraph.tree import SceneTree
from repro.services.clients import ActiveRenderClient, ThinClient
from repro.services.container import ServiceContainer
from repro.services.data_service import DataService, DataSession
from repro.services.render_service import RenderService
from repro.services.uddi import AccessPoint, UddiClient, UddiRegistry
from repro.services.wsdl import (
    DATA_SERVICE_WSDL,
    FRAME_QUEUE_WSDL,
    MONITOR_SERVICE_WSDL,
    RENDER_SERVICE_WSDL,
)

#: machines that run render services in the default testbed
RENDER_HOSTS = ("onyx", "v880z", "centrino", "xeon", "athlon")
#: the host carrying the data service (the dual-Xeon desktop)
DATA_HOST = "xeon"
#: the wireless thin-client host
PDA_HOST = "zaurus"


@dataclass
class Testbed:
    """The assembled environment."""

    network: Network
    registry: UddiRegistry
    containers: dict[str, ServiceContainer]
    data_service: DataService
    render_services: dict[str, RenderService]
    wireless: WirelessCell
    business_key: str = ""
    #: the monitoring plane, a :class:`~repro.services.monitor.MonitorService`
    #: (None unless built with ``monitor_host=``)
    monitor: object | None = None
    #: the batch frame queue (None unless built with ``farm=True``)
    farm_queue: object | None = None
    #: autoscaler construction parameters (None unless built with
    #: ``autoscale=``); consumed by :meth:`autoscale`
    autoscale_config: dict | None = None
    _clients: list = field(default_factory=list)

    @property
    def clock(self):
        return self.network.sim.clock

    def render_service(self, host: str) -> RenderService:
        try:
            return self.render_services[host]
        except KeyError:
            raise ServiceError(
                f"no render service on {host!r}; render hosts: "
                f"{sorted(self.render_services)}") from None

    def publish_model(self, session_id: str, mesh: Mesh,
                      charge_time: bool = False) -> DataSession:
        """Import a mesh into the data service as a new session."""
        tree = SceneTree(name=session_id)
        tree.add(MeshNode(mesh))
        return self.data_service.create_session(session_id, tree,
                                                charge_time=charge_time)

    def publish_tree(self, session_id: str, tree: SceneTree,
                     charge_time: bool = False) -> DataSession:
        return self.data_service.create_session(session_id, tree,
                                                charge_time=charge_time)

    def thin_client(self, name: str, host: str = PDA_HOST,
                    blit_path: str = "cpp") -> ThinClient:
        client = ThinClient(name, host, self.network, blit_path=blit_path)
        self._clients.append(client)
        return client

    def active_client(self, name: str, host: str) -> ActiveRenderClient:
        client = ActiveRenderClient(name, host, self.network,
                                    PROFILES[host])
        self._clients.append(client)
        return client

    def uddi_client(self, from_host: str) -> UddiClient:
        profile = PROFILES.get(from_host)
        return UddiClient(self.registry, self.network, from_host,
                          "registry-host",
                          cpu_factor=profile.cpu_factor if profile else 1.0)

    def recruiter(self, from_host: str | None = None,
                  exclude_hosts: tuple[str, ...] = ()) -> Recruiter:
        """A recruiter resolving the registry's render-service endpoints."""
        directory = {
            service.endpoint: service
            for host, service in self.render_services.items()
            if host not in exclude_hosts
        }
        return Recruiter(self.uddi_client(from_host or DATA_HOST), directory)

    def session_grid(self, member_hosts: tuple[str, ...] | None = None,
                     tenants=(), recruit: bool = True, **kwargs):
        """Build a :class:`~repro.core.grid.SessionGridManager` here.

        ``member_hosts`` — initial pool members (default: every render
        host); hosts left out stay registered with UDDI as growth
        headroom for :meth:`SessionGridManager.grow`.  ``tenants`` —
        :class:`~repro.core.grid.TenantQuota` objects to register up
        front.  With a monitoring plane built, the grid's telemetry is
        watched immediately so the ``grid-saturated`` rules see it.
        """
        from repro.core.grid import SessionGridManager

        hosts = tuple(member_hosts if member_hosts is not None
                      else sorted(self.render_services))
        members = [self.render_service(h) for h in hosts]
        grid = SessionGridManager(
            self.data_service, members=members,
            recruiter=self.recruiter() if recruit else None, **kwargs)
        for quota in tenants:
            grid.register_tenant(quota)
        if self.monitor is not None:
            self.monitor.watch(grid)
        return grid

    def render_farm(self, worker_hosts: tuple[str, ...] | None = None,
                    recruit: bool = True, **kwargs):
        """Build a :class:`~repro.farm.controller.RenderFarmController`.

        ``worker_hosts`` — initial farm workers (default: every render
        host); hosts left out stay registered with UDDI as growth
        headroom for :meth:`RenderFarmController.grow`.  Requires the
        testbed to be built with ``farm=True`` so the frame queue
        exists.  The controller is returned un-started: call
        :meth:`~repro.farm.controller.RenderFarmController.start` once
        jobs are submitted.
        """
        from repro.farm.controller import RenderFarmController

        if self.farm_queue is None:
            raise ServiceError(
                "no frame queue; build the testbed with farm=True")
        hosts = tuple(worker_hosts if worker_hosts is not None
                      else sorted(self.render_services))
        workers = [self.render_service(h) for h in hosts]
        return RenderFarmController(
            self.farm_queue, self.data_service, workers=workers,
            recruiter=self.recruiter() if recruit else None, **kwargs)

    def autoscale(self, pool, **overrides):
        """Attach a started :class:`RecruitmentAutoscaler` to a pool.

        ``pool`` — a session, a session grid or a render farm.  Uses the
        parameters captured by ``build_testbed(autoscale=...)``
        (overridable per call) and the testbed's monitor.  The returned
        autoscaler is already ticking on the simulated clock.
        """
        from repro.core.autoscale import RecruitmentAutoscaler

        if self.monitor is None:
            raise ServiceError(
                "autoscaling needs the monitoring plane; build the "
                "testbed with monitor_host=")
        config = dict(self.autoscale_config or {})
        config.update(overrides)
        autoscaler = RecruitmentAutoscaler(pool, self.monitor, **config)
        autoscaler.start()
        return autoscaler


def build_testbed(render_hosts: tuple[str, ...] = RENDER_HOSTS,
                  data_host: str = DATA_HOST,
                  pda_signal_quality: float = 1.0,
                  register_uddi: bool = True,
                  monitor_host: str | None = None,
                  monitor_period: float = 1.0,
                  autoscale: bool | dict = False,
                  farm: bool | dict = False,
                  farm_host: str | None = None) -> Testbed:
    """Assemble the §4.4 testbed.  See module docstring.

    ``monitor_host`` — deploy a :class:`MonitorService` there (e.g.
    ``"registry-host"``), watching the data service, every render service
    and the UDDI registry, with its recurring scrape already started.
    ``None`` (the default) builds the plain testbed with no monitoring
    plane — behaviour is bit-identical to earlier seeds.

    ``autoscale`` — capture recruitment-autoscaler parameters for
    :meth:`Testbed.autoscale` (``True`` for the defaults, or a
    dict of :class:`~repro.core.autoscale.RecruitmentAutoscaler` keyword
    arguments such as ``{"cooldown_seconds": 5.0}``).  Requires
    ``monitor_host``; pools opt in by calling ``autoscale``.

    ``farm`` — deploy a :class:`~repro.farm.queue_service.FrameQueueService`
    (``rave-farm-queue``) on ``farm_host`` (default: the data host),
    register its ``RaveFrameQueueService`` tmodel + service in UDDI, and
    watch it from the monitoring plane when one is built.
    :meth:`Testbed.render_farm` then assembles the worker pool around it.
    Pass a dict instead of ``True`` to configure the queue: any
    :class:`FrameQueueService` keyword argument (``lease_timeout``,
    ``starvation_after``, ...) plus ``tenants``, a list of
    :class:`~repro.core.grid.TenantQuota` objects registered up front
    so the scheduler's per-tenant lease caps apply from the first lease.
    """
    network = Network()
    for name in set(render_hosts) | {data_host}:
        if name not in PROFILES:
            raise ServiceError(f"unknown machine {name!r}")
        network.add_host(name, profile=name)
    if PDA_HOST not in network.hosts:
        network.add_host(PDA_HOST, profile=PDA_HOST)
    network.add_host("registry-host")

    wired = sorted((set(render_hosts) | {data_host, "registry-host"}))
    network.add_ethernet_segment(wired, "switch", bandwidth_bps=100e6)
    wireless = WirelessCell(network, "switch")
    wireless.join(PDA_HOST, signal_quality=pda_signal_quality)

    containers = {
        host: ServiceContainer(host, network)
        for host in set(render_hosts) | {data_host}
    }
    data_service = DataService("rave-data", containers[data_host])
    render_services = {}
    for host in render_hosts:
        container = containers[host]
        if container is containers[data_host] and host == data_host:
            pass  # data + render share the container on the data host
        render_services[host] = RenderService(f"rs-{host}", container)

    registry = UddiRegistry("wesc-uddi")
    business_key = ""
    if register_uddi:
        business = registry.register_business(
            RAVE_BUSINESS, "Resource-Aware Visualization Environment")
        business_key = business.business_key
        data_tm = registry.register_tmodel(DATA_TMODEL, DATA_SERVICE_WSDL)
        render_tm = registry.register_tmodel(RENDER_TMODEL,
                                             RENDER_SERVICE_WSDL)
        registry.register_service(
            business.business_key, f"RaveDataService@{data_host}",
            AccessPoint(url=data_service.endpoint, host=data_host),
            [data_tm])
        for host, service in render_services.items():
            registry.register_service(
                business.business_key, f"RaveRenderService@{host}",
                AccessPoint(url=service.endpoint, host=host),
                [render_tm])

    if autoscale and monitor_host is None:
        raise ServiceError("autoscale= needs a monitoring plane; pass "
                           "monitor_host= as well")

    monitor = None
    if monitor_host is not None:
        if monitor_host not in network.hosts:
            raise ServiceError(f"unknown monitor host {monitor_host!r}")
        container = containers.get(monitor_host)
        if container is None:
            container = ServiceContainer(monitor_host, network)
            containers[monitor_host] = container
        from repro.services.monitor import MonitorService

        monitor = MonitorService("rave-monitor", container,
                                 period=monitor_period)
        if register_uddi:
            monitor_tm = registry.register_tmodel(MONITOR_TMODEL,
                                                  MONITOR_SERVICE_WSDL)
            registry.register_service(
                business_key, f"RaveMonitorService@{monitor_host}",
                AccessPoint(url=monitor.endpoint, host=monitor_host),
                [monitor_tm])
        monitor.watch(data_service)
        for service in render_services.values():
            monitor.watch(service)
        monitor.watch(registry)
        monitor.start()

    farm_queue = None
    if farm:
        from repro.farm.queue_service import FrameQueueService

        farm_config = dict(farm) if isinstance(farm, dict) else {}
        farm_tenants = farm_config.pop("tenants", ())
        queue_host = farm_host if farm_host is not None else data_host
        if queue_host not in network.hosts:
            raise ServiceError(f"unknown farm host {queue_host!r}")
        container = containers.get(queue_host)
        if container is None:
            container = ServiceContainer(queue_host, network)
            containers[queue_host] = container
        farm_queue = FrameQueueService("rave-farm-queue", container,
                                       **farm_config)
        for quota in farm_tenants:
            farm_queue.register_tenant(quota)
        if register_uddi:
            farm_tm = registry.register_tmodel(FARM_TMODEL,
                                               FRAME_QUEUE_WSDL)
            registry.register_service(
                business_key, f"RaveFrameQueueService@{queue_host}",
                AccessPoint(url=farm_queue.endpoint, host=queue_host),
                [farm_tm])
        if monitor is not None:
            monitor.watch(farm_queue)

    autoscale_config = None
    if autoscale:
        autoscale_config = dict(autoscale) if isinstance(autoscale, dict) \
            else {}

    return Testbed(network=network, registry=registry,
                   containers=containers, data_service=data_service,
                   render_services=render_services, wireless=wireless,
                   business_key=business_key, monitor=monitor,
                   farm_queue=farm_queue,
                   autoscale_config=autoscale_config)
