"""UDDI-driven recruitment of additional render services.

"If there is insufficient spare capacity, then the data server uses UDDI
to discover additional render services that are not connected to the data
service.  These underutilised services can then be recruited to join the
session hosted on the data service and contribute to the rendering
resources."  (paper §3.2.7, timed in Table 5)

The :class:`Recruiter` resolves UDDI access points back to live
:class:`~repro.services.render_service.RenderService` objects through a
service directory (the in-simulation equivalent of dereferencing the
endpoint URL), preferring a warm access-point scan and falling back to the
full bootstrap when the proxy is cold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import NetworkError, ServiceError
from repro.services.uddi import UddiClient

#: UDDI names the RAVE deployment registers under
RAVE_BUSINESS = "RAVE project"
RENDER_TMODEL = "RaveRenderService"
MONITOR_TMODEL = "RaveMonitorService"
DATA_TMODEL = "RaveDataService"
FARM_TMODEL = "RaveFrameQueueService"


@dataclass
class RecruitmentResult:
    """Outcome of one recruitment attempt."""

    services: list = field(default_factory=list)
    scan_seconds: float = 0.0
    used_full_bootstrap: bool = False

    @property
    def found(self) -> bool:
        return bool(self.services)


class Recruiter:
    """Discovers unconnected render services for the data service."""

    def __init__(self, uddi_client: UddiClient,
                 directory: dict[str, object],
                 business: str = RAVE_BUSINESS,
                 tmodel: str = RENDER_TMODEL) -> None:
        #: endpoint URL → RenderService object.  Held live (not copied):
        #: access points are re-resolved at scan time, so services that
        #: register after this recruiter was built are still recruitable.
        self.uddi_client = uddi_client
        self.directory = directory
        self.business = business
        self.tmodel = tmodel
        self.scans = 0

    def register(self, endpoint: str, service) -> None:
        """Add a resolvable service to the directory."""
        self.directory[endpoint] = service

    def recruit(self, exclude: set | None = None) -> RecruitmentResult:
        """Scan UDDI and return render services not already in ``exclude``.

        The first scan after construction performs the full bootstrap
        (proxy creation + three queries); subsequent scans are warm
        access-point checks — the two rows of Table 5's UDDI column.
        """
        exclude = exclude or set()
        if self.uddi_client._proxy_ready:
            scan = self.uddi_client.scan_access_points(self.business,
                                                       self.tmodel)
            full = False
        else:
            scan = self.uddi_client.full_bootstrap(self.business, self.tmodel)
            full = True
        self.scans += 1
        recruited = []
        for point in scan.access_points:
            service = self.directory.get(point.url)
            if service is None:
                continue
            name = getattr(service, "name", None)
            if name in exclude or service in recruited:
                continue
            recruited.append(service)
        return RecruitmentResult(services=recruited,
                                 scan_seconds=scan.elapsed_seconds,
                                 used_full_bootstrap=full)

    def enlist(self, network, taken: set, add,
               limit: int | None = None) -> list:
        """Recruit, and ``add`` each newcomer whose host is up right now.

        The one recruit loop a session, a session grid and a render farm
        share.  ``taken`` — names already in the pool or declared dead,
        never scanned back in.  A candidate on a down or unroutable host,
        or one ``add`` refuses, is skipped; at most ``limit`` are added
        (``0`` does not even scan).
        """
        if limit == 0:
            return []
        added = []
        for service in self.recruit(exclude=taken).services:
            if limit is not None and len(added) >= limit:
                break
            try:
                if not network.host_is_up(service.host):
                    continue
                add(service)
            except (NetworkError, ServiceError):
                continue
            added.append(service)
        return added
