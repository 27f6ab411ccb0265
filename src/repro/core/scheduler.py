"""Render-service selection.

"When a client requests a dataset to be rendered, it must select which
render service to use.  The data service interrogates the render service
for its capacity ... If a render service cannot support the entire dataset,
then the data service recruits available render services to assist.
Within our present testbed if insufficient resources are available, the
request is refused with an explanatory error message."  (paper §3.2.5)

:class:`RenderServiceScheduler` implements that decision procedure:
interrogate → place on one service if it fits → otherwise assemble a
multi-service placement → otherwise recruit via UDDI → otherwise refuse
with :class:`~repro.errors.InsufficientResources`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.capacity import (
    CapacityReport,
    DEFAULT_TARGET_FPS,
    interrogate,
)
from repro.core.cost import NodeCost
from repro.errors import InsufficientResources
from repro.obs import active as _obs


@dataclass(frozen=True)
class Assignment:
    """One service's share of a placement."""

    service: object                # RenderService
    polygons: int
    report: CapacityReport


@dataclass
class Placement:
    """The scheduler's answer for one client request."""

    mode: str                      # "single" | "dataset-distributed"
    assignments: list[Assignment] = field(default_factory=list)
    recruited: list[object] = field(default_factory=list)
    interrogation_seconds: float = 0.0

    @property
    def services(self) -> list[object]:
        return [a.service for a in self.assignments]

    @property
    def total_polygons(self) -> int:
        return sum(a.polygons for a in self.assignments)


class RenderServiceScheduler:
    """Capacity-driven placement of a dataset onto render services."""

    def __init__(self, data_service,
                 target_fps: float = DEFAULT_TARGET_FPS,
                 recruiter=None) -> None:
        self.data_service = data_service
        self.target_fps = target_fps
        self.recruiter = recruiter

    def interrogate_all(self, services: list) -> list[CapacityReport]:
        host = self.data_service.host
        reports = [interrogate(s, host) for s in services]
        obs = _obs()
        if obs.enabled and reports:
            m = obs.metrics
            m.counter("rave_scheduler_interrogations_total",
                      "capacity interrogations issued").inc(len(reports))
            hist = m.histogram("rave_scheduler_interrogation_seconds",
                               "per-service interrogation round trip")
            for report in reports:
                hist.observe(report.elapsed_seconds)
        return reports

    def place(self, cost: NodeCost, services: list) -> Placement:
        """Place a dataset of the given cost onto the service pool.

        Raises :class:`InsufficientResources` (the paper's refusal path)
        when even recruitment cannot cover the demand.
        """
        obs = _obs()
        try:
            placement = self._place(cost, services)
        except InsufficientResources:
            if obs.enabled:
                obs.metrics.counter("rave_scheduler_refusals_total",
                                    "requests refused for capacity").inc()
            raise
        if obs.enabled:
            m = obs.metrics
            m.counter("rave_scheduler_placements_total",
                      "successful placements", mode=placement.mode).inc()
            if placement.recruited:
                m.counter("rave_scheduler_recruited_total",
                          "services recruited during placement"
                          ).inc(len(placement.recruited))
            m.histogram("rave_scheduler_placement_interrogation_seconds",
                        "total interrogation time per placement"
                        ).observe(placement.interrogation_seconds)
        return placement

    def _place(self, cost: NodeCost, services: list) -> Placement:
        if cost.polygons <= 0:
            raise ValueError("placement needs a positive polygon cost")
        services = list(services)
        reports = self.interrogate_all(services)
        interrogation = sum(r.elapsed_seconds for r in reports)

        # 1. a single service that fits the whole dataset — prefer the one
        #    with the *least* sufficient headroom (best-fit keeps the big
        #    machines free for datasets that need them)
        fitting = [(s, r) for s, r in zip(services, reports)
                   if r.headroom(self.target_fps) >= cost.polygons
                   and self._supports(r, cost)]
        if fitting:
            service, report = min(
                fitting, key=lambda sr: sr[1].headroom(self.target_fps))
            return Placement(
                mode="single",
                assignments=[Assignment(service=service,
                                        polygons=cost.polygons,
                                        report=report)],
                interrogation_seconds=interrogation)

        # 2. split across services by headroom (largest first)
        placement = self._try_distribute(cost, services, reports,
                                         interrogation)
        if placement is not None:
            return placement

        # 3. recruit unconnected services via UDDI
        recruited: list = []
        if self.recruiter is not None:
            result = self.recruiter.recruit(
                exclude={getattr(s, "name", None) for s in services})
            recruited = list(result.services)
            if recruited:
                services = services + recruited
                new_reports = self.interrogate_all(recruited)
                reports = reports + new_reports
                interrogation += sum(r.elapsed_seconds for r in new_reports)
                placement = self._try_distribute(cost, services, reports,
                                                 interrogation)
                if placement is not None:
                    placement.recruited = recruited
                    return placement

        available = sum(r.headroom(self.target_fps) for r in reports)
        raise InsufficientResources(
            f"dataset of {cost.polygons} polygons needs more rendering "
            f"capacity than the {len(services)} available render service(s) "
            f"provide at {self.target_fps:g} fps "
            f"(total headroom {available:.0f} polygons"
            f"{', recruitment attempted' if self.recruiter else ''})",
            required=float(cost.polygons), available=available)

    # -- helpers --------------------------------------------------------------------

    def _supports(self, report: CapacityReport, cost: NodeCost) -> bool:
        if cost.voxels and not report.capacity.volume_support:
            return False
        if cost.texture_bytes > report.capacity.texture_memory_bytes:
            return False
        return True

    def _try_distribute(self, cost: NodeCost, services: list,
                        reports: list[CapacityReport],
                        interrogation: float) -> Placement | None:
        usable = [(s, r) for s, r in zip(services, reports)
                  if self._supports(r, cost)
                  and r.headroom(self.target_fps) > 0]
        usable.sort(key=lambda sr: -sr[1].headroom(self.target_fps))
        total = sum(r.headroom(self.target_fps) for _, r in usable)
        if total < cost.polygons or not usable:
            return None
        remaining = cost.polygons
        assignments: list[Assignment] = []
        for service, report in usable:
            if remaining <= 0:
                break
            share = int(min(remaining, report.headroom(self.target_fps)))
            if share <= 0:
                continue
            assignments.append(Assignment(service=service, polygons=share,
                                          report=report))
            remaining -= share
        if remaining > 0:
            return None
        return Placement(mode="dataset-distributed", assignments=assignments,
                         interrogation_seconds=interrogation)
