"""RAVE's primary contribution: resource-aware workload distribution.

The policy layer that makes the system "resource-aware":

- :mod:`repro.core.capacity` — render-service capacity interrogation
  ("available polygons per second, texture memory, support for hardware
  assisted volume rendering");
- :mod:`repro.core.cost` — how much capacity a set of scene nodes or tiles
  consumes ("how much data are contained in a given set of nodes");
- :mod:`repro.core.scheduler` — render-service selection for a client
  request, including the refusal path;
- :mod:`repro.core.distribution` — the two distribution modes: scene-subset
  (dataset) distribution and framebuffer (tile) distribution;
- :mod:`repro.core.recruitment` — UDDI-driven recruitment of render
  services not yet connected to the data service;
- :mod:`repro.core.migration` — load-triggered workload migration with
  fine-grain node selection and usage smoothing;
- :mod:`repro.core.autoscale` — alert-driven recruitment autoscaling:
  monitor alerts grow the pool via UDDI on sustained grid-wide overload
  and drain-and-release idle members on sustained underload;
- :mod:`repro.core.health` — lease-based failure detection (heartbeats,
  alive/suspected/dead transitions) feeding automatic recovery;
- :mod:`repro.core.session` — the orchestrator tying data service, render
  services, clients and policies into a collaborative session;
- :mod:`repro.core.grid` — the multi-tenant session grid: a shared
  render pool with admission control (admit / queue / reject-with-429),
  per-tenant quotas and graceful overload shedding.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.capacity": ("CapacityReport", "RenderCapacity", "interrogate"),
    "repro.core.cost": ("NodeCost", "node_cost", "subtree_cost", "tile_cost"),
    "repro.core.scheduler": ("RenderServiceScheduler", "Placement"),
    "repro.core.distribution": ("DatasetDistributor", "DistributionPlan",
                                "FramebufferDistributor", "TilePlan"),
    "repro.core.recruitment": ("Recruiter", "RecruitmentResult"),
    "repro.core.autoscale": ("RecruitmentAutoscaler", "ScaleEvent"),
    "repro.core.migration": ("MigrationAction", "WorkloadMigrator"),
    "repro.core.health": ("HeartbeatMonitor", "HeartbeatSource"),
    "repro.core.session": ("CollaborativeSession", "RecoveryReport"),
    "repro.core.grid": ("AdmissionDecision", "GridSession",
                        "SessionGridManager", "ShedAction", "TenantQuota"),
})
