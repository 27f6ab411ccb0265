"""Batch render farm: a throughput workload beside the interactive grid.

The paper's grid serves interactive collaborative sessions; this package
reuses the same substrate — UDDI discovery, WSDL tmodels, the simulated
network, heartbeat leases, retry policies, per-service telemetry — for
offline animation rendering in the style of cluster render controllers:
jobs enqueue frame ranges, idle render services pull exactly one frame
at a time, failed nodes' frames are re-queued (never duplicated), and a
``checkframes``-style audit proves no frame went missing.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.farm.controller": ("RenderFarmController",),
    "repro.farm.job": ("FRAME_DONE", "FRAME_LEASED", "FRAME_PENDING",
                       "FrameRecord", "RenderJob"),
    "repro.farm.queue_service": ("FrameQueueService",),
})
