"""Capacity metrics and interrogation.

"The data service interrogates the render service for its capacity
(available polygons per second, texture memory, support for hardware
assisted volume rendering, etc.)" — :class:`RenderCapacity` is that answer,
and :func:`interrogate` performs the timed SOAP exchange.

Capacities are expressed against an *interactive frame-rate target*: a
service with R polygons/second aiming at F frames/second can host
``R / F`` polygons of scene ("if an underloaded service has capacity for
another 5k polygons/sec and still maintain its current interactive frame
rate...").  What is already committed is one figure in the same unit,
polygons per second: every render session on the service charges its
polygons at its own frame rate
(:meth:`~repro.services.render_service.RenderService.committed_pps`), so
a 600 fps session costs sixty times what a 10 fps one of the same size
does, whoever reads the service.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

#: the interactivity contract capacity is quoted against
DEFAULT_TARGET_FPS = 10.0


@dataclass(frozen=True)
class RenderCapacity:
    """What a render service can do, as advertised over SOAP."""

    polygons_per_second: float
    points_per_second: float
    voxels_per_second: float
    texture_memory_bytes: int
    volume_support: bool
    graphics_pipes: int = 1

    def polygon_budget(self, target_fps: float = DEFAULT_TARGET_FPS) -> float:
        """Scene polygons hostable while sustaining ``target_fps``."""
        if target_fps <= 0:
            raise ValueError("target_fps must be positive")
        return self.polygons_per_second / target_fps

    def point_budget(self, target_fps: float = DEFAULT_TARGET_FPS) -> float:
        if target_fps <= 0:
            raise ValueError("target_fps must be positive")
        return self.points_per_second / target_fps

    def voxel_budget(self, target_fps: float = DEFAULT_TARGET_FPS) -> float:
        if target_fps <= 0:
            raise ValueError("target_fps must be positive")
        return self.voxels_per_second / target_fps


@dataclass(frozen=True)
class CapacityReport:
    """A capacity answer plus the interrogation's provenance and cost."""

    service_name: str
    host: str
    capacity: RenderCapacity
    #: polygon rate already committed on the service, each of its
    #: render sessions charged at its own frame rate
    committed_pps: float
    elapsed_seconds: float

    def headroom(self, target_fps: float) -> float:
        """Remaining polygon budget at the target frame rate."""
        return max(0.0,
                   self.capacity.polygon_budget(target_fps)
                   - self.committed_pps / target_fps)


@cache
def capacity_from_profile(profile) -> RenderCapacity:
    """Derive the advertised capacity from a machine profile.

    Point throughput tracks polygon throughput (a point is a cheap
    primitive, ~3x the vertex rate); voxel throughput is fill-rate-bound
    for machines with hardware volume support, zero otherwise.  A
    profile is frozen, so its one record is built once and shared.
    """
    return RenderCapacity(
        polygons_per_second=profile.polygon_rate,
        points_per_second=profile.polygon_rate * 3.0,
        voxels_per_second=(profile.fill_rate * 0.25
                           if profile.volume_support else 0.0),
        texture_memory_bytes=profile.texture_memory,
        volume_support=profile.volume_support,
        graphics_pipes=profile.graphics_pipes,
    )


def interrogate(render_service, requester_host: str) -> CapacityReport:
    """The data service's timed ``getCapacity`` SOAP call."""
    from repro.network.transport import SoapChannel

    network = render_service.container.network
    channel = SoapChannel(network, requester_host, render_service.host,
                          cpu_factor=render_service.container.cpu_factor)
    cap = render_service.capacity()
    _, timing = channel.request(
        ("getCapacity", {}),
        ("getCapacityResponse", {
            "polygonsPerSecond": cap.polygons_per_second,
            "textureMemoryBytes": cap.texture_memory_bytes,
            "volumeSupport": cap.volume_support,
        }),
    )
    return CapacityReport(
        service_name=render_service.name,
        host=render_service.host,
        capacity=cap,
        committed_pps=render_service.committed_pps(),
        elapsed_seconds=timing.total_seconds,
    )
