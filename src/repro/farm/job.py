"""Render jobs: an animation frame range against a data-service scene.

A :class:`RenderJob` is the farm's unit of submission — render frames
``start_frame..end_frame`` of ``session_id``'s scene, one deterministic
orbit step per frame.  Each frame is tracked by a :class:`FrameRecord`
through the pending → leased → done lifecycle; a frame lost to a node
crash goes *back* to pending (a re-queue, counted), never to a second
concurrent lease, so every frame completes exactly once however many
times the fault layer makes the farm try.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.errors import ServiceError
from repro.scenegraph.nodes import CameraNode

#: frame lifecycle states
FRAME_PENDING = "pending"
FRAME_LEASED = "leased"
FRAME_DONE = "done"


@dataclass
class FrameRecord:
    """One animation frame's bookkeeping inside a job."""

    index: int
    state: str = FRAME_PENDING
    #: render attempts started (1 on first lease; +1 per re-lease)
    attempts: int = 0
    #: times the frame went back to pending after a lost lease
    requeues: int = 0
    #: worker currently holding (or last holding) the lease
    worker: str = ""
    #: simulated-clock time after which the lease may be re-issued
    lease_deadline: float = 0.0
    #: simulated-clock time the frame last entered the pending queue
    queued_at: float = 0.0
    render_seconds: float = 0.0
    completed_at: float = 0.0
    nbytes: int = 0


@dataclass
class RenderJob:
    """An animation range: frames ``start_frame..end_frame`` inclusive.

    ``done_frames`` / ``progress`` / ``finished`` read ``state_counts``
    and cost the same whatever the job's length; the counts follow a
    frame only through the queue's transitions, not through a
    hand-written ``record.state``.  ``missing_frames()`` and
    ``describe()`` walk the records: they are the independent recount.
    """

    job_id: str
    session_id: str
    start_frame: int
    end_frame: int
    width: int = 160
    height: int = 120
    #: camera orbit per frame (degrees) — deterministic per-frame views
    orbit_step_degrees: float = 3.0
    #: lease-time preemption class: a higher-priority job's frames always
    #: go out before any lower-priority job's (no lease revocation)
    priority: int = 0
    #: submitting tenant, charged against its farm quota at lease time
    tenant: str = ""
    #: fair-share weight inside a priority class — the job's
    #: deficit-round-robin quantum in frames per scheduling round
    weight: float = 1.0
    submitted_at: float = 0.0
    finished_at: float | None = None
    #: simulated-clock time of the job's most recent lease grant (used by
    #: the queue's starvation detector; 0 until first leased)
    last_leased_at: float = 0.0
    #: submitting request's trace id; leases derive per-frame spans from it
    trace_id: str = ""
    frames: dict[int, FrameRecord] = field(default_factory=dict)
    #: frames per lifecycle state: counted once at construction, then
    #: kept by the queue's three transitions (lease, complete, re-queue)
    state_counts: Counter = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.end_frame < self.start_frame:
            raise ServiceError(
                f"job {self.job_id!r}: end_frame {self.end_frame} < "
                f"start_frame {self.start_frame}")
        if self.weight <= 0:
            raise ServiceError(
                f"job {self.job_id!r}: weight must be positive, "
                f"got {self.weight!r}")
        if not self.frames:
            self.frames = {i: FrameRecord(index=i)
                           for i in range(self.start_frame,
                                          self.end_frame + 1)}
        self.state_counts = Counter(f.state for f in self.frames.values())

    # -- progress -------------------------------------------------------------------

    @property
    def total_frames(self) -> int:
        return len(self.frames)

    @property
    def done_frames(self) -> int:
        return self.state_counts[FRAME_DONE]

    @property
    def progress(self) -> float:
        return self.done_frames / self.total_frames

    @property
    def finished(self) -> bool:
        return self.done_frames == self.total_frames

    def frame(self, index: int) -> FrameRecord:
        try:
            return self.frames[index]
        except KeyError:
            raise ServiceError(
                f"job {self.job_id!r} has no frame {index}") from None

    def missing_frames(self) -> list[int]:
        """The ``checkframes`` audit: frame indexes not yet rendered."""
        return sorted(i for i, f in self.frames.items()
                      if f.state != FRAME_DONE)

    def camera_for(self, index: int) -> CameraNode:
        """The deterministic camera for one animation frame."""
        camera = CameraNode(name=f"{self.job_id}-f{index:04d}")
        camera.orbit(self.orbit_step_degrees * (index - self.start_frame))
        return camera

    def describe(self) -> dict:
        """JSON-serialisable job state (progress endpoint / dashboard)."""
        return {
            "job_id": self.job_id,
            "session_id": self.session_id,
            "range": [self.start_frame, self.end_frame],
            "priority": self.priority,
            "tenant": self.tenant,
            "weight": self.weight,
            "done": self.done_frames,
            "total": self.total_frames,
            "progress": self.progress,
            "finished": self.finished,
            "missing": self.missing_frames(),
            "requeues": sum(f.requeues for f in self.frames.values()),
        }


__all__ = [
    "FRAME_PENDING",
    "FRAME_LEASED",
    "FRAME_DONE",
    "FrameRecord",
    "RenderJob",
]
