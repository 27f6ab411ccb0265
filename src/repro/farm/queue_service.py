"""The frame queue service: the farm's front door and source of truth.

A fifth RAVE service role (tmodel ``RaveFrameQueueService``), deployed
in a container and registered in UDDI like the others.  It owns every
job's :class:`~repro.farm.job.FrameRecord` ledger and a **fair-share
frame scheduler** in place of the original flat FIFO (which let one
long animation starve every job submitted after it):

- :meth:`submit` accepts a :class:`~repro.farm.job.RenderJob` — with a
  ``priority``, a ``tenant`` and a fair-share ``weight`` — and queues
  its whole range;
- :meth:`lease` hands an idle worker **exactly one** frame as a wire
  frame (:func:`repro.services.protocol.frame_farm_lease`) with a
  simulated-clock deadline.  The frame is chosen by the scheduler:
  a strictly higher ``priority`` job always goes out first (lease-time
  preemption, never lease revocation); inside a priority class, active
  jobs interleave by deficit round robin with per-job ``weight`` as the
  quantum, so a 10-frame job submitted behind a 500-frame animation
  still finishes promptly; and a tenant at its
  :meth:`~repro.core.grid.TenantQuota.lease_cap` is skipped while other
  tenants have pending work (work-conserving: the cap is ignored when
  nobody else is waiting).  Within one job, re-queued frames go out
  before never-leased ones;
- :meth:`complete` accepts a result frame and is idempotent: a result
  for a frame that is not leased to that worker any more (the lease
  expired and was re-issued, or the frame already completed), or that
  names any attempt but the one out on lease (none and 0 included), is
  counted and dropped — a frame is never marked done twice.  A hostile
  result whose frame index lies outside the job's range is counted as
  ``invalid_results`` and dropped, never raised;
- :meth:`requeue_expired` / :meth:`requeue_worker` put lost leases back
  at the *front of their job's queue*, **in frame order** (a batch of
  expired frames 3 and 5 re-leases as 3 then 5, not reversed), at most
  one re-queue per failure since only a ``leased`` frame can go back to
  ``pending``;
- :meth:`audit` is the ``checkframes`` pass: the sorted list of frame
  indexes a finished-looking job is still missing.

A frame changes state in three places — :meth:`lease`,
:meth:`complete` and the batch re-queue — and the ledger's summaries are
kept there: each job's per-state counts and one index of the frames out
on lease.  So :meth:`progress`, ``job.finished`` and
:meth:`active_leases` are O(1), :meth:`backlog` reads only the jobs with
frames pending, and the two ``requeue_*`` calls read the lease index
(bounded by the pool, not by the jobs): a frame costs the same in a
100-frame job as in a 10 000-frame one, and after any number of jobs.
:meth:`audit` and :meth:`describe` stay walks of one job's records —
the recount ``RaveSanitizer`` holds the counts and the index to.

Starvation is observable, not silent: every lease records the frame's
queue wait into the ``rave_farm_job_wait_seconds`` histogram (job +
tenant labels); a daemon check, armed for the first instant a job with
pending frames would go unserved past ``starvation_after``, notes
``farm:starved`` once per onset, scraped or not; and a scrape counts
those jobs into the ``rave_farm_starved_jobs`` gauge the monitor's
sustained ``farm-starvation`` alert fires on.  The queue exports its own
telemetry (kind ``farm``): queue depth, active leases and per-job
progress and priority gauges, set where a frame changes state, and the
``rave_farm_frames_total`` completion counter (the monitor derives the
frames/sec from it).  Every decision is noted as a ``farm:`` event
straight to the flight recorder, as the session grid notes its own: not
through the telemetry ring too, which the monitor would relay into the
same recorder a second time.
"""

from __future__ import annotations

import math
import zlib
from collections import deque
from functools import cached_property

from repro.core.grid import TenantQuota
from repro.errors import ServiceError
from repro.farm.job import (
    FRAME_DONE,
    FRAME_LEASED,
    FRAME_PENDING,
    FrameRecord,
    RenderJob,
)
from repro.obs import active as _obs
from repro.obs.telemetry import ServiceTelemetry
from repro.obs.tracing import TraceContext
from repro.obs.vocab import EVENT_FARM_PREFIX, SERVICE_FARM
from repro.services.protocol import (
    FarmLease,
    FarmResult,
    frame_farm_lease,
    unframe_farm_result,
)

#: seconds a job may sit with pending frames and no lease before the
#: starvation gauge counts it (the ``farm-starvation`` alert's signal)
DEFAULT_STARVATION_AFTER = 30.0


def _lease_span_id(job_id: str, index: int, attempt: int) -> str:
    """A deterministic 16-hex span id for one lease attempt.

    The queue has no RNG of its own (and must not grow one — replay
    determinism), so span ids are content-addressed: a CRC of the
    ``job#frame@attempt`` triple, unique per lease re-issue.
    """
    lo = zlib.crc32(f"{job_id}#{index}@{attempt}".encode())
    hi = zlib.crc32(f"{attempt}@{index}#{job_id}".encode())
    return f"{hi:08x}{lo:08x}"


class FrameQueueService:
    """Batch frame queue deployed in a service container."""

    def __init__(self, name: str, container, lease_timeout: float = 30.0,
                 starvation_after: float = DEFAULT_STARVATION_AFTER) -> None:
        from repro.services.wsdl import FRAME_QUEUE_WSDL

        if lease_timeout <= 0:
            raise ServiceError("lease_timeout must be positive")
        if starvation_after <= 0:
            raise ServiceError("starvation_after must be positive")
        self.name = name
        self.container = container
        self.endpoint = container.deploy(FRAME_QUEUE_WSDL)
        self.lease_timeout = lease_timeout
        self.starvation_after = starvation_after
        self._jobs: dict[str, RenderJob] = {}
        #: per-job pending frame indexes; re-queues go to the front of
        #: the owning job's deque, in frame order
        self._job_pending: dict[str, deque[int]] = {}
        #: the frames out on lease right now, by ``(job_id, index)``:
        #: entered by lease(), left by complete() and re-queue
        self._leased: dict[tuple[str, int], FrameRecord] = {}
        #: deficit-round-robin rings, one per priority class: the job at
        #: the left serves while its deficit lasts, then rotates away
        self._rings: dict[int, deque[str]] = {}
        #: per-job deficit (frames of credit); reset when backlog empties
        self._deficit: dict[str, float] = {}
        #: jobs already granted their quantum for the current ring visit
        self._charged: set[str] = set()
        #: per-tenant outstanding lease counts (quota accounting)
        self._tenant_leases: dict[str, int] = {}
        self._quotas: dict[str, TenantQuota] = {}
        #: worker slots the lease caps are computed against — kept by
        #: the controller via register_worker/unregister_worker, and
        #: grown lazily by lease() for hand-driven tests
        self._worker_slots: set[str] = set()
        #: jobs whose starvation onset is noted; a lease ends the onset
        self._starved: set[str] = set()
        self._starvation_check = None       # the one pending check
        self.leases_issued = 0
        self.frames_completed = 0
        self.duplicates_dropped = 0
        self.invalid_results = 0
        self.requeues = 0
        self.telemetry = ServiceTelemetry(name, container.host,
                                          SERVICE_FARM)
        registry = self.telemetry.registry
        self._frames_total = registry.counter(
            "rave_farm_frames_total", "frames completed")
        #: the state gauges ``_touch`` sets, and each job's two
        self._queue_gauges = (
            registry.gauge("rave_farm_queue_depth", "pending frames"),
            registry.gauge("rave_farm_active_leases", "frames out on lease"))
        self._job_gauges: dict[str, tuple] = {}
        #: each job's lease-wait histogram, made by its first lease
        self._job_waits: dict[str, object] = {}
        # the one value that moves with the clock alone (a client may
        # advance it analytically, running no event)
        self.telemetry.add_collector(
            "rave_farm_starved_jobs", lambda: len(self.starved_jobs()),
            "jobs with pending frames unserved past the starvation threshold")
        self._touch()

    # -- plumbing --------------------------------------------------------------------

    @property
    def network(self):
        return self.container.network

    @property
    def host(self) -> str:
        return self.container.host

    @property
    def now(self) -> float:
        return self.network.sim.now

    # -- tenants and workers ---------------------------------------------------------

    def register_tenant(self, quota: TenantQuota) -> None:
        """Cap a tenant's concurrent leases (the session grid's quota
        machinery, applied to the farm's discrete worker slots)."""
        self._quotas[quota.tenant] = quota

    def register_worker(self, worker: str) -> None:
        """Declare a worker slot (the controller's pool membership)."""
        self._worker_slots.add(worker)

    def unregister_worker(self, worker: str) -> None:
        self._worker_slots.discard(worker)

    def _tenant_has_room(self, tenant: str) -> bool:
        quota = self._quotas.get(tenant)
        if quota is None:
            return True
        cap = quota.lease_cap(len(self._worker_slots))
        return self._tenant_leases.get(tenant, 0) < cap

    # -- jobs ------------------------------------------------------------------------

    def submit(self, job: RenderJob) -> str:
        """Enqueue a job's whole frame range; returns its job id."""
        if job.job_id in self._jobs:
            raise ServiceError(f"job {job.job_id!r} already submitted")
        now = self.now
        job.submitted_at = now
        self._jobs[job.job_id] = job
        pending = deque()
        for index in sorted(job.frames):
            job.frames[index].queued_at = now
            pending.append(index)
        self._job_pending[job.job_id] = pending
        self._rings.setdefault(job.priority, deque()).append(job.job_id)
        self._touch(job)
        self._note("submit",
                   f"{job.job_id}: frames {job.start_frame}.."
                   f"{job.end_frame} of {job.session_id} "
                   f"({job.total_frames} queued, priority {job.priority}, "
                   f"tenant {job.tenant or '-'}, weight {job.weight:g})")
        return job.job_id

    def job(self, job_id: str) -> RenderJob:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise ServiceError(f"no job {job_id!r}") from None

    def jobs(self) -> list[RenderJob]:
        return [self._jobs[j] for j in sorted(self._jobs)]

    def progress(self, job_id: str) -> tuple[int, int]:
        job = self.job(job_id)
        return job.done_frames, job.total_frames

    def audit(self, job_id: str) -> list[int]:
        """The ``checkframes`` audit: frames the job is still missing."""
        job = self.job(job_id)
        missing = job.missing_frames()
        self._note("audit",
                   f"{job_id}: {len(missing)} missing of "
                   f"{job.total_frames}" + (f" {missing}" if missing else ""))
        return missing

    # -- the frame scheduler ---------------------------------------------------------

    def queue_depth(self) -> int:
        """Pending frames: the rings hold exactly the jobs that have some,
        so finished jobs cost nothing."""
        return sum(len(self._job_pending[job_id])
                   for ring in self._rings.values() for job_id in ring)

    def active_leases(self) -> int:
        return len(self._leased)

    def backlog(self) -> int:
        """Frames not yet done (pending + leased) — the autoscaler signal."""
        return self.queue_depth() + self.active_leases()

    def starved_jobs(self) -> list[str]:
        """Jobs with pending frames unserved past ``starvation_after``,
        sorted; the rings hold exactly the jobs with pending frames."""
        now, jobs = self.now, self._jobs
        return sorted(
            job_id for ring in self._rings.values() for job_id in ring
            if now - max(jobs[job_id].submitted_at,
                         jobs[job_id].last_leased_at)
            > self.starvation_after)

    def _ring_drop(self, job_id: str, priority: int) -> None:
        """A job's backlog emptied: it leaves the ring and (per DRR)
        loses its accumulated deficit."""
        ring = self._rings.get(priority)
        if ring is not None and job_id in ring:
            ring.remove(job_id)
            if not ring:
                del self._rings[priority]
        self._deficit.pop(job_id, None)
        self._charged.discard(job_id)

    def _ring_add(self, job_id: str, priority: int) -> None:
        """A job regained backlog: it rejoins the end of its ring."""
        ring = self._rings.setdefault(priority, deque())
        if job_id not in ring:
            ring.append(job_id)

    def _drr_next(self, ring: deque, eligible: set[str]) -> str | None:
        """Deficit round robin over one priority ring, one frame's worth.

        The job at the ring's left serves while its deficit lasts (its
        quantum is the job's ``weight``, topped up once per visit); when
        the deficit drops below one frame — or the job is ineligible —
        it rotates away and the next job tops up.  Serving does *not*
        rotate, so a weight-2 job leases two consecutive frames per
        round against a weight-1 job's one.
        """
        min_weight = min(self._jobs[j].weight for j in eligible)
        limit = (len(ring) + 1) * (int(1.0 / min_weight) + 2)
        for _ in range(limit):
            job_id = ring[0]
            if job_id in eligible:
                if job_id not in self._charged:
                    self._deficit[job_id] = (self._deficit.get(job_id, 0.0)
                                             + self._jobs[job_id].weight)
                    self._charged.add(job_id)
                if self._deficit[job_id] >= 1.0:
                    self._deficit[job_id] -= 1.0
                    return job_id
            self._charged.discard(job_id)
            ring.rotate(-1)
        return None

    def _pick_job(self) -> str | None:
        """The scheduling decision for one lease.

        Strict priority first: the highest class with schedulable work
        wins outright.  Tenant lease caps filter jobs inside every
        class; if the caps leave *nothing* schedulable anywhere, they
        are waived (work-conserving — an idle worker is never refused
        while frames are pending).
        """
        for enforce_quota in (True, False):
            for priority in sorted(self._rings, reverse=True):
                ring = self._rings[priority]
                eligible = {
                    j for j in ring
                    if self._job_pending.get(j)
                    and (not enforce_quota
                         or self._tenant_has_room(self._jobs[j].tenant))
                }
                if not eligible:
                    continue
                picked = self._drr_next(ring, eligible)
                if picked is not None:
                    return picked
        return None

    def lease(self, worker: str) -> bytes | None:
        """Hand ``worker`` exactly one frame, as wire bytes; None if idle."""
        self._worker_slots.add(worker)
        job_id = self._pick_job()
        if job_id is None:
            return None
        job = self._jobs[job_id]
        index = self._job_pending[job_id].popleft()
        if not self._job_pending[job_id]:
            self._ring_drop(job_id, job.priority)
        record = job.frame(index)
        if record.state != FRAME_PENDING:
            raise ServiceError(
                f"frame ledger corrupt: {job_id}#{index} is in the "
                f"pending deque but its state is {record.state!r}")
        now = self.now
        wait = max(0.0, now - record.queued_at)
        record.state = FRAME_LEASED
        job.state_counts[FRAME_PENDING] -= 1
        job.state_counts[FRAME_LEASED] += 1
        self._leased[job_id, index] = record
        record.attempts += 1
        record.worker = worker
        record.lease_deadline = now + self.lease_timeout
        job.last_leased_at = now
        self._starved.discard(job_id)
        self._touch()
        self.leases_issued += 1
        self._tenant_leases[job.tenant] = \
            self._tenant_leases.get(job.tenant, 0) + 1
        if job_id not in self._job_waits:
            self._job_waits[job_id] = self.telemetry.registry.histogram(
                "rave_farm_job_wait_seconds",
                "pending-to-lease wait per frame",
                job=job_id, tenant=job.tenant or "-")
        self._job_waits[job_id].observe(wait)
        trace = None
        if job.trace_id:
            trace = TraceContext(
                trace_id=job.trace_id,
                span_id=_lease_span_id(job_id, index, record.attempts))
        self._note("lease",
                   f"{job_id}#{index} -> {worker} "
                   f"(attempt {record.attempts}, priority {job.priority}, "
                   f"waited {wait:.3f}s, "
                   f"deadline {record.lease_deadline:g}s)",
                   trace=job.trace_id)
        return frame_farm_lease(FarmLease(
            job_id=job_id, frame=index, session_id=job.session_id,
            attempt=record.attempts, deadline=record.lease_deadline,
            priority=job.priority, trace=trace))

    def complete(self, data: bytes) -> bool:
        """Accept a worker's result frame; False when dropped.

        Exactly-once: only the worker currently holding the lease may
        complete a frame, and only with a result naming that lease's
        attempt.  A straggler whose lease expired and was re-issued
        (or whose frame already completed) is dropped, so a
        re-rendered frame never lands twice.  A corrupt or hostile
        result naming a frame outside the job's range is counted as
        ``invalid_results`` and dropped — never raised into the
        delivery path.
        """
        result: FarmResult = unframe_farm_result(data)
        job = self._jobs.get(result.job_id)
        record = None if job is None else job.frames.get(result.frame)
        if record is None:
            self.invalid_results += 1
            self.telemetry.registry.counter(
                "rave_farm_invalid_results_total",
                "results naming no known job or frame").inc()
            self._note("invalid", (
                f"result for unknown job {result.job_id!r} from "
                f"{result.worker} dropped" if job is None else
                f"{result.job_id}#{result.frame} from {result.worker} "
                f"dropped (frame outside {job.start_frame}.."
                f"{job.end_frame})"))
            return False
        if record.state != FRAME_LEASED or record.worker != result.worker:
            self.duplicates_dropped += 1
            self._note("duplicate",
                       f"{result.job_id}#{result.frame} from "
                       f"{result.worker} dropped ({record.state})")
            return False
        if result.attempt != record.attempts:
            # the same worker can hold a *re-issued* lease for a frame it
            # already lost: an expired attempt's result passes the
            # state+worker check above but must not complete the frame
            # (nor does one that names no attempt at all)
            self.duplicates_dropped += 1
            self._note("duplicate",
                       f"{result.job_id}#{result.frame} from "
                       f"{result.worker} dropped (stale attempt "
                       f"{result.attempt}, lease attempt "
                       f"{record.attempts})")
            return False
        now = self.now
        record.state = FRAME_DONE
        job.state_counts[FRAME_LEASED] -= 1
        job.state_counts[FRAME_DONE] += 1
        del self._leased[job.job_id, record.index]
        self._touch(job)
        record.render_seconds = result.render_seconds
        record.nbytes = result.nbytes
        record.completed_at = now
        self.frames_completed += 1
        self._tenant_leases[job.tenant] = max(
            0, self._tenant_leases.get(job.tenant, 0) - 1)
        self._frames_total.inc()
        self._render_seconds.observe(result.render_seconds)
        self._note("complete",
                   f"{result.job_id}#{result.frame} by {result.worker} "
                   f"({result.render_seconds:.3f}s render)",
                   trace=result.trace.trace_id if result.trace else "")
        if job.finished and job.finished_at is None:
            job.finished_at = now
            missing = self.audit(job.job_id)
            self._note("job-done",
                       f"{job.job_id}: {job.total_frames} frames in "
                       f"{now - job.submitted_at:.2f}s, audit missing "
                       f"{missing}")
        return True

    def requeue_expired(self) -> list[tuple[str, int]]:
        """Re-queue every lease the simulated clock has outlived."""
        now = self.now
        expired = sorted(key for key, f in self._leased.items()
                         if f.lease_deadline <= now)
        self._requeue_batch(expired, "lease expired")
        return expired

    def requeue_worker(self, worker: str) -> list[tuple[str, int]]:
        """Re-queue every frame leased to a worker declared dead."""
        lost = sorted(key for key, f in self._leased.items()
                      if f.worker == worker)
        self._requeue_batch(lost, f"worker {worker} lost")
        return lost

    def _requeue_batch(self, frames: list[tuple[str, int]],
                       why: str) -> None:
        """Re-queue a batch of lost leases, **preserving frame order**.

        Each job's lost frames go to the front of that job's pending
        deque ahead of never-leased work, but in ascending frame order —
        a single ``appendleft`` per frame would reverse the batch (frame
        5 re-leasing before frame 3), which is the ordering bug this
        method replaced.
        """
        per_job: dict[str, list[int]] = {}
        for job_id, index in frames:
            per_job.setdefault(job_id, []).append(index)
        now = self.now
        for job_id in sorted(per_job):
            job = self._jobs[job_id]
            requeued: list[int] = []
            for index in sorted(per_job[job_id]):
                record = job.frame(index)
                # only a live lease can lose its lease: a frame that
                # completed (or was already re-queued) in the same tick
                # must not be yanked back to pending
                if record.state != FRAME_LEASED:
                    continue
                record.state = FRAME_PENDING
                job.state_counts[FRAME_LEASED] -= 1
                job.state_counts[FRAME_PENDING] += 1
                del self._leased[job_id, index]
                record.requeues += 1
                record.lease_deadline = 0.0
                record.queued_at = now
                self._tenant_leases[job.tenant] = max(
                    0, self._tenant_leases.get(job.tenant, 0) - 1)
                self.requeues += 1
                self.telemetry.registry.counter(
                    "rave_farm_requeues_total",
                    "frames re-queued after a lost lease").inc()
                self._note("requeue", f"{job_id}#{index}: {why} "
                                      f"(requeue {record.requeues})")
                requeued.append(index)
            if not requeued:
                continue
            pending = self._job_pending.setdefault(job_id, deque())
            # front of the job's queue, batch order intact
            pending.extendleft(reversed(requeued))
            self._ring_add(job_id, job.priority)
            self._touch()

    # -- telemetry -------------------------------------------------------------------

    @cached_property
    def _render_seconds(self):
        """Made by the first completed frame, so none is scraped before."""
        return self.telemetry.registry.histogram(
            "rave_farm_render_seconds",
            "per-frame render latency reported by workers")

    def _touch(self, job: RenderJob | None = None) -> None:
        """Push the state gauges (``job``'s too) and arm the starvation
        check; called wherever a frame changes state."""
        depth, leases = self._queue_gauges
        depth.set(self.queue_depth())
        leases.set(self.active_leases())
        if job is not None:
            gauges = self._job_gauges.get(job.job_id)
            if gauges is None:
                registry = self.telemetry.registry
                gauges = self._job_gauges[job.job_id] = (
                    registry.gauge("rave_farm_job_progress",
                                   "per-job completed fraction",
                                   job=job.job_id),
                    registry.gauge("rave_farm_job_priority",
                                   "per-job scheduling priority",
                                   job=job.job_id,
                                   tenant=job.tenant or "-"))
            gauges[0].set(job.progress)
            gauges[1].set(job.priority)
        self._arm_starvation_check(self.now)

    def _arm_starvation_check(self, earliest: float) -> None:
        """Keep one check pending, for the first instant (not before
        ``earliest``) a job with pending frames and no noted onset starves."""
        if self._starvation_check is not None:
            return
        due = [max(self._jobs[job_id].submitted_at,
                   self._jobs[job_id].last_leased_at)
               for ring in self._rings.values() for job_id in ring
               if job_id not in self._starved]
        if due:
            self._starvation_check = self.network.sim.schedule_at(
                max(min(due) + self.starvation_after, earliest),
                self._check_starvation, daemon=True)

    def _check_starvation(self) -> None:
        """Note ``farm:starved`` once per onset, when it happens, scraped
        or not (a daemon wake-up); then re-arm past now."""
        self._starvation_check = None
        starved = self.starved_jobs()
        for job_id in starved:
            if job_id not in self._starved:
                self._note("starved",
                           f"{job_id}: no lease for "
                           f"{self.starvation_after:g}s+ with "
                           f"{len(self._job_pending[job_id])} pending")
        self._starved = set(starved)
        self._arm_starvation_check(math.nextafter(self.now, math.inf))

    def _note(self, kind: str, detail: str, trace: str = "") -> None:
        obs = _obs()
        if obs.enabled:
            obs.recorder.note(EVENT_FARM_PREFIX + kind, time=self.now,
                              detail=detail, trace=trace)

    def describe(self) -> dict:
        return {
            "queue_depth": self.queue_depth(),
            "active_leases": self.active_leases(),
            "leases_issued": self.leases_issued,
            "frames_completed": self.frames_completed,
            "duplicates_dropped": self.duplicates_dropped,
            "invalid_results": self.invalid_results,
            "requeues": self.requeues,
            "starved_jobs": self.starved_jobs(),
            "tenant_leases": {t: n for t, n
                              in sorted(self._tenant_leases.items()) if n},
            "jobs": [job.describe() for job in self.jobs()],
        }

    def __repr__(self) -> str:
        return (f"FrameQueueService(name={self.name!r}, "
                f"jobs={len(self._jobs)}, pending={self.queue_depth()}, "
                f"leased={self.active_leases()})")


__all__ = ["DEFAULT_STARVATION_AFTER", "FrameQueueService"]
