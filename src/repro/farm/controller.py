"""The render-farm controller: workers pulling frames, one at a time.

Drives a pool of :class:`~repro.services.render_service.RenderService`
workers against one :class:`~repro.farm.queue_service.FrameQueueService`:

- a daemon dispatch tick re-queues expired leases and offers every idle
  worker a pull; a worker that delivers a result immediately pulls
  again, so the pool stays saturated without waiting for the tick;
- each pull pays the lease transfer (queue → worker) on the simulated
  network, renders the frame inside a
  :meth:`~repro.network.clock.Simulator.branch`, and ships the result
  back via :meth:`Network.send` once the branch's elapsed time has
  passed — so N workers render concurrently and farm throughput scales
  with the pool;
- every worker emits heartbeats to a lease-based
  :class:`~repro.core.health.HeartbeatMonitor`; a worker declared dead
  has its in-flight frames re-queued at once (the fault path the chaos
  suite exercises), and a result whose ship was dropped in flight is
  recovered by the queue's own lease timeout;
- :meth:`grow` recruits extra workers through UDDI (the autoscaler's
  farm-pressure path) and :meth:`release_idle` returns them when the
  backlog clears.
"""

from __future__ import annotations

from repro.core.health import HeartbeatMonitor
from repro.errors import NetworkError, ServiceError, SessionError
from repro.network.clock import Ticker
from repro.obs import active as _obs
from repro.obs.vocab import FARM_BACKLOG_KIND
from repro.services.protocol import (
    FarmResult,
    frame_farm_result,
    unframe_farm_lease,
)


class RenderFarmController:
    """Schedules one queue's frames across a pool of render workers."""

    #: alert kinds that grow the pool (autoscaler); calm is their absence
    PRESSURE_KINDS = (FARM_BACKLOG_KIND,)
    CALM_KIND = None

    def __init__(self, queue, data_service, workers=(), recruiter=None,
                 poll_period: float = 0.5,
                 heartbeat_interval: float = 0.5,
                 suspect_after: float = 1.5,
                 dead_after: float = 4.0) -> None:
        self.queue = queue
        self.data_service = data_service
        self.recruiter = recruiter
        self.poll_period = poll_period
        self.heartbeat_interval = heartbeat_interval
        self._workers: dict[str, object] = {}
        self._busy: set[str] = set()
        self.failed_workers: set[str] = set()
        #: render-session cache, (worker, data session) -> rsid
        self._rsids: dict[tuple[str, str], str] = {}
        self.monitor = HeartbeatMonitor(self.sim,
                                        suspect_after=suspect_after,
                                        dead_after=dead_after)
        self.monitor.on_dead.append(self._on_worker_dead)
        self.monitor.on_recover.append(self._on_worker_recovered)
        self.frames_rendered = 0
        self.frames_lost = 0
        self.ships_dropped = 0
        self._ticker = Ticker(self.sim, poll_period, self._tick)
        for worker in workers:
            self.add_worker(worker)

    # -- plumbing --------------------------------------------------------------------

    @property
    def network(self):
        return self.queue.network

    @property
    def sim(self):
        return self.queue.network.sim

    # -- the pool --------------------------------------------------------------------

    def add_worker(self, service) -> None:
        if service.name in self._workers:
            raise ServiceError(f"{service.name!r} already in the farm")
        self._workers[service.name] = service
        self.failed_workers.discard(service.name)
        # the queue's tenant lease caps are fractions of the pool size
        self.queue.register_worker(service.name)
        self.monitor.add_source(self.network, service.name, service.host,
                                self.queue.host, self.heartbeat_interval)

    def remove_worker(self, name: str) -> None:
        self._workers.pop(name, None)
        self.monitor.unwatch(name)
        self._busy.discard(name)
        self.queue.unregister_worker(name)

    def workers(self) -> list:
        return [self._workers[n] for n in sorted(self._workers)]

    def pool_size(self) -> int:
        return len(self._workers)

    def live_workers(self) -> list:
        out = []
        for name in sorted(self._workers):
            if name in self.failed_workers:
                continue
            service = self._workers[name]
            try:
                if self.network.host_is_up(service.host):
                    out.append(service)
            except NetworkError:
                continue
        return out

    def idle_workers(self) -> list:
        return [s for s in self.live_workers() if s.name not in self._busy]

    def grow(self, limit: int | None = None, alerts=()) -> list:
        """Recruit one worker via UDDI and offer it work at once.

        The autoscaler's grow step: ``limit`` — how many may join
        (``0``: none); one joins per step whatever the alerts say.
        """
        if self.recruiter is None:
            return []
        added = self.recruiter.enlist(
            self.network, set(self._workers) | self.failed_workers,
            self.add_worker, 1 if limit is None else min(1, limit))
        if added:
            self.dispatch()
        return added

    def release_idle(self, min_workers: int = 1) -> list[str]:
        """Drop idle workers once the backlog clears (scale-in)."""
        if self.queue.backlog() > 0:
            return []
        released = []
        for name in sorted(self._workers):
            if len(self._workers) - len(released) <= min_workers:
                break
            if name in self._busy or name in self.failed_workers:
                continue
            released.append(name)
        for name in released:
            self.remove_worker(name)
        return released

    def relieve(self, alerts, limit: int | None = None) -> tuple[list, list]:
        """Nothing moves in place: a worker holds one frame at a time."""
        return [], []

    def settle(self, now: float, pressure, grown) -> None:
        """Nothing to fit: recruits were offered work as they joined."""

    # -- failure handling -------------------------------------------------------------

    def _on_worker_dead(self, name: str) -> None:
        if name not in self._workers:
            return
        self.failed_workers.add(name)
        self._busy.discard(name)
        # a dead worker's slot leaves the lease-cap denominator until it
        # recovers, so quotas track the live pool
        self.queue.unregister_worker(name)
        lost = self.queue.requeue_worker(name)
        self.frames_lost += len(lost)
        # the worker's render sessions died with its host
        for key in [k for k in self._rsids if k[0] == name]:
            del self._rsids[key]
        self.dispatch()

    def _on_worker_recovered(self, name: str) -> None:
        self.failed_workers.discard(name)
        if name in self._workers:
            self.queue.register_worker(name)
        self.dispatch()

    # -- dispatch --------------------------------------------------------------------

    def start(self) -> RenderFarmController:
        """Run heartbeats, their polling and the dispatch tick on the
        clock; ``stop()`` halts all three and a later ``start()`` resumes
        them."""
        self.monitor.start(self.poll_period)
        self._ticker.start()
        self.dispatch()
        return self

    def stop(self) -> None:
        self.monitor.stop()
        self._ticker.stop()

    def _tick(self) -> None:
        self.queue.requeue_expired()
        self.dispatch()

    def prewarm(self, session_id: str) -> int:
        """Bootstrap every idle worker's render session for one scene.

        The paper's container instance-creation cost (seconds of JVM
        start-up plus the scene transfer) dwarfs a single frame render,
        so the farm pays it once per worker up front rather than inside
        the first pull.  Each bootstrap runs in its own clock branch —
        concurrent in simulated time — and the worker stays busy until its
        bootstrap delay elapses.  Returns the number of bootstraps
        started.
        """
        started = 0
        for worker in self.idle_workers():
            if (worker.name, session_id) in self._rsids:
                continue
            self._busy.add(worker.name)
            try:
                with self.sim.branch() as branch:
                    self._render_session(worker, session_id)
            except (NetworkError, ServiceError, SessionError):
                self._busy.discard(worker.name)
                continue

            def ready(name: str = worker.name) -> None:
                self._busy.discard(name)
                self.dispatch()

            self.sim.schedule(branch.elapsed, ready)
            started += 1
        return started

    def dispatch(self) -> int:
        """Offer every idle live worker one pull; returns pulls started."""
        return sum(self._pull(worker) for worker in self.idle_workers())

    def _pull(self, worker) -> bool:
        """One worker pulls exactly one frame; False when nothing started."""
        if worker.name in self._busy or worker.name in self.failed_workers:
            return False
        lease_bytes = self.queue.lease(worker.name)
        if lease_bytes is None:
            return False
        try:
            lease_transfer = self.network.transfer_time(
                self.queue.host, worker.host, len(lease_bytes))
        except NetworkError:
            # undeliverable lease: the frame stays leased and the queue's
            # own timeout (or the worker's death) re-queues it
            return False
        lease = unframe_farm_lease(lease_bytes)
        job = self.queue.job(lease.job_id)
        self._busy.add(worker.name)
        # render in a clock branch so concurrent workers overlap in
        # simulated time — the global clock only sees the scheduled
        # delivery, which is what makes frames/sec scale with the pool
        try:
            with self.sim.branch() as branch:
                rsid = self._render_session(worker, lease.session_id)
                fb, timing = worker.render_view(
                    rsid, job.camera_for(lease.frame), job.width,
                    job.height, offscreen=True)
        except (NetworkError, ServiceError, SessionError):
            self._busy.discard(worker.name)
            return False
        obs = _obs()
        if obs.enabled and lease.trace is not None:
            # the worker's render span joins the submitting request's
            # trace; the span id came with the lease, so a re-issued
            # lease shows up as a distinct span on the same trace
            obs.tracer.record(
                "farm-render", self.sim.now + lease_transfer,
                self.sim.now + lease_transfer + timing.total_seconds,
                service=worker.name, job=lease.job_id, frame=lease.frame,
                attempt=lease.attempt, trace=lease.trace.trace_id)
        result_bytes = frame_farm_result(FarmResult(
            job_id=lease.job_id, frame=lease.frame, worker=worker.name,
            render_seconds=timing.total_seconds, nbytes=fb.color.nbytes,
            attempt=lease.attempt, trace=lease.trace))
        self.sim.schedule(lease_transfer + branch.elapsed,
                          lambda: self._ship(worker, result_bytes))
        return True

    def _render_session(self, worker, session_id: str) -> str:
        """The worker's render session for a scene, bootstrapped lazily."""
        key = (worker.name, session_id)
        rsid = self._rsids.get(key)
        if rsid is not None:
            return rsid
        session, _ = worker.create_render_session(self.data_service,
                                                  session_id)
        self._rsids[key] = session.render_session_id
        return session.render_session_id

    def _ship(self, worker, result_bytes: bytes) -> None:
        """The rendered frame travels worker → queue over the network."""
        try:
            self.network.send(
                worker.host, self.queue.host, len(result_bytes),
                on_complete=lambda record: self._deliver(worker,
                                                         result_bytes),
                on_drop=lambda record: self._ship_dropped(worker))
        except NetworkError:
            # host died between render and ship: the lease times out and
            # the frame is re-queued for another worker
            self._busy.discard(worker.name)

    def _deliver(self, worker, result_bytes: bytes) -> None:
        if self.queue.complete(result_bytes):
            self.frames_rendered += 1
        self._busy.discard(worker.name)
        self._pull(worker)

    def _ship_dropped(self, worker) -> None:
        self.ships_dropped += 1
        self._busy.discard(worker.name)
        self._pull(worker)

    def describe(self) -> dict:
        return {
            "workers": sorted(self._workers),
            "busy": sorted(self._busy),
            "failed_workers": sorted(self.failed_workers),
            "frames_rendered": self.frames_rendered,
            "frames_lost": self.frames_lost,
            "ships_dropped": self.ships_dropped,
        }

    def __repr__(self) -> str:
        return (f"RenderFarmController(workers={len(self._workers)}, "
                f"busy={len(self._busy)}, "
                f"rendered={self.frames_rendered})")


__all__ = ["RenderFarmController"]
