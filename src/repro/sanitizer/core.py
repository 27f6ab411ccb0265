"""RaveSanitizer: runtime race/invariant detection under simulated time.

The static rules in :mod:`repro.analysis` prove structural properties —
writes go through transition methods, state moves follow the declared
charts.  What they cannot see is a *schedule*: two legal transition
methods interleaving in an order that breaks a conservation law.  The
sanitizer is the dynamic twin — a TSan analog where the "threads" are
``Simulator`` callback chains and the "happens-before" edges are event
boundaries:

- **monotonic time**: the clock never moves backwards across an event,
  and the clock *object* installed on the simulator is the same one
  after every event — a :meth:`~repro.network.clock.Simulator.branch`
  left open across an event, or a hand-rolled swap that forgets to
  restore the real clock, corrupts every later timestamp silently;
- **re-entrant mutation**: a callback that re-enters the event loop
  (``sim.run_until`` inside a callback) must not mutate any registered
  shared object from the nested execution — that is exactly the
  interleaving the ``daemon-race`` lint rule forbids statically;
- **conservation invariants**, re-checked after every top-level event:
  the session grid's charged capacity versus its members' shares, the
  farm ledger's ``pending + leased + done == total`` and exactly-once
  completion counts, and the polygon counts scene nodes keep against a
  recount (see :meth:`RaveSanitizer.watch_grid` /
  :meth:`RaveSanitizer.watch_farm_queue` /
  :meth:`RaveSanitizer.watch_scene`).

The sanitizer is **passive**: it wraps :meth:`Simulator.step` via
instance-attribute shadowing, never schedules events, and only *notes*
violations through the flight recorder (kind ``sanitizer:<what>``), so
a sanitized run replays byte-identically to an unsanitized one.  Set
``strict=True`` to raise on the first violation instead.

Usage::

    san = RaveSanitizer(tb.network.sim).attach()
    san.watch_grid(grid)
    san.watch_scene(tb.data_service, *grid.members)
    san.watch_farm_queue(queue)
    ...run the scenario...
    assert san.ok, san.violations
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

from repro.errors import ServiceError
from repro.obs import active as _obs
from repro.obs.vocab import EVENT_SANITIZER_PREFIX


@dataclass(frozen=True)
class SanitizerViolation:
    """One detected violation; ``kind`` is the flight-recorder suffix."""

    kind: str
    time: float
    detail: str


def _fingerprint(obj: object) -> object:
    """A cheap, comparison-stable snapshot of a shared object's state.

    ``repr`` is deliberate: every registered ledger is built from
    dicts/deques/sets of primitives whose repr is deterministic, and a
    fingerprint is only taken while a *nested* event-loop entry is on
    the stack — the rare case the re-entrancy check exists for.
    """
    return repr(obj)


class RaveSanitizer:
    """Opt-in ``Simulator`` wrapper detecting races and broken invariants.

    ``attach()`` shadows the simulator's bound ``step`` with an
    instrumented one (``run``/``run_until`` call ``self.step()``, so
    every execution path is covered); ``detach()`` restores it.
    Violations accumulate in :attr:`violations` and are noted through
    ``recorder`` (default: the active observability context's flight
    recorder) as ``sanitizer:`` events.
    """

    def __init__(self, sim, recorder=None, strict: bool = False) -> None:
        self.sim = sim
        self._recorder = recorder
        self.strict = strict
        self.violations: list[SanitizerViolation] = []
        self.events_checked = 0
        self._attached = False
        self._depth = 0
        self._clock = None
        #: name -> (obj, fingerprint_fn)
        self._shared: dict[str, tuple[object, Callable[[object], object]]] = {}
        #: name -> zero-arg check returning an error string or None
        self._invariants: dict[str, Callable[[], str | None]] = {}

    # -- lifecycle --------------------------------------------------------------------

    def attach(self) -> RaveSanitizer:
        if self._attached:
            raise ServiceError("sanitizer already attached")
        self._clock = self.sim.clock
        # shadow the bound method: run()/run_until() dispatch through
        # ``self.step()``, so the instance attribute intercepts them all
        self.sim.step = self._step
        self._attached = True
        return self

    def detach(self) -> None:
        if not self._attached:
            return
        del self.sim.step            # un-shadow the class method
        self._attached = False

    @property
    def ok(self) -> bool:
        return not self.violations

    # -- registration -----------------------------------------------------------------

    def register_shared(self, name: str, obj: object,
                        fingerprint: Callable[[object], object] | None = None
                        ) -> None:
        """Guard ``obj`` against mutation from nested event-loop entries."""
        self._shared[name] = (obj, fingerprint or _fingerprint)

    def register_invariant(self, name: str,
                           check: Callable[[], str | None]) -> None:
        """Run ``check`` after every top-level event; a returned string
        is the violation detail (None = invariant holds)."""
        self._invariants[name] = check

    # -- the instrumented step --------------------------------------------------------

    def _step(self) -> bool:
        before = self.sim.clock.now
        nested = self._depth > 0
        snapshot = self._snapshot() if nested else None
        self._depth += 1
        try:
            advanced = type(self.sim).step(self.sim)
        finally:
            self._depth -= 1
        if self.sim.clock is not self._clock:
            self._violate(
                "clock-swap",
                f"simulator clock object changed across an event "
                f"(scratch clock not restored?): now reads "
                f"{self.sim.clock.now:.6f}, real clock at "
                f"{self._clock.now:.6f}")
        elif self.sim.clock.now < before:
            self._violate(
                "clock-backwards",
                f"clock moved backwards across an event: "
                f"{before:.6f} -> {self.sim.clock.now:.6f}")
        if nested:
            self._check_reentrant(snapshot)
        if self._depth == 0:
            for name, check in self._invariants.items():
                detail = check()
                if detail is not None:
                    self._violate("conservation", f"{name}: {detail}")
            self.events_checked += 1
        return advanced

    def _snapshot(self) -> dict[str, object]:
        return {name: fp(obj)
                for name, (obj, fp) in self._shared.items()}

    def _check_reentrant(self, snapshot: dict[str, object]) -> None:
        for name, (obj, fp) in self._shared.items():
            if fp(obj) != snapshot.get(name):
                self._violate(
                    "reentrant",
                    f"shared object {name!r} mutated from a nested "
                    f"event-loop entry — route the mutation through a "
                    f"scheduled transition, not a re-entrant callback")

    def _violate(self, kind: str, detail: str) -> None:
        violation = SanitizerViolation(kind=kind, time=self._clock.now,
                                       detail=detail)
        self.violations.append(violation)
        recorder = self._recorder
        if recorder is None:
            obs = _obs()
            recorder = obs.recorder if obs.enabled else None
        if recorder is not None:
            recorder.note(EVENT_SANITIZER_PREFIX + kind,
                          time=violation.time, detail=detail)
        if self.strict:
            raise ServiceError(f"sanitizer: {kind}: {detail}")

    # -- canned watchers --------------------------------------------------------------

    def watch_grid(self, grid) -> None:
        """Guard a :class:`~repro.core.grid.SessionGridManager`.

        Conservation: queued session ids are unique and disjoint from
        admitted ones (a duplicate would double-charge the pool on
        admit), and every unparked healthy session's member shares are
        pairwise disjoint — one scene node rendered by two members is
        double-spent capacity the pps ledger never charged.
        """
        self.register_shared(f"grid:{grid.name}:queue", grid._queue)
        self.register_shared(f"grid:{grid.name}:sessions", grid._sessions,
                             fingerprint=lambda s: repr(sorted(s)))
        self.register_invariant(f"grid:{grid.name}",
                                lambda: self._check_grid(grid))

    @staticmethod
    def _check_grid(grid) -> str | None:
        queued = [e.session_id for e in grid._queue]
        if len(queued) != len(set(queued)):
            return f"duplicate session ids in admission queue: {queued}"
        both = set(queued) & set(grid._sessions)
        if both:
            return (f"session ids both queued and admitted: "
                    f"{sorted(both)}")
        for sid, gs in sorted(grid._sessions.items()):
            if gs.parked or gs.session.failed_services:
                continue                # shares in flux, legal transient
            seen: dict[int, str] = {}
            for svc in gs.session.render_services:
                share = gs.session.attachment(svc).share
                for node_id in share:
                    if node_id in seen:
                        return (f"session {sid}: node {node_id} in the "
                                f"share of both {seen[node_id]!r} and "
                                f"{svc.name!r} — double-rendered work "
                                f"the capacity ledger never charged")
                    seen[node_id] = svc.name
        return None

    def watch_farm_queue(self, queue) -> None:
        """Guard a :class:`~repro.farm.queue_service.FrameQueueService`.

        Conservation per job: ``pending + leased + done == total``, the
        pending deque holds exactly the pending-state frames once each,
        completions are exactly-once (``frames_completed`` equals the
        count of done frames), and the per-tenant lease ledger matches
        the leased-state frames tenant by tenant.  The summaries the
        queue keeps at its transitions are held to the same recount:
        every job's ``state_counts`` equals it state by state, and the
        lease index holds exactly the leased-state records.
        """
        self.register_shared(f"farm:{queue.name}:pending",
                             queue._job_pending)
        self.register_shared(f"farm:{queue.name}:leased", queue._leased,
                             fingerprint=lambda d: repr(sorted(d)))
        self.register_shared(f"farm:{queue.name}:tenant-leases",
                             queue._tenant_leases)
        self.register_invariant(f"farm:{queue.name}",
                                lambda: self._check_farm(queue))

    @staticmethod
    def _check_farm(queue) -> str | None:
        from repro.farm.job import FRAME_DONE, FRAME_LEASED, FRAME_PENDING

        total_done = 0
        tenant_leased: dict[str, int] = {}
        on_lease = {}
        for job_id, job in sorted(queue._jobs.items()):
            counts = {FRAME_PENDING: 0, FRAME_LEASED: 0, FRAME_DONE: 0}
            for record in job.frames.values():
                if record.state not in counts:
                    return (f"job {job_id}: frame {record.index} in "
                            f"undeclared state {record.state!r}")
                counts[record.state] += 1
                if record.state == FRAME_LEASED:
                    on_lease[job_id, record.index] = record
            for state, n in counts.items():
                if job.state_counts[state] != n:
                    return (f"job {job_id}: state_counts says "
                            f"{job.state_counts[state]} {state} frames "
                            f"but {n} records are {state}")
            if sum(counts.values()) != job.total_frames:
                return (f"job {job_id}: pending + leased + done = "
                        f"{sum(counts.values())} != total "
                        f"{job.total_frames}")
            deque_ids = list(queue._job_pending.get(job_id, ()))
            if len(deque_ids) != len(set(deque_ids)):
                return (f"job {job_id}: duplicate frame indexes in the "
                        f"pending deque: {deque_ids}")
            if len(deque_ids) != counts[FRAME_PENDING]:
                return (f"job {job_id}: pending deque holds "
                        f"{len(deque_ids)} frames but {counts[FRAME_PENDING]} "
                        f"records are pending")
            for index in deque_ids:
                if job.frames[index].state != FRAME_PENDING:
                    return (f"job {job_id}: frame {index} queued as "
                            f"pending but its state is "
                            f"{job.frames[index].state!r}")
            total_done += counts[FRAME_DONE]
            tenant_leased[job.tenant] = (tenant_leased.get(job.tenant, 0)
                                         + counts[FRAME_LEASED])
        if queue.frames_completed != total_done:
            return (f"exactly-once broken: frames_completed = "
                    f"{queue.frames_completed} but {total_done} frames "
                    f"are done")
        for tenant in sorted(tenant_leased, key=repr):
            leased = tenant_leased[tenant]
            ledger = queue._tenant_leases.get(tenant, 0)
            if ledger != leased:
                return (f"tenant {tenant!r}: lease ledger says {ledger} "
                        f"but {leased} frames are leased")
        if queue._leased != on_lease:
            return (f"lease index holds {sorted(queue._leased)} but the "
                    f"leased records are {sorted(on_lease)}")
        return None

    def watch_scene(self, *services) -> None:
        """Guard the polygon counts kept on the scene trees of ``services``.

        Each service is a data service (the trees of its sessions) or a
        render service (the trees its render sessions draw); the trees are
        looked up after every event, so sessions that come and go are
        covered.  Conservation: every node's ``subtree_polygons`` equals
        a recount of ``n_polygons`` over its subtree, so every policy
        query that reads the kept counts reads what a walk would find.
        """
        names = ",".join(service.name for service in services)
        self.register_invariant(f"scene:{names}",
                                lambda: self._check_scene(services))

    @staticmethod
    def _check_scene(services) -> str | None:
        seen: set[int] = set()
        for service in services:
            for session in list(service._sessions.values()):
                tree = session.tree
                if id(tree) in seen:
                    continue
                seen.add(id(tree))
                walked: dict[int, int] = {}
                # reversed pre-order: every child is recounted before its
                # parent
                for node in reversed(list(tree.root.iter_subtree())):
                    count = node.n_polygons + sum(walked[id(child)]
                                                  for child in node.children)
                    walked[id(node)] = count
                    if node.subtree_polygons != count:
                        return (f"{service.name}: tree {tree.name!r} node "
                                f"{node.node_id} keeps "
                                f"{node.subtree_polygons} subtree polygons "
                                f"but a walk counts {count}")
        return None
