"""Alert-driven recruitment autoscaling: the observe→scale loop.

Paper §3.2.7 sketches *resource-aware growth*: "if there is insufficient
spare capacity, then the data server uses UDDI to discover additional
render services ... recruited to join the session".  The monitor's
alerts drive migration (:meth:`~repro.core.migration.WorkloadMigrator.plan`);
this module closes the observe→**scale** loop on top of it, for any of
three render pools:

- a :class:`~repro.core.session.CollaborativeSession` grows on sustained
  grid-wide overload (``rave_grid_mean_fps`` pinned below the
  interactive threshold) once migration has no headroom left, and
  drains its least-utilised member on sustained grid-wide underload;
- a :class:`~repro.core.grid.SessionGridManager` grows on saturated
  admissions or overload, sheds low-priority tenants while it cannot
  grow, and releases members no session uses once the grid is calm;
- a :class:`~repro.farm.controller.RenderFarmController` grows on a
  sustained ``farm-backlog`` and releases idle workers once it clears.

One decision procedure, :meth:`RecruitmentAutoscaler.evaluate`, drives
all three.  What differs lives on the pool: the alert kinds that count
as pressure and calm, how it grows, what it may release, and how it
relieves load before and settles tenants after a decision.  Every
decision respects a **cooldown window** on the simulated clock and the
``min_services`` / ``max_services`` bounds, so grow/release never flap.

The autoscaler is a daemon tick like the monitor's scrape loop: it wakes
on the simulated clock, reads :meth:`MonitorService.firing_alerts`, and
acts.  Nothing here runs unless an autoscaler is constructed and started;
pools without one behave exactly as before.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import ServiceError
from repro.network.clock import Ticker
from repro.obs import active as _obs
from repro.obs.vocab import ALERT_OVERLOAD, EVENT_SCALE_PREFIX


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaling decision that changed (or grew) the pool."""

    time: float
    kind: str                     # "grow" | "release"
    reason: str                   # the alert rule that drove the decision
    services: tuple[str, ...]     # recruited / released service names
    pool_before: int
    pool_after: int


class RecruitmentAutoscaler:
    """Grows and shrinks a render pool from monitor alerts.

    ``pool`` is a session, a session grid or a render farm; ``farm`` is a
    render farm that shares a grid's pool: its backlog counts as
    pressure too, and the grid's recruits become its workers.
    """

    def __init__(self, pool, monitor, period: float | None = None,
                 cooldown_seconds: float = 8.0, min_services: int = 1,
                 max_services: int | None = None, farm=None) -> None:
        if monitor is None:
            raise ServiceError("the autoscaler needs a MonitorService")
        if pool is None:
            raise ServiceError(
                "the autoscaler needs a pool: a session, a session grid "
                "or a render farm")
        self.pool = pool
        self.farm = farm
        self.pressure_kinds = pool.PRESSURE_KINDS + (
            farm.PRESSURE_KINDS if farm is not None else ())
        self.monitor = monitor
        self.sim = monitor.network.sim
        self.period = float(period if period is not None else monitor.period)
        if self.period <= 0:
            raise ServiceError("autoscale period must be positive")
        if cooldown_seconds < 0:
            raise ServiceError("cooldown must be non-negative")
        self.cooldown_seconds = float(cooldown_seconds)
        self.min_services = max(1, int(min_services))
        self.max_services = max_services
        self.events: list[ScaleEvent] = []
        #: (time, size) at every pool-size change, bounded
        self.pool_history: deque = deque(maxlen=1024)
        self.migrations = 0
        self._last_scale_time: float | None = None
        self._ticker = Ticker(
            self.sim, self.period,
            lambda: self.evaluate(self.monitor.firing_alerts()))
        monitor.autoscaler = self
        self._note_pool(self.sim.now)

    # -- plumbing -------------------------------------------------------------------

    def pool_size(self) -> int:
        return self.pool.pool_size()

    def in_cooldown(self, now: float) -> bool:
        """Inside the hysteresis window after the last scale decision?"""
        return (self._last_scale_time is not None
                and now - self._last_scale_time < self.cooldown_seconds)

    def start(self) -> None:
        """Begin the recurring autoscale tick (a daemon, like scrapes)."""
        self._ticker.start()

    def stop(self) -> None:
        self._ticker.stop()

    # -- the decision procedure -----------------------------------------------------

    def evaluate(self, alerts, now: float | None = None) -> list[ScaleEvent]:
        """One control-loop pass over the monitor's firing alerts.

        The pool first relieves what it can in place (a session migrates
        work, and a migrator with no receiver may recruit — that counts
        as growth).  Then, outside the cooldown window: grow on pressure
        while below ``max_services``, or release on calm while above
        ``min_services``.  Last, the pool settles its tenants on the
        result (a grid sheds, restores and pumps its admission queue).
        Growth, however it happens, never takes the pool past
        ``max_services``.
        """
        now = self.sim.now if now is None else now
        pool = self.pool
        self._note_pool(now)
        alerts = list(alerts)
        pressure = [a for kind in self.pressure_kinds
                    for a in alerts if a.kind == kind]
        calm = [a for a in alerts if a.kind == pool.CALM_KIND]
        cooling = self.in_cooldown(now)
        room = 0 if cooling else self._room()
        size = self.pool_size()

        events: list[ScaleEvent] = []
        moved, grown = pool.relieve(alerts, room)
        self.migrations += len(moved)
        if grown:
            reason = next((a.rule for a in alerts if a.kind == ALERT_OVERLOAD),
                          pressure[0].rule if pressure else ALERT_OVERLOAD)
            events.append(self._record("grow", now, reason,
                                       [s.name for s in grown], size))
        elif pressure and room != 0:
            grown = pool.grow(room, alerts)
            if grown:
                if self.farm is not None:
                    self._adopt_into_farm(grown)
                moved, _ = pool.relieve(
                    alerts, None if room is None else room - len(grown))
                self.migrations += len(moved)
                events.append(self._record("grow", now, pressure[0].rule,
                                           [s.name for s in grown], size))
        elif (calm or pool.CALM_KIND is None) and not pressure \
                and not cooling and size > self.min_services:
            released = pool.release_idle(self.min_services)
            if released:
                reason = calm[0].rule if calm else pool.PRESSURE_KINDS[0]
                events.append(self._record("release", now, reason,
                                           released, size))
        pool.settle(now, pressure, grown)
        if events:
            self._note_pool(self.sim.now)
        return events

    def _room(self) -> int | None:
        """How many services growth may add (``None``: no cap)."""
        if self.max_services is None:
            return None
        return max(0, self.max_services - self.pool_size())

    def _adopt_into_farm(self, recruited) -> None:
        """Recruits serve both planes when a farm shares the grid's pool."""
        current = {s.name for s in self.farm.workers()}
        for service in recruited:
            if service.name not in current:
                self.farm.add_worker(service)
        self.farm.dispatch()

    def _record(self, kind: str, now: float, reason: str, names,
                pool_before: int) -> ScaleEvent:
        event = ScaleEvent(time=now, kind=kind, reason=reason,
                           services=tuple(names), pool_before=pool_before,
                           pool_after=self.pool_size())
        self.events.append(event)
        self._last_scale_time = now
        obs = _obs()
        if obs.enabled:
            obs.recorder.note(
                EVENT_SCALE_PREFIX + kind, time=now,
                detail=f"{', '.join(event.services)} (pool {pool_before} "
                       f"-> {event.pool_after}; {reason})")
            obs.metrics.counter("rave_autoscale_events_total",
                                "autoscaler grow/release decisions",
                                kind=kind).inc()
        return event

    def _note_pool(self, now: float) -> None:
        size = self.pool_size()
        if self.pool_history and self.pool_history[-1][1] == size:
            return
        self.pool_history.append((now, size))

    # -- publication ----------------------------------------------------------------

    def describe(self) -> dict:
        """JSON-serialisable state for the monitor snapshot / dashboard."""
        return {
            "period": self.period,
            "cooldown_seconds": self.cooldown_seconds,
            "min_services": self.min_services,
            "max_services": self.max_services,
            "pool_size": self.pool_size(),
            "migrations": self.migrations,
            "pool": [{"time": t, "size": n} for t, n in self.pool_history],
            "events": [
                {"time": e.time, "kind": e.kind, "reason": e.reason,
                 "services": list(e.services),
                 "pool_before": e.pool_before, "pool_after": e.pool_after}
                for e in self.events
            ],
        }

    def __repr__(self) -> str:
        return (f"RecruitmentAutoscaler(pool={self.pool_size()}, "
                f"events={len(self.events)}, period={self.period}, "
                f"cooldown={self.cooldown_seconds})")


__all__ = ["RecruitmentAutoscaler", "ScaleEvent"]
