"""Failure detection: heartbeat leases over the simulated clock.

The paper's migration policy assumes every render service keeps reporting
its load; a crashed service simply goes silent and its scene share is never
re-rendered.  This module closes that gap with a lease-based failure
detector in the style of grid membership services:

- every watched service holds a **lease** renewed by heartbeats;
- a service whose lease is older than ``suspect_after`` becomes
  **suspected** (it may just be a slow link);
- older than ``dead_after`` and it is declared **dead** — the recovery
  callbacks fire exactly once per death;
- a heartbeat from a suspected or dead service **recovers** it (the host
  rebooted, the partition healed).

:class:`HeartbeatMonitor` evaluates transitions on demand (:meth:`poll`)
or on a recurring simulator event (:meth:`start`).  :class:`HeartbeatSource`
emits a service's heartbeats across the simulated network, so crashes,
partitions and downed links silence them exactly as they would in a real
deployment.  A monitor owns the sources made by :meth:`add_source`:
``unwatch`` stops one, and ``stop`` / ``start`` stop and resume its
polling and every source together.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

from repro.errors import NetworkError, ServiceError
from repro.network.clock import Ticker
from repro.obs import active as _obs
from repro.obs.vocab import EVENT_LEASE_TRANSITION

#: lease states
ALIVE = "alive"
SUSPECTED = "suspected"
DEAD = "dead"


@dataclass
class Lease:
    """Liveness bookkeeping for one watched service."""

    name: str
    last_beat: float
    state: str = ALIVE
    beats: int = 0
    deaths: int = 0

    def age(self, now: float) -> float:
        return now - self.last_beat


class HeartbeatMonitor:
    """Lease-based failure detector for attached render services.

    Callbacks receive the service name and the monitor:
    ``on_suspect(name)``, ``on_dead(name)``, ``on_recover(name)``.  Each
    fires once per transition; a dead service that heartbeats again fires
    ``on_recover`` and returns to ``alive``.
    """

    def __init__(self, sim, suspect_after: float = 1.5,
                 dead_after: float = 4.0) -> None:
        if suspect_after <= 0 or dead_after <= suspect_after:
            raise ServiceError(
                "need 0 < suspect_after < dead_after")
        self.sim = sim
        self.suspect_after = suspect_after
        self.dead_after = dead_after
        self._leases: dict[str, Lease] = {}
        self.on_suspect: list[Callable[[str], None]] = []
        self.on_dead: list[Callable[[str], None]] = []
        self.on_recover: list[Callable[[str], None]] = []
        self._sources: dict[str, HeartbeatSource] = {}
        self._poller: Ticker | None = None
        self.polls = 0

    # -- membership -------------------------------------------------------------

    def watch(self, name: str) -> Lease:
        """Start tracking a service; its lease begins renewed."""
        if name in self._leases:
            return self._leases[name]
        lease = Lease(name=name, last_beat=self.sim.now)
        self._leases[name] = lease
        return lease

    def unwatch(self, name: str) -> None:
        self._leases.pop(name, None)
        source = self._sources.pop(name, None)
        if source is not None:
            source.stop()

    def add_source(self, network, name: str, host: str, monitor_host: str,
                   interval: float = 0.5) -> HeartbeatSource:
        """Start (and keep) the source beating ``name`` from ``host`` to
        ``monitor_host``; a name already beating keeps its source."""
        if name not in self._sources:
            self._sources[name] = HeartbeatSource(
                monitor=self, network=network, name=name, host=host,
                monitor_host=monitor_host, interval=interval)
        return self._sources[name].start()

    def lease(self, name: str) -> Lease:
        try:
            return self._leases[name]
        except KeyError:
            raise ServiceError(f"{name!r} is not watched") from None

    def watched(self) -> list[str]:
        return sorted(self._leases)

    def is_watched(self, name: str) -> bool:
        return name in self._leases

    # -- heartbeats & transitions -----------------------------------------------

    def beat(self, name: str) -> None:
        """Renew a lease; recovers a suspected/dead service."""
        lease = self.lease(name)
        lease.last_beat = self.sim.now
        lease.beats += 1
        if lease.state != ALIVE:
            was = lease.state
            lease.state = ALIVE
            if was in (SUSPECTED, DEAD):
                obs = _obs()
                if obs.enabled:
                    obs.metrics.counter(
                        "rave_health_transitions_total",
                        "lease state transitions", state="recovered").inc()
                    obs.recorder.note(
                        EVENT_LEASE_TRANSITION, time=self.sim.now,
                        detail=f"{name}: {was} -> alive (heartbeat)")
                for cb in self.on_recover:
                    cb(name)

    def state(self, name: str) -> str:
        return self.lease(name).state

    def alive(self, name: str) -> bool:
        return self.lease(name).state == ALIVE

    def dead_services(self) -> list[str]:
        return sorted(name for name, lease in self._leases.items()
                      if lease.state == DEAD)

    def poll(self) -> list[tuple[str, str]]:
        """Evaluate every lease now; returns ``(name, new_state)`` changes."""
        self.polls += 1
        now = self.sim.now
        obs = _obs()
        changes: list[tuple[str, str]] = []
        for lease in list(self._leases.values()):
            age = lease.age(now)
            if lease.state == ALIVE and age >= self.suspect_after:
                lease.state = SUSPECTED
                changes.append((lease.name, SUSPECTED))
                if obs.enabled:
                    obs.recorder.note(
                        EVENT_LEASE_TRANSITION, time=now,
                        detail=f"{lease.name}: alive -> suspected "
                               f"(lease age {age:.2f}s)")
                for cb in self.on_suspect:
                    cb(lease.name)
            if lease.state == SUSPECTED and age >= self.dead_after:
                lease.state = DEAD
                lease.deaths += 1
                changes.append((lease.name, DEAD))
                if obs.enabled:
                    obs.recorder.note(
                        EVENT_LEASE_TRANSITION, time=now,
                        detail=f"{lease.name}: suspected -> dead "
                               f"(lease age {age:.2f}s)")
                for cb in self.on_dead:
                    cb(lease.name)
        if changes:
            if obs.enabled:
                for _, state in changes:
                    obs.metrics.counter("rave_health_transitions_total",
                                        "lease state transitions",
                                        state=state).inc()
                # Dump AFTER the callbacks: the recovery actions the death
                # triggered are in the ring, so the post-mortem shows both
                # the failure and the response.
                for name, state in changes:
                    if state == DEAD:
                        obs.recorder.dump(f"heartbeat-death:{name}",
                                          time=now)
        return changes

    # -- recurring evaluation ----------------------------------------------------

    def start(self, period: float = 0.5) -> None:
        """Start every source, and poll every ``period`` seconds unless
        already polling."""
        if period <= 0:
            raise ServiceError("poll period must be positive")
        for source in self._sources.values():
            source.start()
        if self._poller is None or not self._poller.running:
            self._poller = Ticker(self.sim, period, self.poll)
        self._poller.start()

    def stop(self) -> None:
        """Stop polling and every source."""
        if self._poller is not None:
            self._poller.stop()
        for source in self._sources.values():
            source.stop()

    def __repr__(self) -> str:
        by_state: dict[str, int] = {}
        for lease in self._leases.values():
            by_state[lease.state] = by_state.get(lease.state, 0) + 1
        return f"HeartbeatMonitor(watched={len(self._leases)}, {by_state})"


@dataclass
class HeartbeatSource:
    """Emits one service's heartbeats across the simulated network.

    Every ``interval`` seconds a small beat message travels from the
    service's host to the monitor's host; if the host is down or no route
    exists, the beat is silently lost — which is exactly the signal the
    monitor's leases turn into suspicion and death.
    """

    monitor: HeartbeatMonitor
    network: object            # repro.network.simnet.Network
    name: str
    host: str
    monitor_host: str
    interval: float = 0.5
    beat_bytes: int = 64
    beats_sent: int = 0
    beats_lost: int = 0

    def __post_init__(self) -> None:
        self._ticker = Ticker(self.network.sim, self.interval, self._emit)

    def start(self) -> HeartbeatSource:
        self.monitor.watch(self.name)
        self._ticker.start()
        return self

    def _emit(self) -> None:
        try:
            if not self.network.host_is_up(self.host):
                raise NetworkError(f"host {self.host!r} is down")
            delay = self.network.transfer_time(
                self.host, self.monitor_host, self.beat_bytes)
        except NetworkError:
            self.beats_lost += 1
            return
        injector = getattr(self.network, "fault_injector", None)
        if injector is not None and injector.roll_loss(self.host,
                                                       self.monitor_host):
            self.beats_lost += 1
            return
        self.beats_sent += 1
        self.network.sim.schedule(delay, self._deliver)

    def _deliver(self) -> None:
        if self.monitor.is_watched(self.name):
            self.monitor.beat(self.name)

    def stop(self) -> None:
        self._ticker.stop()


__all__ = [
    "ALIVE",
    "SUSPECTED",
    "DEAD",
    "Lease",
    "HeartbeatMonitor",
    "HeartbeatSource",
]
