"""Simulated time and discrete-event scheduling.

All paper-facing timings (Tables 2 and 5, the Figure 5 latency numbers) are
reported in *simulated seconds* produced by :class:`SimClock`.  Wall-clock
time never leaks into the results: the simulation is deterministic and
reproducible, which is what lets the benchmark harness regenerate the
paper's tables on any machine.

:class:`Simulator` is a minimal priority-queue discrete-event engine.  It is
deliberately simple — the network model computes most transfer times
analytically and only uses events where ordering matters (overlapping a
service bootstrap with scene updates, interleaved off-screen rendering,
workload-migration triggers).

Overlap in simulated time has one primitive: :meth:`Simulator.branch`
runs an activity on a child clock and reports how long it took without
moving the parent, and :meth:`Simulator.fork_join` runs a list of
activities that way and charges the parent the critical path only.
Recurring daemon work has one primitive too: a :class:`Ticker` runs a
callback every ``period`` seconds and stops and restarts as one loop.
:class:`SimClock` is constructed, and a simulator's ``clock`` assigned,
in this module and nowhere else.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from collections.abc import Callable, Iterable
from typing import Any


class SimClock:
    """Monotonic simulated-time source, in seconds.

    The clock only moves forward; :meth:`advance` by a negative amount is a
    programming error and raises ``ValueError``.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, dt: float) -> float:
        """Move the clock forward by ``dt`` seconds and return the new time."""
        if dt < 0:
            raise ValueError(f"cannot advance clock by negative dt={dt!r}")
        self._now += dt
        return self._now

    def advance_to(self, t: float) -> float:
        """Move the clock forward to absolute time ``t`` (no-op if in past)."""
        if t > self._now:
            self._now = t
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now:.6f})"


@dataclass(slots=True)
class _Event:
    """One scheduled callback; queued as ``(time, seq, event)``, so the
    heap orders by the tuple's first two items, compared in C."""

    time: float
    callback: Callable[[], Any]
    #: daemon events (recurring heartbeat/monitor ticks) never keep
    #: :meth:`Simulator.run` alive on their own
    daemon: bool = False
    cancelled: bool = False
    #: set when :meth:`Simulator.step` pops the event to run it
    fired: bool = False


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`; allows cancellation."""

    __slots__ = ("_event", "_sim")

    def __init__(self, event: _Event, sim: Simulator) -> None:
        self._event = event
        self._sim = sim

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event's callback from running.

        A cancelled non-daemon event stops keeping :meth:`Simulator.run`
        alive at once, not when its slot is eventually popped.
        Idempotent; a no-op once the event has run.
        """
        event = self._event
        if event.cancelled or event.fired:
            return
        event.cancelled = True
        if not event.daemon:
            self._sim._nondaemon_pending -= 1


class ClockBranch:
    """One activity's private timeline, forked from a simulator's clock.

    Entering swaps a child :class:`SimClock` started at
    ``parent.now + offset`` onto the simulator; leaving always puts the
    parent clock *object* back (``Testbed.clock``, tracers and the
    sanitizer hold it by reference) and never advances it — the caller
    decides what the parent pays from :attr:`elapsed`.  Branches nest.
    """

    __slots__ = ("_sim", "_offset", "_parent", "_child", "start")

    def __init__(self, sim: Simulator, offset: float = 0.0) -> None:
        self._sim = sim
        self._offset = offset

    def __enter__(self) -> ClockBranch:
        sim = self._sim
        self._parent = sim.clock
        self.start = self._parent.now + self._offset
        self._child = sim.clock = SimClock(self.start)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._sim.clock = self._parent

    @property
    def elapsed(self) -> float:
        """Simulated seconds the branch has consumed since it started."""
        return self._child.now - self.start


class Ticker:
    """Runs ``callback`` as daemon work every ``period`` simulated seconds.

    :meth:`start` arms the first run ``period`` from now, and each run
    re-arms after its callback returns, from the clock as it left it.
    Starting a running ticker or stopping a stopped one does nothing, and
    a callback may stop or restart its own ticker: one loop runs.
    """

    __slots__ = ("sim", "period", "callback", "_handle")

    def __init__(self, sim: Simulator, period: float,
                 callback: Callable[[], Any]) -> None:
        if period <= 0:
            raise ValueError(f"ticker period must be positive, got {period!r}")
        self.sim = sim
        self.period = period
        self.callback = callback
        self._handle: EventHandle | None = None

    @property
    def running(self) -> bool:
        return self._handle is not None

    def start(self) -> None:
        if self._handle is None:
            self._handle = self.sim.schedule(self.period, self._fire,
                                             daemon=True)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        handle = self._handle
        self.callback()
        if self._handle is handle:
            self._handle = self.sim.schedule(self.period, self._fire,
                                             daemon=True)


class Simulator:
    """Priority-queue discrete-event simulator driving a :class:`SimClock`.

    Events scheduled for the same instant run in scheduling order (FIFO),
    which keeps multi-service interactions deterministic.
    """

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        #: heap of ``(time, seq, event)``; ``seq`` is unique, so ties in
        #: time run in scheduling order and events are never compared
        self._queue: list[tuple[float, int, _Event]] = []
        self._seq = itertools.count()
        self._processed = 0
        self._nondaemon_pending = 0

    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return sum(1 for _, _, e in self._queue if not e.cancelled)

    @property
    def processed(self) -> int:
        """Total number of callbacks executed so far."""
        return self._processed

    def schedule(self, delay: float, callback: Callable[[], Any],
                 daemon: bool = False) -> EventHandle:
        """Run ``callback`` ``delay`` simulated seconds from now.

        ``daemon`` events (recurring heartbeat polls, monitor scrape ticks)
        execute normally but never keep :meth:`run` alive: once only daemon
        events remain queued, :meth:`run` returns instead of chasing the
        self-rescheduling tick forever.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay!r})")
        return self.schedule_at(self.clock.now + delay, callback, daemon=daemon)

    def schedule_at(self, time: float, callback: Callable[[], Any],
                    daemon: bool = False) -> EventHandle:
        """Run ``callback`` at absolute simulated time ``time``."""
        if time < self.clock.now:
            raise ValueError(
                f"cannot schedule at t={time!r}, clock already at {self.clock.now!r}"
            )
        event = _Event(float(time), callback, daemon)
        heapq.heappush(self._queue, (event.time, next(self._seq), event))
        if not daemon:
            self._nondaemon_pending += 1
        return EventHandle(event, self)

    def step(self) -> bool:
        """Execute the next event.  Returns ``False`` when the queue is empty."""
        while self._queue:
            _, _, event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            event.fired = True
            if not event.daemon:
                self._nondaemon_pending -= 1
            self.clock.advance_to(event.time)
            event.callback()
            self._processed += 1
            return True
        return False

    def run(self, max_events: int = 1_000_000) -> int:
        """Run until no non-daemon events remain; returns events executed.

        Daemon ticks scheduled before the last non-daemon event still run
        (they may themselves schedule non-daemon work, e.g. a monitor
        scrape putting bytes on the wire, which then drains too).
        ``max_events`` bounds runaway self-rescheduling loops.
        """
        executed = 0
        while executed < max_events and self._nondaemon_pending > 0:
            if not self.step():
                break
            executed += 1
        if executed >= max_events and self._nondaemon_pending > 0:
            raise RuntimeError(f"simulation did not drain within {max_events} events")
        return executed

    def run_until(self, t: float, max_events: int = 1_000_000) -> int:
        """Run every event scheduled at or before ``t``; advance clock to ``t``."""
        executed = 0
        while self._queue and executed < max_events:
            time, _, head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if time > t:
                break
            self.step()
            executed += 1
        if executed >= max_events and self._queue and self._queue[0][0] <= t:
            raise RuntimeError(f"simulation did not drain within {max_events} events")
        self.clock.advance_to(t)
        return executed

    def branch(self, offset: float = 0.0) -> ClockBranch:
        """Fork a private timeline starting ``offset`` seconds from now.

        ``with sim.branch() as b: ...`` runs the body against a child
        clock (events it schedules are stamped with branch time) and
        leaves ``b.elapsed`` for the caller to charge or schedule.
        """
        return ClockBranch(self, offset)

    def fork_join(self, activities: Iterable[Callable[[], Any]],
                  width: int | None = None) -> list[Any]:
        """Run ``activities`` overlapped in simulated time; join on the clock.

        Thunks run in batches of ``width`` (default: all at once), each on
        its own :meth:`branch`; a batch costs its slowest member, batches
        serialise, and the clock advances once by the total.  Returns the
        results in input order.  An activity that raises propagates with
        the clock restored and not advanced.
        """
        activities = list(activities)
        if width is None:
            width = max(1, len(activities))
        elif width < 1:
            raise ValueError(f"fork_join width must be >= 1, got {width!r}")
        results: list[Any] = []
        total = 0.0
        for first in range(0, len(activities), width):
            slowest = 0.0
            for activity in activities[first:first + width]:
                with self.branch(total) as branch:
                    results.append(activity())
                slowest = max(slowest, branch.elapsed)
            total += slowest
        self.clock.advance(total)
        return results
