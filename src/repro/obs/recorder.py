"""Failure flight recorder: a bounded ring of structured events.

Chaos tests and the fault-tolerance stack generate a lot of history —
placements, migrations, lease transitions, injected faults, codec
switches — and when something dies, the question is always "what happened
in the seconds before?".  The :class:`FlightRecorder` answers it the way
an aircraft recorder does: a fixed-capacity ring buffer of cheap
structured events, dumped automatically when a watched service is
declared dead (``core/health.py``) or a host is crashed by the injector
(``network/faults.py``).

Dump deduplication: an injected crash *requests* a dump with a grace
period rather than dumping immediately, because the interesting events
(lease suspicion, death, recovery reassignments) happen *after* the
crash.  If the heartbeat path produces its death dump within the grace
window — its ``events_seen`` covers the crash marker — the deferred
crash dump is suppressed, so one failure leaves exactly one timeline.
A crash with no health monitoring attached still dumps after the grace
period, so nothing is ever lost silently.

The recorder is passive: it never reads a clock (callers stamp event
times), so it composes with any simulator and stays deterministic.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass


@dataclass(frozen=True)
class FlightEvent:
    """One recorded moment: simulated time, a kind tag, and free detail.

    ``trace`` carries the originating request's trace id (empty when the
    event was not caused by a traced request), so a flight-recorder
    timeline can be cross-referenced against the tracer's spans for the
    same id.
    """

    time: float
    kind: str        # e.g. "placement" | "migration" | "lease-transition" |
                     # "recovery" | "fault:crash" | "codec-switch"
    detail: str = ""
    trace: str = ""


class FlightRecorder:
    """Bounded ring buffer of :class:`FlightEvent` with triggered dumps."""

    def __init__(self, capacity: int = 2048) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self._events: deque[FlightEvent] = deque(maxlen=capacity)
        #: total events ever noted (ring overflow never hides the count)
        self.seen = 0
        #: completed dumps, oldest first
        self.dumps: list[dict] = []

    def note(self, kind: str, time: float = 0.0, detail: str = "",
             trace: str = "") -> None:
        """Record one event (cheap: one dataclass, one deque append)."""
        self._events.append(FlightEvent(time=time, kind=kind, detail=detail,
                                        trace=trace))
        self.seen += 1

    def events(self, kind: str | None = None) -> list[FlightEvent]:
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e.kind == kind]

    def dump(self, reason: str, time: float = 0.0) -> dict:
        """Snapshot the ring now; the dump joins :attr:`dumps` and returns."""
        record = {
            "reason": reason,
            "time": time,
            "events_seen": self.seen,
            "events": [
                {"time": e.time, "kind": e.kind, "detail": e.detail,
                 **({"trace": e.trace} if e.trace else {})}
                for e in self._events
            ],
        }
        self.dumps.append(record)
        return record

    def request_dump(self, reason: str, sim, grace: float = 10.0) -> None:
        """Dump after ``grace`` simulated seconds unless a later dump
        already covers everything noted up to this request.

        This is the crash path: the heartbeat-death dump (if health
        monitoring is attached) arrives within the grace window and
        subsumes the crash events, so the deferred dump stands down.
        The deferred event is a daemon: it never keeps ``sim.run()``
        alive on its own.
        """
        marker = self.seen
        dumps_before = len(self.dumps)

        def fire() -> None:
            for record in self.dumps[dumps_before:]:
                if record["events_seen"] >= marker:
                    return
            self.dump(reason, time=sim.now)

        sim.schedule(grace, fire, daemon=True)


def assert_story(dump: dict, *, order=(), counts=None, absent=(),
                 where=None) -> None:
    """Assert that a :meth:`FlightRecorder.dump` tells the expected story.

    - ``order``: kinds that must appear as a subsequence, in this order.
      An entry may be a ``(kind, predicate)`` pair, which only an event
      whose detail satisfies ``predicate`` matches;
    - ``counts``: ``{kind: n}``, exactly ``n`` events of each kind;
    - ``absent``: kinds that must not appear; a trailing ``:`` matches a
      prefix (``"sanitizer:"`` forbids every sanitizer event);
    - ``where``: ``{kind: predicate(detail)}``, which every event of that
      kind must satisfy.

    Raises :class:`AssertionError` naming the first expectation that
    failed and the kinds the dump holds.  A dump with no events — ``{}``,
    or a dump taken while nothing was noted — fails: a story nobody
    recorded did not hold.
    """
    events = dump.get("events") or []
    if not events:
        raise AssertionError(f"empty flight-recorder dump {dump!r}")
    kinds = [e["kind"] for e in events]

    def fail(message: str):
        raise AssertionError(
            f"{message}; the dump holds {dict(Counter(kinds))}")

    steps = [s if isinstance(s, tuple) else (s, None) for s in order]
    rest = iter(events)     # each step matches after the previous match
    for i, (kind, test) in enumerate(steps):
        if not any(e["kind"] == kind and (test is None or test(e["detail"]))
                   for e in rest):
            fail(f"order[{i}]: no {kind!r}"
                 f"{' matching its predicate' if test else ''}"
                 f" after {[k for k, _ in steps[:i]]}")
    for kind, n in (counts or {}).items():
        if kinds.count(kind) != n:
            fail(f"counts: {kinds.count(kind)} {kind!r}, expected {n}")
    for kind in absent:
        hits = [k for k in kinds
                if (k.startswith(kind) if kind.endswith(":") else k == kind)]
        if hits:
            fail(f"absent: {kind!r} appeared as {sorted(set(hits))}")
    for kind, test in (where or {}).items():
        bad = [e["detail"] for e in events
               if e["kind"] == kind and not test(e["detail"])]
        if bad:
            fail(f"where: {kind!r} fails its predicate on {bad[:3]}")


__all__ = [
    "FlightEvent",
    "FlightRecorder",
    "assert_story",
]
