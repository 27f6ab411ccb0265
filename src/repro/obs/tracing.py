"""Frame tracing: structured spans on the simulated clock.

A :class:`Span` is one named stage with a start and end in *simulated
seconds* (``repro.network.clock`` time) plus free-form attributes; the
streaming and session paths record the paper's pipeline stages —
``render`` → ``encode`` → ``transfer`` → ``composite`` → ``blit`` — with a
``frame`` attribute so a per-frame timeline can be reassembled
(:meth:`Tracer.chains`).

Most instrumented paths compute their timings analytically, so the primary
API is :meth:`Tracer.record` with explicit start/end; :meth:`Tracer.span`
is a clock-driven context manager for code that advances the simulator
while it works.  There is no no-op tracer: instrumented paths record only
under ``if obs.enabled:``, so the tracer of the disabled
:data:`repro.obs.NULL_OBS` bundle stays empty.

Cross-service requests carry a :class:`TraceContext` — a 64-bit trace id
plus the parent span's id, both drawn from a *seeded* RNG so replays are
deterministic.  The context rides the binary frame header
(:mod:`repro.services.protocol`, ``FLAG_TRACE``) and the SOAP envelope
header; every hop records its spans with a ``trace`` attribute, and
:meth:`Tracer.trace` reassembles the whole thin-client → admission →
render → stream journey under one id.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass(frozen=True)
class TraceContext:
    """One request's identity on the wire: trace id + parent span id.

    Both ids are 16-hex-char strings (64 bits).  A context is minted once
    at the request's origin (:func:`new_trace_context`) and re-derived at
    every hop via :meth:`child`, which keeps the trace id and replaces
    the span id — the classic W3C ``traceparent`` shape, shrunk to the
    simulator's needs.
    """

    trace_id: str
    span_id: str

    def child(self, rng) -> "TraceContext":
        """The next hop's context: same trace, fresh span id."""
        return TraceContext(trace_id=self.trace_id, span_id=_hex64(rng))


def _hex64(rng) -> str:
    """16 hex chars from a seeded RNG (deterministic under replay)."""
    return f"{rng.getrandbits(64):016x}"


def new_trace_context(rng) -> TraceContext:
    """Mint a fresh trace: both ids drawn from the caller's seeded RNG."""
    return TraceContext(trace_id=_hex64(rng), span_id=_hex64(rng))


@dataclass
class Span:
    """One traced pipeline stage in simulated time."""

    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def matches(self, **attrs) -> bool:
        return all(self.attrs.get(k) == v for k, v in attrs.items())


class Tracer:
    """Collects spans; bounded so runaway scenarios cannot eat memory."""

    def __init__(self, clock=None, capacity: int = 100_000) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be positive")
        self.clock = clock
        self.capacity = capacity
        self.spans: list[Span] = []
        self.dropped = 0

    def record(self, name: str, start: float, end: float, **attrs) -> Span:
        """Record one completed stage with explicit simulated times."""
        if end < start:
            raise ValueError(
                f"span {name!r} ends ({end}) before it starts ({start})")
        span = Span(name=name, start=float(start), end=float(end),
                    attrs=attrs)
        if len(self.spans) < self.capacity:
            self.spans.append(span)
        else:
            self.dropped += 1
        return span

    @contextmanager
    def span(self, name: str, **attrs):
        """Clock-driven span: times taken from the attached sim clock."""
        if self.clock is None:
            raise ValueError("tracer has no clock; use record() instead")
        start = self.clock.now
        yield
        self.record(name, start, self.clock.now, **attrs)

    # -- queries -----------------------------------------------------------------

    def select(self, name: str | None = None, **attrs) -> list[Span]:
        """Spans with the given name (if any) and matching attributes."""
        return [s for s in self.spans
                if (name is None or s.name == name) and s.matches(**attrs)]

    def trace(self, trace_id: str) -> list[Span]:
        """Every span recorded under ``trace_id``, ordered by start time.

        Spans join a trace by carrying a ``trace`` attribute; this is the
        cross-service view — one request's journey from thin client
        through admission, rendering and streaming, regardless of which
        service recorded each stage.
        """
        spans = [s for s in self.spans if s.attrs.get("trace") == trace_id]
        spans.sort(key=lambda s: (s.start, s.end))
        return spans

    def trace_ids(self) -> list[str]:
        """Every distinct trace id seen, sorted."""
        return sorted({s.attrs["trace"] for s in self.spans
                       if "trace" in s.attrs})

    def chains(self, key: str = "frame", **attrs) -> dict:
        """Group matching spans into per-frame chains, ordered by start.

        Returns ``{frame value: [spans...]}`` for every span carrying the
        ``key`` attribute; the per-frame lists are start-ordered, so a
        complete chain reads ``render → ... → blit`` directly.
        """
        grouped: dict = {}
        for span in self.spans:
            if key not in span.attrs or not span.matches(**attrs):
                continue
            grouped.setdefault(span.attrs[key], []).append(span)
        for spans in grouped.values():
            spans.sort(key=lambda s: (s.start, s.end))
        return grouped

    def clear(self) -> None:
        self.spans.clear()
        self.dropped = 0

    def snapshot(self) -> list[dict]:
        """Plain-data view of every span (the JSON exporter's payload)."""
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "duration": s.duration, "attrs": dict(s.attrs)}
                for s in self.spans]


__all__ = [
    "Span",
    "TraceContext",
    "new_trace_context",
    "Tracer",
]
