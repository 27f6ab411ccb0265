"""Observability: metrics and frame tracing for the simulated grid.

The paper's argument is built on *measured* behaviour — capacity
interrogation times, the Table 2 streaming rates, migration thresholds —
so the reproduction needs a way to observe itself.  This subpackage
provides it, NetLogger-style, entirely on the simulated clock:

- :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of labelled
  counters, gauges and histograms;
- :mod:`repro.obs.tracing` — a :class:`Tracer` of per-frame pipeline
  spans (``render → encode → transfer → composite → blit``) keyed to
  ``repro.network.clock`` time;
- :mod:`repro.obs.export` — Prometheus text and JSON snapshot exporters;
- :mod:`repro.obs.telemetry` — per-service registries + event streams,
  scrapeable over the simulated network;
- :mod:`repro.obs.rules` — declarative alert rules and paper-derived SLO
  targets evaluated by the monitor service;
- :mod:`repro.obs.recorder` — the failure flight recorder (bounded event
  ring dumped on heartbeat death or injected crash);
- :mod:`repro.obs.dashboard` — text dashboard over a federated monitor
  snapshot (``python -m repro dashboard``).

Instrumented hot paths (scheduler, migrator, session, health monitor,
network, streaming, adaptive compression) read the *active* bundle via
:func:`active` and write to it only under ``if obs.enabled:``.  By
default that is :data:`NULL_OBS`, an ordinary bundle built with
``enabled=False`` that nothing ever writes to, so instrumentation costs
one attribute check until someone attaches a registry:

    from repro import obs

    with obs.observed(clock=tb.clock) as o:
        ...run a scenario...
        print(obs.prometheus_text(o.metrics))

or imperatively with :func:`install` / :func:`uninstall`.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.export import prometheus_text, snapshot
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.recorder import FlightEvent, FlightRecorder, assert_story
from repro.obs.tracing import (
    Span,
    TraceContext,
    Tracer,
    new_trace_context,
)


class Observability:
    """A registry + tracer + flight-recorder trio, installable process-wide.

    ``enabled`` is the off switch: every hot path writes to the bundle
    only under ``if obs.enabled:``, so a disabled bundle stays empty and
    the path skips label formatting and timing math in one check.
    """

    __slots__ = ("metrics", "tracer", "recorder", "enabled")

    def __init__(self, metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None,
                 recorder: FlightRecorder | None = None,
                 enabled: bool = True) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.recorder = recorder if recorder is not None else FlightRecorder()
        self.enabled = enabled

    def snapshot(self, clock=None, meta: dict | None = None) -> dict:
        return snapshot(self.metrics, self.tracer, clock=clock, meta=meta,
                        recorder=self.recorder if self.enabled else None)


#: the permanent off switch: real instruments that nothing writes to
NULL_OBS = Observability(enabled=False)

_active: Observability = NULL_OBS


def active() -> Observability:
    """The currently installed bundle (:data:`NULL_OBS` when off)."""
    return _active


def install(obs: Observability | None = None, *,
            clock=None) -> Observability:
    """Attach an observability bundle as the process-wide default.

    With no argument, builds a fresh registry and a tracer bound to
    ``clock`` (so :meth:`Tracer.span` works against simulated time).
    """
    global _active
    if obs is None:
        obs = Observability(MetricsRegistry(), Tracer(clock=clock))
    _active = obs
    return obs


def uninstall() -> None:
    """Detach the active bundle, restoring :data:`NULL_OBS`."""
    global _active
    _active = NULL_OBS


@contextmanager
def observed(obs: Observability | None = None, *, clock=None):
    """Scoped :func:`install`; always restores :data:`NULL_OBS`."""
    bundle = install(obs, clock=clock)
    try:
        yield bundle
    finally:
        uninstall()


__all__ = [
    "Observability",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "Span",
    "TraceContext",
    "new_trace_context",
    "FlightEvent",
    "FlightRecorder",
    "assert_story",
    "NULL_OBS",
    "active",
    "install",
    "uninstall",
    "observed",
    "prometheus_text",
    "snapshot",
]
