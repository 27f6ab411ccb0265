"""Per-service telemetry: the scrapeable side of the monitoring plane.

The process-global :mod:`repro.obs` bundle models a benchmark harness
watching the whole simulation from outside.  RAVE itself is distributed:
each render service, data service and the UDDI registry owns its load
numbers, and anyone who wants them must fetch them *over the network* —
exactly how NetLogger/Ganglia-era grid monitoring fed real schedulers.

:class:`ServiceTelemetry` gives one service its own
:class:`~repro.obs.metrics.MetricsRegistry` plus a bounded event stream.
Every instrument is set where its state changes, state gauges (fps,
utilisation, session counts) included; only a value that moves with no
write is recomputed by a scrape-time *collector*.  :meth:`scrape`
produces a plain-dict payload; :meth:`scrape_frame` writes the same
payload's bytes in the binary data-plane framing (``services/protocol.py``)
so a scrape has a real wire size and pays simulated transfer cost; it
fills a per-instance template with the registry's cached JSON, so its
cost follows what changed.  It exports counts, never rates: the monitor
derives those.  The event stream is a *cursor read* (see
:meth:`ServiceTelemetry.scrape`), so a steady-state scrape does not grow
with the service's history.

:func:`federate` merges scraped payloads into one labelled metrics dict
— every series gains ``service``/``host`` labels — which is what the
monitor service publishes as its federated snapshot.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import count, islice

from repro.obs.metrics import COMPACT_JSON, MetricsRegistry
from repro.obs.quantiles import (
    DEFAULT_QUANTILES,
    buckets_from_snapshot,
    estimate_quantile,
    quantile_suffix,
)

#: payload format tag carried by every scrape
TELEMETRY_FORMAT = "rave-telemetry/1"

#: numbers the process's telemetry instances (a restart is a new one)
_INSTANCES = count()


@dataclass(frozen=True)
class TelemetryEvent:
    """One structured service-side event (session created, failover, ...)."""

    time: float
    kind: str
    detail: str = ""


class ServiceTelemetry:
    """One service's own metrics registry + bounded event stream.

    Events are numbered from 0 in emission order; the ring keeps the
    newest ``event_capacity`` and ``events_seen`` counts them all.  No
    per-scraper state: a scraper names the event number to resume from,
    and the ``instance`` it counts (eight hex digits, one per object).
    """

    def __init__(self, service: str, host: str, kind: str,
                 event_capacity: int = 256) -> None:
        self.service = service
        self.host = host
        self.kind = kind                     # "render" | "data" | "registry"
        self.registry = MetricsRegistry()
        self.instance = f"{next(_INSTANCES):08x}"
        self._events: deque[TelemetryEvent] = deque(maxlen=event_capacity)
        #: total events ever emitted (ring overflow never hides the count)
        self.events_seen = 0
        self.scrapes = 0
        self._collectors: list = []
        # the members no scrape changes, encoded once for scrape_frame
        self._constants = COMPACT_JSON.encode({
            "format": TELEMETRY_FORMAT, "host": host,
            "instance": self.instance, "kind": kind})[1:-1]
        self._service_json = COMPACT_JSON.encode(service)

    # -- producing ----------------------------------------------------------------

    def add_collector(self, name: str, fn, help: str = "") -> None:
        """Set gauge ``name`` to ``fn()`` at every scrape: only for a value
        that moves with the clock or another owner's state.  A scrape
        writes nothing else, so it changes no story."""
        self._collectors.append((name, help, fn))

    def event(self, kind: str, time: float = 0.0, detail: str = "") -> None:
        self._events.append(TelemetryEvent(time=time, kind=kind,
                                           detail=detail))
        self.events_seen += 1

    def events(self) -> list[TelemetryEvent]:
        return list(self._events)

    def collect(self) -> None:
        """Set every collected gauge to its value now."""
        for name, help, fn in self._collectors:
            self.registry.gauge(name, help).set(fn())

    # -- scraping -----------------------------------------------------------------

    def scrape(self, now: float = 0.0, since: int = 0,
               instance: str | None = None) -> dict:
        """Collect, then return the payload a scraper would receive.

        ``since`` is the scraper's cursor: the number of events of
        ``instance`` (``None``: this one) it has received.  Ring entries
        numbered ``>= since`` are shipped, none once ``since`` reaches
        ``events_seen``, and the receiver numbers them from
        ``events_seen - len(events)``.  The whole ring ships for a cursor
        the ring cannot honour: ``since <= 0`` (the default), one older
        than the oldest entry kept (the ring overflowed), or one of
        another ``instance`` (the service restarted).  ``metrics`` and
        ``registry`` are cached: never mutate them.
        """
        events = self._take_scrape(since, instance)
        return {
            "format": TELEMETRY_FORMAT,
            "service": self.service,
            "host": self.host,
            "instance": self.instance,
            "kind": self.kind,
            "time": now,
            "registry": self.registry.stats(),
            "events": events,
            "events_seen": self.events_seen,
            "scrapes": self.scrapes,
            "metrics": self.registry.snapshot(),
        }

    def scrape_frame(self, now: float = 0.0, since: int = 0,
                     instance: str | None = None) -> bytes:
        """The scrape as wire bytes (binary framing + JSON payload): the
        bytes of ``frame_telemetry(scrape(...))``, written from a template.

        The constant members were encoded at construction, ``metrics``
        and ``registry`` are the registry's cached JSON, and only the
        counters, the time and any shipped events are encoded here.
        """
        from repro.services.protocol import FLAG_TELEMETRY, frame_message

        events = self._take_scrape(since, instance)
        registry = self.registry
        shipped = COMPACT_JSON.encode(events) if events else "[]"
        now = (repr(now) if type(now) is float and now - now == 0
               else COMPACT_JSON.encode(now))
        body = (f'{{"events":{shipped},"events_seen":{self.events_seen},'
                f'{self._constants},"metrics":{registry.snapshot_json()},'
                f'"registry":{registry.stats_json()},'
                f'"scrapes":{self.scrapes},"service":{self._service_json},'
                f'"time":{now}}}')
        return frame_message(body.encode(), flags=FLAG_TELEMETRY)

    def _take_scrape(self, since: int, instance: str | None) -> list:
        """Collect, count the scrape; the payload's ``events``."""
        self.collect()
        self.scrapes += 1
        oldest = self.events_seen - len(self._events)
        skip = (max(since - oldest, 0)
                if instance in (None, self.instance) else 0)
        return [{"time": e.time, "kind": e.kind, "detail": e.detail}
                for e in islice(self._events, skip, None)]


def flatten_metrics(metrics: dict) -> dict[str, float]:
    """Single-series counter/gauge families as ``{name: value}``.

    This is the view alert rules and SLO targets evaluate: a per-service
    registry keeps its headline gauges label-free, so one number per
    name.  Histograms contribute ``<name>_count`` and ``<name>_sum``
    plus tail estimates (``<name>_p50``/``_p95``/``_p99``, interpolated
    from the scraped cumulative buckets) once they hold observations;
    multi-series families are skipped (rules address scalars).
    """
    flat: dict[str, float] = {}
    for name, family in metrics.items():
        series = family.get("series", [])
        if len(series) != 1 or series[0].get("labels"):
            continue
        entry = series[0]
        if family.get("kind") == "histogram":
            flat[f"{name}_count"] = float(entry["count"])
            flat[f"{name}_sum"] = float(entry["sum"])
            if entry.get("count") and entry.get("buckets"):
                pairs = buckets_from_snapshot(entry)
                for q in DEFAULT_QUANTILES:
                    flat[f"{name}_{quantile_suffix(q)}"] = (
                        estimate_quantile(pairs, q))
        else:
            flat[name] = float(entry["value"])
    return flat


def federate(payloads, stats: dict | None = None) -> dict:
    """Merge scraped payloads into one metrics dict with origin labels.

    Every series from every payload appears under its family name with
    ``service`` and ``host`` labels added, so two services exporting the
    same metric name coexist instead of colliding.

    Two payloads claiming the *same* origin (identical ``service`` and
    ``host``) do collide: the later payload wins (its series replace the
    earlier one's), and the overwrite is counted — pass ``stats`` to
    receive ``{"federate_collisions": n}`` so the monitor can expose the
    loss instead of hiding it.
    """
    merged: dict[str, dict] = {}
    seen_origins: set[tuple[str, str]] = set()
    collisions = 0
    for payload in payloads:
        origin_key = (payload["service"], payload["host"])
        origin = {"service": payload["service"], "host": payload["host"]}
        if origin_key in seen_origins:
            # last-writer-wins, but audited: strip the earlier payload's
            # series before this one lands, and count the overwrite
            collisions += 1
            for family in merged.values():
                family["series"] = [
                    entry for entry in family["series"]
                    if (entry["labels"].get("service"),
                        entry["labels"].get("host")) != origin_key
                ]
        seen_origins.add(origin_key)
        for name, family in payload.get("metrics", {}).items():
            target = merged.setdefault(name, {
                "kind": family.get("kind", ""),
                "help": family.get("help", ""),
                "series": [],
            })
            for entry in family.get("series", []):
                labelled = dict(entry)
                labelled["labels"] = {**entry.get("labels", {}), **origin}
                target["series"].append(labelled)
    if stats is not None:
        stats["federate_collisions"] = (
            stats.get("federate_collisions", 0) + collisions)
    return {name: family for name, family in merged.items()
            if family["series"]}


__all__ = [
    "TELEMETRY_FORMAT",
    "TelemetryEvent",
    "ServiceTelemetry",
    "flatten_metrics",
    "federate",
]
