"""The RAVE monitor service: the grid's monitoring plane.

A fourth service role alongside data, render and UDDI.  The paper's
migration policy needs load numbers, and in a real deployment those
numbers live on other machines — so the monitor *scrapes* each watched
service's :class:`~repro.obs.telemetry.ServiceTelemetry` over the
simulated network on a configurable period: the scrape payload is framed
by ``services/protocol.py`` and shipped through
:meth:`repro.network.simnet.Network.send`, so monitoring pays real
simulated transfer cost and shows up in the network's transfer log.

On every scrape that arrives the monitor:

- keeps the payload, re-flattening only the families that changed, and
  turns the counters of :data:`RATES` into rates;
- feeds the flattened values to the :class:`~repro.obs.rules.RuleEngine`
  (the one sustained-threshold detector: the migration policy acts on
  its alerts and keeps no load history of its own) and the
  :class:`~repro.obs.rules.SloTracker` (objectives from the paper's
  published rates);
- forwards newly-arrived remote service events into the active flight
  recorder, so a post-mortem dump shows the whole grid's timeline.

Grid aggregates are recomputed only after a change; the labelled view
(:func:`repro.obs.telemetry.federate`) is built only by ``snapshot()``.

Alerts are plain data, consumed by
``WorkloadMigrator.plan(session, alerts)`` — the closed loop
``examples/monitored_session.py`` demonstrates.  Without a monitor
nothing here runs and service behaviour is unchanged.
"""

from __future__ import annotations

from collections import deque

from repro.errors import MarshallingError, NetworkError, ServiceError
from repro.network.clock import Ticker
from repro.obs import active as _obs
from repro.obs.quantiles import (
    buckets_from_snapshot,
    estimate_quantile,
    merge_cumulative,
    quantile_suffix,
)
from repro.obs.rules import (
    DEFAULT_OVERLOAD_FPS,
    PAPER_SLOS,
    RuleEngine,
    SloTracker,
)
from repro.obs.telemetry import federate, flatten_metrics
from repro.obs.vocab import (
    ADMISSION_REJECTION_RATE,
    EVENT_ALERT_PREFIX,
    EVENT_TELEMETRY_PREFIX,
    FARM_FRAMES_PER_SECOND,
    GRID_FARM_BACKLOG,
    GRID_FARM_RENDER,
    GRID_FARM_STARVED,
    GRID_FARM_THROUGHPUT,
    GRID_MAX_UTILISATION,
    GRID_MEAN_FPS,
    GRID_MEAN_UTILISATION,
    GRID_MIN_FPS,
    GRID_OVERLOADED_FRACTION,
    GRID_QUEUE_DEPTH,
    GRID_QUEUE_WAIT,
    GRID_REJECTION_RATE,
    GRID_RENDER_SERVICES,
    METRIC_HISTOGRAM,
    SERVICE_FARM,
    SERVICE_GRID,
    SERVICE_RENDER,
)
from repro.services.container import ServiceContainer
from repro.services.protocol import unframe_telemetry

#: snapshot format tag (the dashboard keys on it)
MONITOR_SNAPSHOT_FORMAT = "rave-monitor-snapshot/1"

#: pseudo-service name the grid-wide aggregate series are evaluated under
GRID_SERVICE = "_grid"

#: samples kept per (service, tail metric) for the dashboard sparkline
TAIL_HISTORY = 64

#: scraped histogram families the monitor federates grid-wide: per-``le``
#: bucket counts are summed across every service exporting the family,
#: and quantiles are estimated from the *merged* distribution (averaging
#: per-service percentiles would be statistically meaningless)
FEDERATED_HISTOGRAMS = (
    ("rave_queue_wait_seconds", GRID_QUEUE_WAIT),
    ("rave_farm_render_seconds", GRID_FARM_RENDER),
)

#: quantiles published for each federated histogram
FEDERATED_QUANTILES = (0.95, 0.99)

#: counters turned into rates in each service's flattened view: (source
#: counter, derived name, window ``W`` in seconds).  At a sample taken at
#: ``t`` the rate is ``(C(t) - C(s)) / W``, ``s`` the newest sample of the
#: same instance at or before ``t - W`` (none: count from 0) -- on a scrape
#: grid whose period divides ``W``, the count in ``(t - W, t]`` over ``W``.
RATES = (
    ("rave_admission_rejects_total", ADMISSION_REJECTION_RATE, 10.0),
    ("rave_farm_frames_total", FARM_FRAMES_PER_SECOND, 20.0),
)

#: scraped gauges the monitor reduces grid-wide, one row per derived
#: series: (payload kind, source gauge, target, reduction).  A ``None``
#: source counts that kind's payloads.  A service that does not export
#: the source (a render service that never rendered has no fps gauge)
#: is left out of the reduction rather than dragging it toward zero.
GRID_AGGREGATES = (
    (SERVICE_RENDER, None, GRID_RENDER_SERVICES, "count"),
    (SERVICE_RENDER, "rave_rs_fps", GRID_MEAN_FPS, "mean"),
    (SERVICE_RENDER, "rave_rs_fps", GRID_MIN_FPS, "min"),
    (SERVICE_RENDER, "rave_rs_fps", GRID_OVERLOADED_FRACTION, "overloaded"),
    (SERVICE_RENDER, "rave_rs_utilisation", GRID_MEAN_UTILISATION, "mean"),
    (SERVICE_RENDER, "rave_rs_utilisation", GRID_MAX_UTILISATION, "max"),
    (SERVICE_GRID, "rave_queue_depth", GRID_QUEUE_DEPTH, "last"),
    (SERVICE_GRID, "rave_admission_rejection_rate", GRID_REJECTION_RATE,
     "last"),
    (SERVICE_FARM, "rave_farm_queue_depth", GRID_FARM_BACKLOG, "sum"),
    (SERVICE_FARM, "rave_farm_frames_per_second", GRID_FARM_THROUGHPUT,
     "sum"),
    (SERVICE_FARM, "rave_farm_starved_jobs", GRID_FARM_STARVED, "sum"),
)

#: how a :data:`GRID_AGGREGATES` row reduces the values it found
REDUCTIONS = {
    "count": lambda found: float(len(found)),
    "mean": lambda found: sum(found) / len(found),
    "min": min,
    "max": max,
    "sum": lambda found: sum(found, 0.0),
    "last": lambda found: found[-1],
    "overloaded": lambda found: (
        sum(1 for v in found if v < DEFAULT_OVERLOAD_FPS) / len(found)),
}


class MonitorService:
    """Scrapes per-service telemetry; evaluates alerts and SLOs.

    Per watched service the monitor keeps the latest payload, its
    flattened view (re-flattened per changed family) and, per instance,
    an *acknowledged event cursor*: the number of its events received.
    Each scrape asks for events from the cursor on, and the cursor
    advances only when a frame arrives — so a dropped scrape is
    re-covered by the next one, and overlapping scrapes are de-duplicated
    on arrival.
    """

    def __init__(self, name: str, container: ServiceContainer,
                 period: float = 1.0, rules=None,
                 slos=PAPER_SLOS) -> None:
        from repro.services.wsdl import MONITOR_SERVICE_WSDL

        if period <= 0:
            raise ServiceError("scrape period must be positive")
        self.name = name
        self.container = container
        self.endpoint = container.deploy(MONITOR_SERVICE_WSDL)
        self.period = period
        self.engine = RuleEngine(rules=rules)
        self.slo = SloTracker(targets=slos)
        #: watched telemetry sources, keyed by service name
        self._targets: dict[str, object] = {}
        #: last successfully ingested payload per service
        self._latest: dict[str, dict] = {}
        #: ``flatten_metrics`` of each latest payload, taken at ingest
        self._flat: dict[str, dict[str, float]] = {}
        #: per service, the flattening of each family of its latest payload
        self._flat_parts: dict[str, dict[str, dict[str, float]]] = {}
        #: ``grid_values()`` of the latest payloads; None once one changed
        self._grid: dict[str, float] | None = None
        #: per :data:`FEDERATED_HISTOGRAMS` family, its derived tail
        #: values; dropped when a scraped family of that name changes
        self._federated: dict[str, dict[str, float]] = {}
        #: unwatched services, whose scrapes in flight are dropped
        self._unwatched: set[str] = set()
        #: per service, the instance ingested; earlier ones are dropped
        self._instance: dict[str, str | None] = {}
        #: per (service, instance), remote events received (the cursor)
        self._forwarded: dict[tuple, int] = {}
        #: per (service, instance, counter), (time, count) rates start from
        self._counts: dict[tuple, deque] = {}
        self.scrapes = 0
        self.scrape_failures = 0
        self.scrape_bytes = 0
        #: same-origin overwrites detected by the last federate() call
        self.federate_collisions = 0
        #: service -> tail metric -> deque[(time, value)] (sparkline feed)
        self._tail: dict[str, dict[str, deque]] = {}
        #: service -> (the values last fed to the tail, their p95 keys)
        self._tail_keys: dict[str, tuple[dict, list[str]]] = {}
        #: (rule, service) pairs already noted to the flight recorder
        self._alerted: set[tuple[str, str]] = set()
        self._ticker = Ticker(container.network.sim, period, self._tick)
        #: the autoscaler publishing through this monitor, if any (set by
        #: its constructor): the snapshot, and so the dashboard, carries
        #: its pool-size history and every grow/release decision
        self.autoscaler = None

    @property
    def host(self) -> str:
        return self.container.host

    @property
    def network(self):
        return self.container.network

    # -- target management --------------------------------------------------------

    def watch(self, service) -> None:
        """Add a service (anything carrying a ``telemetry`` attribute)."""
        telemetry = getattr(service, "telemetry", None)
        if telemetry is None:
            raise ServiceError(
                f"{service!r} exposes no telemetry to scrape")
        self._targets[telemetry.service] = telemetry
        self._unwatched.discard(telemetry.service)

    def unwatch(self, service_name: str) -> None:
        """Stop scraping a service and drop it from every view but the
        SLO record; its cursor stays, so a re-watch re-forwards nothing."""
        self._targets.pop(service_name, None)
        self._unwatched.add(service_name)
        for view in (self._latest, self._flat, self._flat_parts,
                     self._tail, self._tail_keys):
            view.pop(service_name, None)
        self.engine.forget(service_name)
        self._grid = None
        self._federated.clear()

    def targets(self) -> list[str]:
        return sorted(self._targets)

    def discover(self, uddi_client, directory: dict,
                 business: str | None = None,
                 tmodels: tuple[str, ...] | None = None) -> list[str]:
        """Find scrape targets through UDDI, the paper's discovery path.

        ``directory`` maps endpoint URL → live service object (the same
        resolution the :class:`~repro.core.recruitment.Recruiter` uses —
        a stand-in for dereferencing the access point).  Returns the
        service names newly watched.
        """
        from repro.core.recruitment import (
            DATA_TMODEL,
            RAVE_BUSINESS,
            RENDER_TMODEL,
        )

        business = business or RAVE_BUSINESS
        tmodels = tmodels or (RENDER_TMODEL, DATA_TMODEL)
        uddi_client.create_proxy()
        added: list[str] = []
        for tmodel in tmodels:
            scan = uddi_client.scan_access_points(business, tmodel)
            for point in scan.access_points:
                service = directory.get(point.url)
                if service is None:
                    continue
                telemetry = getattr(service, "telemetry", None)
                if telemetry is None or telemetry.service in self._targets:
                    continue
                self.watch(service)
                added.append(telemetry.service)
        return added

    # -- the scrape loop ----------------------------------------------------------

    def start(self) -> None:
        """Begin the recurring scrape tick on the simulated clock.

        The tick is a daemon :class:`~repro.network.clock.Ticker`: it
        drives scrapes whenever the simulation runs but never keeps
        ``sim.run()`` alive by itself.
        """
        self._ticker.start()

    def stop(self) -> None:
        self._ticker.stop()

    def _tick(self) -> None:
        self.scrape_all()
        self.observe_grid(self.network.sim.now)

    def scrape_all(self) -> None:
        for name in sorted(self._targets):
            self.scrape_one(self._targets[name])

    def scrape_one(self, telemetry) -> None:
        """Scrape one target over the simulated network.

        The payload — metrics plus the events past this monitor's
        acknowledged cursor — is framed (real wire size), sent
        host-to-host via :meth:`Network.send`, and ingested when the
        transfer completes.  A down host, missing route or in-flight
        drop counts as a scrape failure — monitoring traffic is traffic —
        and so does a frame that does not parse or names no service: one
        bad target must not end monitoring for the rest of the grid.
        """
        network = self.network
        if not network.host_is_up(telemetry.host):
            self.scrape_failures += 1
            return
        key = (telemetry.service, self._instance.get(telemetry.service))
        frame = telemetry.scrape_frame(
            network.sim.clock.now, self._forwarded.get(key, 0), key[1])
        try:
            payload = unframe_telemetry(frame)
        except MarshallingError:
            payload = {}
        if "service" not in payload:
            self.scrape_failures += 1
            return

        def deliver(_record) -> None:
            self._ingest(payload, network.sim.now)

        def dropped(_record) -> None:
            self.scrape_failures += 1

        try:
            record = network.send(telemetry.host, self.host, len(frame),
                                  on_complete=deliver, on_drop=dropped)
        except NetworkError:
            self.scrape_failures += 1
            return
        self.scrape_bytes += record.nbytes

    def _ingest(self, payload: dict, arrival: float) -> None:
        service = payload["service"]
        key = (service, payload.get("instance"))
        superseded = (key in self._forwarded
                      and self._instance[service] != key[1])
        if service in self._unwatched or superseded:
            return
        self._instance[service] = key[1]
        previous = self._latest.get(service)
        self._latest[service] = payload
        if self._reflatten(service, payload, previous):
            self._grid = None
        sample_time = payload.get("time", arrival)
        self._derive_rates(key, sample_time)
        flat = self._flat[service]
        self.engine.observe(service, sample_time, flat)
        self.slo.observe(service, payload.get("kind", ""), sample_time, flat)
        self._record_tail(service, sample_time, flat)
        self._forward_events(key, payload)
        self.scrapes += 1

    def _reflatten(self, service: str, payload: dict,
                   previous: dict | None) -> bool:
        """Re-flatten the families whose value differs from ``previous``'s;
        whether anything :meth:`grid_values` reads changed."""
        metrics = payload.get("metrics", {})
        kept = {} if previous is None else previous.get("metrics", {})
        if (previous is not None and kept == metrics
                and previous.get("kind") == payload.get("kind")):
            return False
        old = self._flat_parts.get(service, {})
        parts = self._flat_parts[service] = {}
        for name, family in metrics.items():
            if name in old and kept.get(name) == family:
                parts[name] = old[name]
            else:
                parts[name] = flatten_metrics({name: family})
                self._federated.pop(name, None)
        for name in kept.keys() - metrics.keys():
            self._federated.pop(name, None)
        self._flat[service] = {key: value for part in parts.values()
                               for key, value in part.items()}
        return True

    def _derive_rates(self, key: tuple, time: float) -> None:
        """Write the :data:`RATES` into the service's flattened view."""
        flat = self._flat[key[0]]
        rates = {}
        for source, derived, window in RATES:
            if source in flat:
                samples = self._counts.setdefault(
                    (*key, source), deque([(float("-inf"), 0.0)]))
                samples.append((time, flat[source]))
                while samples[1][0] <= time - window:
                    samples.popleft()
                rates[derived] = (flat[source] - samples[0][1]) / window
        if not rates.items() <= flat.items():
            self._flat[key[0]] = {**flat, **rates}
            self._grid = None

    def _record_tail(self, service: str, time: float,
                     values: dict[str, float]) -> None:
        """Keep a short p95 history per service for the tail panel; the
        p95 keys are listed again only when ``values`` is a new view."""
        kept = self._tail_keys.get(service)
        if kept is None or kept[0] is not values:
            kept = self._tail_keys[service] = (values, [
                key for key in values if key.endswith("_p95")])
        for key in kept[1]:
            history = self._tail.setdefault(service, {}).setdefault(
                key, deque(maxlen=TAIL_HISTORY))
            history.append((time, values[key]))

    def _forward_events(self, key: tuple, payload: dict) -> None:
        """Acknowledge a payload's events; relay the new ones.

        The cursor advances whether or not a flight recorder is active,
        so a recorder switched on mid-run receives events from then on,
        not a replay of what the monitor already acknowledged.
        """
        obs = _obs()
        events = payload.get("events", [])
        seen = payload.get("events_seen", len(events))
        watermark = self._forwarded.get(key, 0)
        self._forwarded[key] = max(seen, watermark)
        if not obs.enabled:
            return
        # the payload's events are numbered seen - len(events) onwards;
        # those below the watermark came with an overlapping scrape
        for event in events[max(watermark - (seen - len(events)), 0):]:
            obs.recorder.note(EVENT_TELEMETRY_PREFIX + event["kind"],
                              time=event.get("time", 0.0),
                              detail=f"{key[0]}: {event.get('detail', '')}")

    # -- grid-wide aggregates -------------------------------------------------------

    def grid_values(self) -> dict[str, float]:
        """Aggregate the latest scraped payloads into the grid-wide view.

        The series the grid rules (and so the autoscaler) evaluate: one
        per :data:`GRID_AGGREGATES` row, reduced over whatever each
        service last shipped over the wire, plus the federated
        histogram quantiles.  Recomputed only after a change.
        """
        if self._grid is None:
            self._grid = self._aggregate()
        return dict(self._grid)

    def _aggregate(self) -> dict[str, float]:
        values: dict[str, float] = {}
        flats: dict[str, list[dict[str, float]]] = {}
        for name in sorted(self._latest):
            flats.setdefault(self._latest[name].get("kind"), []).append(
                self._flat[name])
        for kind, source, target, reduction in GRID_AGGREGATES:
            found = flats.get(kind, [])
            if source is not None:
                found = [flat[source] for flat in found if source in flat]
            if found:
                values[target] = REDUCTIONS[reduction](found)
        # the tail plane: federated histogram quantiles from the merged
        # (not averaged) per-service bucket counts, kept per family
        for family, derived in FEDERATED_HISTOGRAMS:
            if family not in self._federated:
                merged = self.federated_buckets(family)
                self._federated[family] = {
                    f"{derived}_{quantile_suffix(q)}":
                        estimate_quantile(merged, q)
                    for q in FEDERATED_QUANTILES
                } if merged and merged[-1][1] > 0 else {}
            values.update(self._federated[family])
        return values

    def federated_buckets(self, name: str) -> list[tuple[float, int]]:
        """Cumulative ``(le, count)`` pairs summed across every service.

        Collects the named histogram family from each latest scraped
        payload and merges the per-service cumulative bucket counts per
        ``le`` bound — the federation step that makes a grid-wide p95
        answer "what does the slowest 5% of *all* requests see", which
        no average of per-service p95s can.
        """
        per_service: list[list[tuple[float, int]]] = []
        for sname in sorted(self._latest):
            family = self._latest[sname].get("metrics", {}).get(name)
            if not family or family.get("kind") != METRIC_HISTOGRAM:
                continue
            for entry in family.get("series", []):
                if entry.get("buckets"):
                    per_service.append(buckets_from_snapshot(entry))
        return merge_cumulative(per_service) if per_service else []

    def observe_grid(self, now: float) -> dict[str, float]:
        """Feed the grid-wide aggregates into the rule engine."""
        values = self.grid_values()
        if values:
            self.engine.observe(GRID_SERVICE, now, values)
            self._record_tail(GRID_SERVICE, now, self._grid)
        self._note_new_alerts(now)
        return values

    def _note_new_alerts(self, now: float) -> None:
        """Flight-record each (rule, service) the moment it starts firing.

        The recorded event carries the alert's kind under the ``alert:``
        namespace, so a post-mortem dump shows *when* the monitoring
        plane declared the condition — re-noted only after the alert
        clears and fires again, not on every tick it stays up.
        """
        obs = _obs()
        firing = self.firing_alerts()
        keys = {(a.rule, a.service) for a in firing}
        if obs.enabled:
            for alert in firing:
                if (alert.rule, alert.service) in self._alerted:
                    continue
                obs.recorder.note(
                    EVENT_ALERT_PREFIX + alert.kind, time=now,
                    detail=f"{alert.rule} on {alert.service}: "
                           f"value={alert.value:g} since={alert.since:g}")
        self._alerted = keys

    # -- evaluation + publication ---------------------------------------------------

    def firing_alerts(self):
        """Alerts currently sustained (``rules.Alert`` objects)."""
        return self.engine.firing()

    def slo_report(self) -> dict:
        return self.slo.report()

    def snapshot(self) -> dict:
        """The federated monitor view (what the dashboard renders)."""
        services = {}
        for name in sorted(self._latest):
            payload = self._latest[name]
            services[name] = {
                "host": payload.get("host", "?"),
                "kind": payload.get("kind", "?"),
                "time": payload.get("time", 0.0),
                "metrics": dict(self._flat[name]),
                "events_seen": payload.get("events_seen", 0),
            }
        federate_stats: dict = {}
        merged = federate((self._latest[name]
                           for name in sorted(self._latest)),
                          stats=federate_stats)
        self.federate_collisions = federate_stats.get(
            "federate_collisions", 0)
        snapshot = {
            "format": MONITOR_SNAPSHOT_FORMAT,
            "time": self.network.sim.clock.now,
            "period": self.period,
            "grid": self.grid_values(),
            "services": services,
            "metrics": merged,
            "alerts": [
                {"rule": a.rule, "kind": a.kind, "service": a.service,
                 "since": a.since, "last_time": a.last_time,
                 "value": a.value, "severity": a.severity}
                for a in self.firing_alerts()
            ],
            "slo": self.slo_report(),
            "tail": {
                service: {metric: [[t, v] for t, v in history]
                          for metric, history in sorted(metrics.items())}
                for service, metrics in sorted(self._tail.items())
            },
            "scrapes": {"count": self.scrapes,
                        "failures": self.scrape_failures,
                        "bytes": self.scrape_bytes,
                        "federate_collisions": self.federate_collisions},
        }
        if self.autoscaler is not None:
            snapshot["autoscale"] = self.autoscaler.describe()
        return snapshot

    def __repr__(self) -> str:
        return (f"MonitorService(name={self.name!r}, host={self.host!r}, "
                f"targets={self.targets()}, period={self.period})")


__all__ = ["GRID_SERVICE", "MONITOR_SNAPSHOT_FORMAT", "MonitorService"]
