"""Shared string vocabularies for the monitoring plane.

The monitoring -> alerting -> scaling loop is glued together by short
string tags: flight-recorder event kinds, alert kinds consumed by the
migrator and autoscaler, service roles carried in telemetry payloads,
and the grid-wide metric names the monitor *computes* (rather than
registering through a :class:`~repro.obs.metrics.MetricsRegistry`).
Before this module each tag was a bare literal repeated across files,
and a typo on either side of a producer/consumer pair failed silently.

Everything lives here once, as plain constants grouped into frozensets,
and ``ravelint`` (:mod:`repro.analysis`) statically checks every call
site against these sets: a ``recorder.note(...)`` kind, an
``AlertRule(kind=...)``, or a ``.kind == "..."`` comparison that names a
string outside its vocabulary is a lint error.  This module must stay
import-free (constants only) so both the runtime and the AST-based
checker can treat it as the single source of truth.
"""

from __future__ import annotations

# -- flight-recorder event kinds ------------------------------------------------------
# (:meth:`repro.obs.recorder.FlightRecorder.note`)

EVENT_PLACEMENT = "placement"
EVENT_MIGRATION = "migration"
EVENT_RECOVERY = "recovery"
EVENT_RELEASE = "release"
EVENT_LEASE_TRANSITION = "lease-transition"
EVENT_CODEC_SWITCH = "codec-switch"

# admission-control decisions (:class:`repro.core.grid.SessionGridManager`)
EVENT_ADMIT = "admit"
EVENT_QUEUE = "queue"
EVENT_REJECT = "reject"
EVENT_SHED = "shed"
EVENT_RESTORE = "restore"

#: dynamic kinds are namespaced: a fixed prefix plus a runtime detail
#: (``fault:crash``, ``scale:grow``, ``telemetry:subscribe``,
#: ``farm:requeue``, ``alert:tail-latency``)
EVENT_FAULT_PREFIX = "fault:"
EVENT_SCALE_PREFIX = "scale:"
EVENT_TELEMETRY_PREFIX = "telemetry:"
EVENT_FARM_PREFIX = "farm:"
EVENT_ALERT_PREFIX = "alert:"
EVENT_SANITIZER_PREFIX = "sanitizer:"

EVENT_KINDS = frozenset({
    EVENT_PLACEMENT,
    EVENT_MIGRATION,
    EVENT_RECOVERY,
    EVENT_RELEASE,
    EVENT_LEASE_TRANSITION,
    EVENT_CODEC_SWITCH,
    EVENT_ADMIT,
    EVENT_QUEUE,
    EVENT_REJECT,
    EVENT_SHED,
    EVENT_RESTORE,
})

EVENT_PREFIXES = frozenset({
    EVENT_FAULT_PREFIX,
    EVENT_SCALE_PREFIX,
    EVENT_TELEMETRY_PREFIX,
    EVENT_FARM_PREFIX,
    EVENT_ALERT_PREFIX,
    EVENT_SANITIZER_PREFIX,
})

# -- alert kinds ----------------------------------------------------------------------
# (:class:`repro.obs.rules.AlertRule`; consumed by WorkloadMigrator.plan
# and RecruitmentAutoscaler.evaluate)

ALERT_OVERLOAD = "overload"
ALERT_UNDERLOAD = "underload"
GRID_OVERLOAD_KIND = "grid-overload"
GRID_UNDERLOAD_KIND = "grid-underload"
GRID_SATURATED_KIND = "grid-saturated"
FARM_BACKLOG_KIND = "farm-backlog"
FARM_STARVATION_KIND = "farm-starvation"
TAIL_LATENCY_KIND = "tail-latency"

ALERT_KINDS = frozenset({
    ALERT_OVERLOAD,
    ALERT_UNDERLOAD,
    GRID_OVERLOAD_KIND,
    GRID_UNDERLOAD_KIND,
    GRID_SATURATED_KIND,
    FARM_BACKLOG_KIND,
    FARM_STARVATION_KIND,
    TAIL_LATENCY_KIND,
})

# -- service roles --------------------------------------------------------------------
# (``ServiceTelemetry.kind`` and the ``kind`` field of scrape payloads)

SERVICE_RENDER = "render"
SERVICE_DATA = "data"
SERVICE_REGISTRY = "registry"
SERVICE_MONITOR = "monitor"
SERVICE_CLIENT = "client"
SERVICE_GRID = "grid"
SERVICE_FARM = "farm"

SERVICE_KINDS = frozenset({
    SERVICE_RENDER,
    SERVICE_DATA,
    SERVICE_REGISTRY,
    SERVICE_MONITOR,
    SERVICE_CLIENT,
    SERVICE_GRID,
    SERVICE_FARM,
})

# -- per-service telemetry event kinds ------------------------------------------------
# (:meth:`repro.obs.telemetry.ServiceTelemetry.event`; forwarded into the
# flight recorder under ``EVENT_TELEMETRY_PREFIX``)

TELEMETRY_SUBSCRIBE = "subscribe"
TELEMETRY_SESSION_CREATED = "render-session-created"
TELEMETRY_SESSION_CLOSED = "render-session-closed"

TELEMETRY_EVENT_KINDS = frozenset({
    TELEMETRY_SUBSCRIBE,
    TELEMETRY_SESSION_CREATED,
    TELEMETRY_SESSION_CLOSED,
})

# -- metric family kinds --------------------------------------------------------------
# (:class:`repro.obs.metrics.MetricFamily` and snapshot payloads)

METRIC_COUNTER = "counter"
METRIC_GAUGE = "gauge"
METRIC_HISTOGRAM = "histogram"

METRIC_KINDS = frozenset({
    METRIC_COUNTER,
    METRIC_GAUGE,
    METRIC_HISTOGRAM,
})

#: label keys whose value space is bounded by construction rather than
#: by a closed literal set — the auditable exemption list for the
#: ``label-cardinality`` lint rule.  ``link``: one series per simulated
#: topology edge; the topology is finite and fixed per scenario.
BOUNDED_LABEL_KEYS = frozenset({
    "link",
})

# -- derived metric names -------------------------------------------------------------
# Rates and grid aggregates the monitor computes from scraped payloads,
# never at a MetricsRegistry call site: the metric-registry checker reads
# its tables (``RATES``, ``GRID_AGGREGATES``, ``FEDERATED_HISTOGRAMS`` in
# services/monitor.py) as their registration.

ADMISSION_REJECTION_RATE = "rave_admission_rejection_rate"
FARM_FRAMES_PER_SECOND = "rave_farm_frames_per_second"

GRID_RENDER_SERVICES = "rave_grid_render_services"
GRID_MEAN_FPS = "rave_grid_mean_fps"
GRID_MIN_FPS = "rave_grid_min_fps"
GRID_OVERLOADED_FRACTION = "rave_grid_overloaded_fraction"
GRID_MEAN_UTILISATION = "rave_grid_mean_utilisation"
GRID_MAX_UTILISATION = "rave_grid_max_utilisation"
GRID_QUEUE_DEPTH = "rave_grid_queue_depth"
GRID_REJECTION_RATE = "rave_grid_rejection_rate"
GRID_FARM_BACKLOG = "rave_grid_farm_backlog"
GRID_FARM_THROUGHPUT = "rave_grid_farm_throughput"
GRID_FARM_STARVED = "rave_grid_farm_starved_jobs"

# Federated tail-latency bases: the monitor merges every service's
# cumulative buckets per ``le`` and publishes grid-wide quantiles under
# ``<base>_p95`` / ``<base>_p99`` (suffixes resolve to the base name, so
# declaring the base covers the derived quantile keys).
GRID_QUEUE_WAIT = "rave_grid_queue_wait_seconds"
GRID_FARM_RENDER = "rave_grid_farm_render_seconds"

#: every kind a ``.kind == "..."`` comparison may legitimately name
KNOWN_KINDS = (EVENT_KINDS | ALERT_KINDS | SERVICE_KINDS
               | TELEMETRY_EVENT_KINDS | METRIC_KINDS)

__all__ = [
    "EVENT_PLACEMENT",
    "EVENT_MIGRATION",
    "EVENT_RECOVERY",
    "EVENT_RELEASE",
    "EVENT_LEASE_TRANSITION",
    "EVENT_CODEC_SWITCH",
    "EVENT_ADMIT",
    "EVENT_QUEUE",
    "EVENT_REJECT",
    "EVENT_SHED",
    "EVENT_RESTORE",
    "EVENT_FAULT_PREFIX",
    "EVENT_SCALE_PREFIX",
    "EVENT_TELEMETRY_PREFIX",
    "EVENT_FARM_PREFIX",
    "EVENT_ALERT_PREFIX",
    "EVENT_SANITIZER_PREFIX",
    "EVENT_KINDS",
    "EVENT_PREFIXES",
    "ALERT_OVERLOAD",
    "ALERT_UNDERLOAD",
    "GRID_OVERLOAD_KIND",
    "GRID_UNDERLOAD_KIND",
    "GRID_SATURATED_KIND",
    "FARM_BACKLOG_KIND",
    "FARM_STARVATION_KIND",
    "TAIL_LATENCY_KIND",
    "ALERT_KINDS",
    "SERVICE_RENDER",
    "SERVICE_DATA",
    "SERVICE_REGISTRY",
    "SERVICE_MONITOR",
    "SERVICE_CLIENT",
    "SERVICE_GRID",
    "SERVICE_FARM",
    "SERVICE_KINDS",
    "TELEMETRY_SUBSCRIBE",
    "TELEMETRY_SESSION_CREATED",
    "TELEMETRY_SESSION_CLOSED",
    "TELEMETRY_EVENT_KINDS",
    "METRIC_COUNTER",
    "METRIC_GAUGE",
    "METRIC_HISTOGRAM",
    "METRIC_KINDS",
    "BOUNDED_LABEL_KEYS",
    "ADMISSION_REJECTION_RATE",
    "FARM_FRAMES_PER_SECOND",
    "GRID_RENDER_SERVICES",
    "GRID_MEAN_FPS",
    "GRID_MIN_FPS",
    "GRID_OVERLOADED_FRACTION",
    "GRID_MEAN_UTILISATION",
    "GRID_MAX_UTILISATION",
    "GRID_QUEUE_DEPTH",
    "GRID_REJECTION_RATE",
    "GRID_FARM_BACKLOG",
    "GRID_FARM_THROUGHPUT",
    "GRID_FARM_STARVED",
    "GRID_QUEUE_WAIT",
    "GRID_FARM_RENDER",
    "KNOWN_KINDS",
]
