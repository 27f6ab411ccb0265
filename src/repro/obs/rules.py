"""Declarative alert rules and SLO targets for the monitoring plane.

Two evaluation engines over scraped telemetry:

- :class:`RuleEngine` fires :class:`Alert` objects from declarative
  :class:`AlertRule` thresholds, sustained: the observation window must
  span the rule's duration and every sample inside the trailing window
  must violate, so a single spike never alerts (paper §3.2.7, "for a
  given amount of time, to smooth out spikes").  It is the system's
  one sustained-threshold detector.  The default rules carry the
  migration policy's thresholds (overload below 8 fps, underload below
  0.3 utilisation, sustained 3 s), and
  ``WorkloadMigrator.plan(session, alerts)`` acts only on the alerts
  they fire.

- :class:`SloTracker` scores each scrape against :class:`SloTarget`
  objectives derived from the paper's published rates (Table 2 streaming
  fps, the §3.2.7 interactivity threshold, the 10 fps placement target)
  and reports attainment plus violation windows — including whether each
  window recovered.

Everything here is plain data + deques: no clocks, no network, and the
only ``repro`` import is the constants-only kind vocabulary
(:mod:`repro.obs.vocab`), so the migration layer can share the
threshold constants without an import cycle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from repro.obs.quantiles import quantile_suffix
from repro.obs.vocab import (
    ALERT_OVERLOAD,
    ALERT_UNDERLOAD,
    FARM_BACKLOG_KIND,
    FARM_STARVATION_KIND,
    GRID_OVERLOAD_KIND,
    GRID_SATURATED_KIND,
    GRID_UNDERLOAD_KIND,
    SERVICE_GRID,
    SERVICE_RENDER,
    TAIL_LATENCY_KIND,
)

#: the migration policy's thresholds (paper §3.2.7); the default rules
#: fire on them, and :class:`repro.core.migration.WorkloadMigrator` caps
#: an underload pull at the underload one
DEFAULT_OVERLOAD_FPS = 8.0
DEFAULT_UNDERLOAD_UTILISATION = 0.3
DEFAULT_SMOOTHING_SECONDS = 3.0

#: tail-latency thresholds: p95 admission queue wait the session grid may
#: sustain, and how long a breach must last before the alert fires
TAIL_QUEUE_WAIT_SECONDS = 0.5
TAIL_SUSTAIN_SECONDS = 5.0
#: p95 per-frame render latency the batch farm may sustain
TAIL_FARM_RENDER_SECONDS = 2.5


@dataclass(frozen=True)
class AlertRule:
    """One declarative threshold over a flattened telemetry metric.

    A rule may target a distribution's tail instead of a scalar: with
    ``quantile=0.95`` the rule evaluates the ``<metric>_p95`` key that
    :func:`~repro.obs.telemetry.flatten_metrics` derives from a
    histogram's scraped buckets (or that the monitor federates
    grid-wide), so "p95 queue wait above 0.5 s sustained 5 s" is one
    declaration, not bespoke plumbing.
    """

    name: str
    metric: str                         # e.g. "rave_rs_fps"
    kind: str                           # "overload" | "underload" | custom
    below: float | None = None
    above: float | None = None
    for_seconds: float = DEFAULT_SMOOTHING_SECONDS
    severity: str = "warning"
    quantile: float | None = None       # e.g. 0.95 -> evaluate <metric>_p95

    def __post_init__(self) -> None:
        if self.below is None and self.above is None:
            raise ValueError(f"rule {self.name!r} needs below= or above=")
        if self.quantile is not None and not 0.0 < self.quantile < 1.0:
            raise ValueError(
                f"rule {self.name!r} quantile must be in (0, 1), "
                f"got {self.quantile!r}")

    @cached_property
    def metric_key(self) -> str:
        """The flattened-values key this rule evaluates."""
        if self.quantile is None:
            return self.metric
        return f"{self.metric}_{quantile_suffix(self.quantile)}"

    def violates(self, value: float) -> bool:
        if self.below is not None and value < self.below:
            return True
        if self.above is not None and value > self.above:
            return True
        return False


@dataclass(frozen=True)
class Alert:
    """A rule sustained long enough to fire, for one service."""

    rule: str
    kind: str
    service: str
    since: float            # start of the violating window
    last_time: float        # most recent violating sample
    value: float            # most recent sample value
    severity: str


def default_rules() -> list[AlertRule]:
    """The migration policy's thresholds as monitor alert rules."""
    return [
        AlertRule(name="render-overload", metric="rave_rs_fps",
                  kind=ALERT_OVERLOAD, below=DEFAULT_OVERLOAD_FPS,
                  for_seconds=DEFAULT_SMOOTHING_SECONDS,
                  severity="critical"),
        AlertRule(name="render-underload", metric="rave_rs_utilisation",
                  kind=ALERT_UNDERLOAD, below=DEFAULT_UNDERLOAD_UTILISATION,
                  for_seconds=DEFAULT_SMOOTHING_SECONDS,
                  severity="warning"),
    ] + grid_rules() + admission_rules() + farm_rules() \
        + tail_latency_rules()


def grid_rules() -> list[AlertRule]:
    """Grid-wide aggregate thresholds over the monitor's pooled view.

    Evaluated against the pseudo-service the monitor computes from every
    scraped render service (``rave_grid_mean_fps``,
    ``rave_grid_mean_utilisation``).  A sustained grid-wide crossing means
    shuffling work between existing members cannot help: these are the
    signals the :class:`~repro.core.autoscale.RecruitmentAutoscaler`
    grows and shrinks the session pool on.
    """
    return [
        AlertRule(name="grid-overload", metric="rave_grid_mean_fps",
                  kind=GRID_OVERLOAD_KIND, below=DEFAULT_OVERLOAD_FPS,
                  for_seconds=DEFAULT_SMOOTHING_SECONDS,
                  severity="critical"),
        AlertRule(name="grid-underload",
                  metric="rave_grid_mean_utilisation",
                  kind=GRID_UNDERLOAD_KIND,
                  below=DEFAULT_UNDERLOAD_UTILISATION,
                  for_seconds=DEFAULT_SMOOTHING_SECONDS,
                  severity="warning"),
    ]


def admission_rules() -> list[AlertRule]:
    """Admission-plane saturation thresholds over the scraped grid view.

    Evaluated against the aggregates the monitor derives from a scraped
    :class:`~repro.core.grid.SessionGridManager` payload.  A sustained
    non-empty admission queue, or any rejections inside the trailing
    window, mean the pool is full for the *fleet* — not one session —
    and these are the signals the autoscaler's grid mode grows on.
    """
    return [
        AlertRule(name="grid-saturated", metric="rave_grid_queue_depth",
                  kind=GRID_SATURATED_KIND, above=0.5,
                  for_seconds=DEFAULT_SMOOTHING_SECONDS,
                  severity="critical"),
        AlertRule(name="grid-rejecting",
                  metric="rave_grid_rejection_rate",
                  kind=GRID_SATURATED_KIND, above=0.0,
                  for_seconds=DEFAULT_SMOOTHING_SECONDS,
                  severity="critical"),
    ]


def farm_rules() -> list[AlertRule]:
    """Render-farm backlog thresholds over the monitor's pooled view.

    Evaluated against the aggregate the monitor derives from every
    scraped :class:`~repro.farm.queue_service.FrameQueueService`
    (``rave_grid_farm_backlog`` = pending + leased frames fleet-wide).
    A sustained non-empty backlog is the second signal source the
    :class:`~repro.core.autoscale.RecruitmentAutoscaler` grows the farm
    pool on — and its absence is what lets the farm release workers.

    ``farm-starvation`` fires when any job sits with pending frames and
    no lease grant past the queue's starvation threshold, sustained —
    the fairness regression the scheduler's priority + deficit-round-
    robin interleave exists to prevent, made observable instead of
    silent.
    """
    return [
        AlertRule(name="farm-backlog", metric="rave_grid_farm_backlog",
                  kind=FARM_BACKLOG_KIND, above=0.5,
                  for_seconds=DEFAULT_SMOOTHING_SECONDS,
                  severity="warning"),
        AlertRule(name="farm-starvation",
                  metric="rave_grid_farm_starved_jobs",
                  kind=FARM_STARVATION_KIND, above=0.5,
                  for_seconds=DEFAULT_SMOOTHING_SECONDS,
                  severity="critical"),
    ]


def tail_latency_rules() -> list[AlertRule]:
    """Quantile-targeting thresholds over histogram tails.

    Per-service: each session grid's own p95 admission queue wait
    (flattened from its scraped ``rave_queue_wait_seconds`` buckets).
    Grid-wide: the same signal federated by the monitor — per-``le``
    bucket counts summed across every scraped grid *before* estimation
    (``rave_grid_queue_wait_seconds_p95``), so the alert reflects the
    merged distribution rather than an average of per-service
    percentiles.  The farm rule watches the federated p95 per-frame
    render latency of the batch queue(s).
    """
    return [
        AlertRule(name="queue-wait-p95",
                  metric="rave_queue_wait_seconds", quantile=0.95,
                  kind=TAIL_LATENCY_KIND, above=TAIL_QUEUE_WAIT_SECONDS,
                  for_seconds=TAIL_SUSTAIN_SECONDS,
                  severity="critical"),
        AlertRule(name="grid-queue-wait-p95",
                  metric="rave_grid_queue_wait_seconds", quantile=0.95,
                  kind=TAIL_LATENCY_KIND, above=TAIL_QUEUE_WAIT_SECONDS,
                  for_seconds=TAIL_SUSTAIN_SECONDS,
                  severity="critical"),
        AlertRule(name="farm-render-p95",
                  metric="rave_grid_farm_render_seconds", quantile=0.95,
                  kind=TAIL_LATENCY_KIND, above=TAIL_FARM_RENDER_SECONDS,
                  for_seconds=TAIL_SUSTAIN_SECONDS,
                  severity="warning"),
    ]


class RuleEngine:
    """Evaluates alert rules over per-service sample histories.

    Each (rule, service) history keeps the time of its newest
    non-violating sample and the alert it fires, both updated by
    :meth:`observe`, so :meth:`firing` costs what is firing."""

    def __init__(self, rules=None, window_seconds: float | None = None
                 ) -> None:
        self.rules = list(rules) if rules is not None else default_rules()
        if window_seconds is None:
            longest = max((r.for_seconds for r in self.rules), default=3.0)
            window_seconds = max(10.0, 3 * longest)
        self.window_seconds = window_seconds
        #: (rule name, service) -> deque[(time, value)]
        self._history: dict[tuple[str, str], deque] = {}
        #: (rule name, service) -> time of its newest non-violating sample
        self._calm: dict[tuple[str, str], float] = {}
        #: (rule name, service) -> the alert it fires now
        self._firing: dict[tuple[str, str], Alert] = {}

    def observe(self, service: str, time: float,
                values: dict[str, float]) -> None:
        """Feed one scrape's flattened values into every matching rule."""
        for rule in self.rules:
            if rule.metric_key not in values:
                continue
            key = (rule.name, service)
            value = values[rule.metric_key]
            history = self._history.setdefault(key, deque())
            if history and time < history[-1][0]:
                raise ValueError("telemetry samples must be time-ordered")
            history.append((time, value))
            cutoff = time - self.window_seconds
            while history and history[0][0] < cutoff:
                history.popleft()
            if not rule.violates(value):
                self._calm[key] = time
            hit = self._sustained(rule, history, self._calm.get(key))
            if hit is None:
                self._firing.pop(key, None)
            else:
                self._firing[key] = Alert(
                    rule=rule.name, kind=rule.kind, service=service,
                    since=hit[0], last_time=hit[1], value=hit[2],
                    severity=rule.severity)

    def forget(self, service: str) -> None:
        """Drop every rule's history for ``service`` (no longer watched)."""
        for key in [key for key in self._history if key[1] == service]:
            del self._history[key]
            self._calm.pop(key, None)
            self._firing.pop(key, None)

    @staticmethod
    def _sustained(rule: AlertRule, history: deque, calm: float | None
                   ) -> tuple[float, float, float] | None:
        """(since, last_time, value) when the rule fires, else None.

        The window must span ``for_seconds`` and every sample in the
        trailing duration — including one landing exactly on the
        cutoff — must violate: the newest sample that does not (at
        ``calm``) must be older than the cutoff.
        """
        if not history:
            return None
        last_time, value = history[-1]
        if last_time - history[0][0] < rule.for_seconds:
            return None
        cutoff = last_time - rule.for_seconds
        if calm is not None and calm >= cutoff:
            return None
        since = next(t for t, _ in history if t >= cutoff)
        return since, last_time, value

    def firing(self) -> list[Alert]:
        """Every (rule, service) currently sustained, deterministic order."""
        return [self._firing[key] for key in sorted(self._firing)]


# -- SLOs ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SloTarget:
    """A service-level objective over a flattened telemetry metric.

    Like :class:`AlertRule`, a target may govern a distribution's tail:
    ``quantile=0.95`` makes the tracker score the derived
    ``<metric>_p95`` key, so "p95 queue wait ≤ 0.5 s" is a first-class
    objective in the SLO report.
    """

    name: str
    metric: str
    objective: float
    op: str = "ge"                      # "ge" (value >= objective) | "le"
    applies_to: str = SERVICE_RENDER    # telemetry kind the SLO governs
    description: str = ""
    source: str = ""                    # provenance in the paper
    quantile: float | None = None       # e.g. 0.95 -> score <metric>_p95

    @cached_property
    def metric_key(self) -> str:
        """The flattened-values key this target scores."""
        if self.quantile is None:
            return self.metric
        return f"{self.metric}_{quantile_suffix(self.quantile)}"

    def met(self, value: float) -> bool:
        return value >= self.objective if self.op == "ge" \
            else value <= self.objective


#: objectives lifted from the paper's published rates
PAPER_SLOS = (
    SloTarget(name="interactive-fps", metric="rave_rs_fps", objective=8.0,
              op="ge", applies_to=SERVICE_RENDER,
              description="sustain the interactive rate the migration "
                          "policy defends",
              source="paper §3.2.7 (overload threshold)"),
    SloTarget(name="placement-target-fps", metric="rave_rs_fps",
              objective=10.0, op="ge", applies_to=SERVICE_RENDER,
              description="hold the frame rate the scheduler placed for",
              source="DEFAULT_TARGET_FPS (paper §3.2.5 placement budget)"),
    SloTarget(name="pda-stream-fps", metric="rave_stream_fps",
              objective=2.9, op="ge", applies_to=SERVICE_RENDER,
              description="stream to the PDA at least at the published "
                          "skeletal-hand rate",
              source="paper Table 2 (skeletal hand on the Zaurus, 2.9 fps)"),
    SloTarget(name="render-utilisation", metric="rave_rs_utilisation",
              objective=1.0, op="le", applies_to=SERVICE_RENDER,
              description="stay within the polygon budget at target fps",
              source="paper §3.2.5 (capacity model)"),
    SloTarget(name="queue-wait-p95", metric="rave_queue_wait_seconds",
              quantile=0.95, objective=TAIL_QUEUE_WAIT_SECONDS, op="le",
              applies_to=SERVICE_GRID,
              description="keep the session grid's p95 admission queue "
                          "wait interactive",
              source="tail-latency plane (ROADMAP): admission must not "
                     "erode the §3.2.7 interactivity budget"),
)


@dataclass
class _SloState:
    good: int = 0
    total: int = 0
    #: closed + at most one open violation window
    violations: list = field(default_factory=list)
    _open: dict | None = None


class SloTracker:
    """Scores scrapes against SLO targets; reports attainment + windows."""

    def __init__(self, targets=PAPER_SLOS) -> None:
        self.targets = tuple(targets)
        #: (target name, service) -> _SloState
        self._state: dict[tuple[str, str], _SloState] = {}

    def observe(self, service: str, kind: str, time: float,
                values: dict[str, float]) -> None:
        for target in self.targets:
            if (target.applies_to != kind
                    or target.metric_key not in values):
                continue
            value = values[target.metric_key]
            state = self._state.setdefault((target.name, service),
                                           _SloState())
            state.total += 1
            if target.met(value):
                state.good += 1
                if state._open is not None:
                    state._open["end"] = time
                    state._open["recovered"] = True
                    state.violations.append(state._open)
                    state._open = None
            else:
                if state._open is None:
                    state._open = {"start": time, "end": None,
                                   "recovered": False, "worst": value}
                else:
                    worst = state._open["worst"]
                    state._open["worst"] = (min(worst, value)
                                            if target.op == "ge"
                                            else max(worst, value))

    def report(self) -> dict:
        """``{target: {service: {attainment, good, total, violations}}}``
        plus the objective metadata the dashboard renders."""
        out: dict = {}
        for target in self.targets:
            section: dict = {
                "metric": target.metric_key,
                "objective": target.objective,
                "op": target.op,
                "description": target.description,
                "source": target.source,
                "services": {},
            }
            if target.quantile is not None:
                section["quantile"] = target.quantile
            for (name, service), state in sorted(self._state.items()):
                if name != target.name:
                    continue
                windows = list(state.violations)
                if state._open is not None:
                    windows.append(dict(state._open))
                section["services"][service] = {
                    "good": state.good,
                    "total": state.total,
                    "attainment": (state.good / state.total
                                   if state.total else 1.0),
                    "violations": windows,
                }
            if section["services"]:
                out[target.name] = section
        return out


__all__ = [
    "DEFAULT_OVERLOAD_FPS",
    "DEFAULT_UNDERLOAD_UTILISATION",
    "DEFAULT_SMOOTHING_SECONDS",
    "TAIL_QUEUE_WAIT_SECONDS",
    "TAIL_SUSTAIN_SECONDS",
    "TAIL_FARM_RENDER_SECONDS",
    "ALERT_OVERLOAD",
    "ALERT_UNDERLOAD",
    "GRID_OVERLOAD_KIND",
    "GRID_UNDERLOAD_KIND",
    "GRID_SATURATED_KIND",
    "FARM_BACKLOG_KIND",
    "FARM_STARVATION_KIND",
    "TAIL_LATENCY_KIND",
    "AlertRule",
    "Alert",
    "default_rules",
    "grid_rules",
    "admission_rules",
    "farm_rules",
    "tail_latency_rules",
    "RuleEngine",
    "SloTarget",
    "PAPER_SLOS",
    "SloTracker",
]
