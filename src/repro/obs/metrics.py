"""Metrics primitives: labelled counters, gauges and histograms.

The data model follows the Prometheus client conventions (a *family* per
metric name, one child instrument per label combination) but is
simulation-aware by omission: nothing here reads the wall clock.  Values
are plain accumulators; code holding the simulated clock decides what
"now" means when it observes a duration.

There is no separate no-op registry.  Instrumented hot paths write only
under ``if obs.enabled:``, so the registry of the disabled
:data:`repro.obs.NULL_OBS` bundle never materialises a family, label or
string.

Families and the registry cache their snapshots and JSON encodings until
a value *changes* (``inc(0)`` and a gauge set to the value it holds do
nothing) or a series is added.  Cached dicts are shared: never mutate one.
"""

from __future__ import annotations

import bisect
import json
import math
import re

from repro.obs.quantiles import estimate_quantile, format_le

#: default latency buckets (simulated seconds), upper bounds
DEFAULT_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
                   0.5, 1.0, 2.5, 5.0, 10.0, float("inf"))

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: the one encoder of telemetry JSON (compact, keys sorted)
COMPACT_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _unobserved() -> None:
    """The change hook of an instrument made outside any registry."""


class Counter:
    """Monotonically increasing accumulator."""

    kind = "counter"
    __slots__ = ("_value", "_changed")

    def __init__(self, changed=_unobserved) -> None:
        self._value = 0.0
        self._changed = changed

    def inc(self, amount: float = 1.0) -> None:
        if not amount >= 0:                     # negative, or NaN
            raise ValueError(f"counters only go up (amount={amount!r})")
        value = self._value + amount
        if value != self._value:
            self._value = value
            self._changed()

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down (utilisation, bandwidth estimate)."""

    kind = "gauge"
    __slots__ = ("_value", "_changed")

    def __init__(self, changed=_unobserved) -> None:
        self._value = 0.0
        self._changed = changed

    def set(self, value: float) -> None:
        # writing NaN is always a change; -0.0 equals 0.0 but encodes apart
        value, old = float(value), self._value
        if value != old or (not value and
                            math.copysign(1, value) != math.copysign(1, old)):
            self._value = value
            self._changed()

    def inc(self, amount: float = 1.0) -> None:
        self.set(self._value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self._value - amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Bucketed distribution of observations (count, sum, buckets)."""

    kind = "histogram"
    __slots__ = ("buckets", "_bucket_counts", "_sum", "_count", "_changed")

    def __init__(self, buckets: tuple = DEFAULT_BUCKETS,
                 changed=_unobserved) -> None:
        bounds = [float(b) for b in buckets]
        if bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be strictly ascending")
        if not bounds or bounds[-1] != float("inf"):
            bounds.append(float("inf"))
        self.buckets = tuple(bounds)
        self._bucket_counts = [0] * len(self.buckets)
        self._sum = 0.0
        self._count = 0
        self._changed = changed

    def observe(self, value: float) -> None:
        if value != value:              # bisect files NaN in bucket 0
            raise ValueError("histograms cannot observe NaN")
        self._bucket_counts[bisect.bisect_left(self.buckets, value)] += 1
        self._sum += value
        self._count += 1
        self._changed()

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """Prometheus-style ``(le, cumulative count)`` pairs."""
        out, running = [], 0
        for bound, n in zip(self.buckets, self._bucket_counts):
            running += n
            out.append((bound, running))
        return out

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the cumulative buckets."""
        return estimate_quantile(self.cumulative_buckets(), q)


class MetricFamily:
    """All children of one metric name, keyed by their label values;
    its snapshot and JSON fragment are cached until :meth:`changed`."""

    __slots__ = ("name", "kind", "help", "buckets", "children",
                 "_registry_changed", "_snapshot", "_encoded")

    def __init__(self, name: str, kind: str, help: str = "",
                 buckets: tuple | None = None,
                 changed=_unobserved) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.buckets = buckets
        self.children: dict[tuple, object] = {}
        self._registry_changed = changed
        self._snapshot: dict | None = None
        self._encoded: str | None = None

    def child(self, labels: tuple) -> object:
        inst = self.children.get(labels)
        if inst is None:
            if self.kind == "counter":
                inst = Counter(self.changed)
            elif self.kind == "gauge":
                inst = Gauge(self.changed)
            else:
                inst = Histogram(self.buckets or DEFAULT_BUCKETS,
                                 self.changed)
            self.children[labels] = inst
            self.changed()
        return inst

    def changed(self) -> None:
        """Drop this family's cached views and the registry's."""
        self._snapshot = self._encoded = None
        self._registry_changed()

    def snapshot(self) -> dict:
        """Plain-data view of every series (cached; do not mutate)."""
        if self._snapshot is None:
            series = []
            for labels, inst in sorted(self.children.items()):
                entry: dict = {"labels": dict(labels)}
                if self.kind == "histogram":
                    entry.update(
                        count=inst.count, sum=inst.sum, mean=inst.mean,
                        buckets={format_le(le): n
                                 for le, n in inst.cumulative_buckets()})
                else:
                    entry["value"] = inst.value
                series.append(entry)
            self._snapshot = {"kind": self.kind, "help": self.help,
                              "series": series}
        return self._snapshot

    def encoded(self) -> str:
        """:meth:`snapshot` as a :data:`COMPACT_JSON` fragment (cached)."""
        if self._encoded is None:
            self._encoded = COMPACT_JSON.encode(self.snapshot())
        return self._encoded


class MetricsRegistry:
    """Factory and store for metric families.

    Instruments are created on first use and cached, so call sites can be
    written inline::

        registry.counter("rave_scheduler_placements_total",
                         mode="single").inc()

    Label values are passed as keyword arguments; a family's kind is fixed
    by its first use and a later request under a different kind raises.
    """

    def __init__(self) -> None:
        #: kept in name order, so a rebuild need not sort
        self._families: dict[str, MetricFamily] = {}
        #: snapshot, stats and their encodings; emptied by every change
        self._cache: dict[str, object] = {}

    def _cached(self, key: str, build):
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = build()
        return value

    # -- instrument factories ----------------------------------------------------

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._child(name, "counter", help, None, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._child(name, "gauge", help, None, labels)

    def histogram(self, name: str, help: str = "",
                  buckets: tuple | None = None, **labels) -> Histogram:
        return self._child(name, "histogram", help, buckets, labels)

    def _child(self, name, kind, help, buckets, labels):
        family = self._families.get(name)
        if family is None:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid metric name {name!r}")
            family = MetricFamily(name, kind, help, buckets,
                                  self._cache.clear)
            self._families = dict(sorted(
                {**self._families, name: family}.items()))
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {family.kind}")
        return family.child(tuple(sorted(labels.items())) if labels else ())

    # -- introspection -----------------------------------------------------------

    def families(self) -> list[MetricFamily]:
        return list(self._families.values())

    def value(self, name: str, **labels) -> float:
        """Test/debug helper: a child's value (histograms: their count)."""
        family = self._families[name]
        inst = family.children[tuple(sorted(labels.items()))]
        return inst.count if family.kind == "histogram" else inst.value

    def has(self, name: str) -> bool:
        return name in self._families

    def stats(self) -> dict:
        """Registry-level metadata: family, series and sample counts.

        ``samples`` counts recorded observations — one per counter/gauge
        series plus every histogram observation — so federated snapshots
        can report how much telemetry each producer contributed.
        Cached like :meth:`snapshot`."""
        return self._cached("stats", self._stats)

    def _stats(self) -> dict:
        families = self._families.values()
        series = sum(len(f.children) for f in families)
        samples = 0
        for family in families:
            for inst in family.children.values():
                samples += inst.count if family.kind == "histogram" else 1
        return {"families": len(families), "series": series,
                "samples": samples}

    def stats_json(self) -> str:
        """:meth:`stats` as :data:`COMPACT_JSON` (cached alike)."""
        return self._cached("stats_json",
                            lambda: COMPACT_JSON.encode(self.stats()))

    def snapshot(self) -> dict:
        """Plain-data view of every family (the JSON exporter's payload);
        cached and shared, so never mutate it."""
        return self._cached("snapshot", lambda: {
            name: family.snapshot()
            for name, family in self._families.items()})

    def snapshot_json(self) -> str:
        """:meth:`snapshot` as :data:`COMPACT_JSON` (cached alike): the
        families' fragments joined (names need no escaping)."""
        return self._cached("snapshot_json", lambda: "{" + ",".join(
            f'"{name}":{family.encoded()}'
            for name, family in self._families.items()) + "}")


__all__ = [
    "COMPACT_JSON",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
]
