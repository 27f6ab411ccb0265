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
"""

from __future__ import annotations

import bisect
import re

from repro.obs.quantiles import estimate_quantile, format_le

#: default latency buckets (simulated seconds), upper bounds
DEFAULT_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
                   0.5, 1.0, 2.5, 5.0, 10.0, float("inf"))

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


class Counter:
    """Monotonically increasing accumulator."""

    kind = "counter"
    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up (amount={amount!r})")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down (utilisation, bandwidth estimate)."""

    kind = "gauge"
    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Bucketed distribution of observations (count, sum, buckets)."""

    kind = "histogram"
    __slots__ = ("buckets", "_bucket_counts", "_sum", "_count")

    def __init__(self, buckets: tuple = DEFAULT_BUCKETS) -> None:
        bounds = [float(b) for b in buckets]
        if bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be strictly ascending")
        if not bounds or bounds[-1] != float("inf"):
            bounds.append(float("inf"))
        self.buckets = tuple(bounds)
        self._bucket_counts = [0] * len(self.buckets)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        self._bucket_counts[bisect.bisect_left(self.buckets, value)] += 1
        self._sum += value
        self._count += 1

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
    """All children of one metric name, keyed by their label values."""

    __slots__ = ("name", "kind", "help", "buckets", "children")

    def __init__(self, name: str, kind: str, help: str = "",
                 buckets: tuple | None = None) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.buckets = buckets
        self.children: dict[tuple, object] = {}

    def child(self, labels: tuple) -> object:
        inst = self.children.get(labels)
        if inst is None:
            if self.kind == "counter":
                inst = Counter()
            elif self.kind == "gauge":
                inst = Gauge()
            else:
                inst = Histogram(self.buckets or DEFAULT_BUCKETS)
            self.children[labels] = inst
        return inst


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
        self._families: dict[str, MetricFamily] = {}

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
            family = MetricFamily(name, kind, help, buckets)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {family.kind}")
        return family.child(tuple(sorted(labels.items())))

    # -- introspection -----------------------------------------------------------

    def families(self) -> list[MetricFamily]:
        return [self._families[n] for n in sorted(self._families)]

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
        """
        families = self.families()
        series = sum(len(f.children) for f in families)
        samples = 0
        for family in families:
            for inst in family.children.values():
                samples += inst.count if family.kind == "histogram" else 1
        return {"families": len(families), "series": series,
                "samples": samples}

    def snapshot(self) -> dict:
        """Plain-data view of every family (the JSON exporter's payload)."""
        out: dict[str, dict] = {}
        for family in self.families():
            series = []
            for labels, inst in sorted(family.children.items()):
                entry: dict = {"labels": dict(labels)}
                if family.kind == "histogram":
                    entry.update(
                        count=inst.count, sum=inst.sum, mean=inst.mean,
                        buckets={format_le(le): n
                                 for le, n in inst.cumulative_buckets()})
                else:
                    entry["value"] = inst.value
                series.append(entry)
            out[family.name] = {"kind": family.kind, "help": family.help,
                                "series": series}
        return out


__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
]
