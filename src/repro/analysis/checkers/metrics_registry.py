"""Metric-registry consistency: producers and consumers must agree.

The monitoring plane is stringly typed at its edges: services register
``rave_*`` families through :class:`~repro.obs.metrics.MetricsRegistry`
call sites (``registry.counter("rave_rs_frames_total").inc()``), while
alert rules (``obs/rules.py``), the dashboard (``obs/dashboard.py``) and
the test/benchmark harnesses look the same names up in scraped
snapshots.  Nothing at runtime connects the two — a typo on either side
just reads zeros forever.

This cross-file rule reconstructs both sides statically:

- **registrations** — every ``.counter(...)``/``.gauge(...)``/
  ``.histogram(...)``/``.add_collector(...)`` call whose first argument
  is a ``rave_*`` string literal, anywhere in the tree (tests register
  fixture metrics too), plus every vocabulary name a row of the
  monitor's rate and aggregation tables publishes (series it computes
  without a registry);
- **consumptions** — every bare ``rave_*`` string literal in
  ``obs/rules.py``, ``obs/dashboard.py``, ``services/monitor.py`` (the
  source gauges its tables read) and the tests/benchmarks trees.
  Literals ending in ``_`` are treated as prefix probes
  (``name.startswith("rave_net_")``) and consume every matching family;
  flattened histogram suffixes (``_count``/``_sum``/``_bucket`` and the
  derived quantile keys ``_p50``/``_p95``/``_p99``) map back to their
  base family.

A consumed name nobody registers is an **error** (the lookup can never
succeed); a ``src/repro`` registration nobody consumes is a **warning**
(dead telemetry, or a missing assertion).
"""

from __future__ import annotations

from collections.abc import Iterator
import ast
import re

from repro.analysis.astutil import vocab_env
from repro.analysis.core import Checker, Finding, SourceFile, SourceTree, \
    register

#: a complete metric name (never ends in an underscore)
NAME_RE = re.compile(r"rave_[a-z0-9]+(?:_[a-z0-9]+)*")
#: a prefix probe, as used with ``str.startswith``
PREFIX_RE = re.compile(r"rave_[a-z0-9_]*_")

REGISTRY_METHODS = ("counter", "gauge", "histogram", "add_collector")
CONSUMER_SUFFIXES = ("obs/rules.py", "obs/dashboard.py", "services/monitor.py")
#: the monitor's rate and aggregation tables: rows of source literals
#: and vocabulary names for the series they publish
MONITOR_TABLES = ("FEDERATED_HISTOGRAMS", "GRID_AGGREGATES", "RATES")
#: flattened-histogram lookups resolve to their parent family: the
#: scrape layer derives ``_count``/``_sum``/``_bucket`` and the
#: interpolated ``_p50``/``_p95``/``_p99`` quantile keys from one
#: registered histogram
FLATTEN_SUFFIXES = ("_count", "_sum", "_bucket", "_p50", "_p95", "_p99")


def _registrations(sf: SourceFile):
    """``(name, line, node)`` per registry call site in one file."""
    for node in ast.walk(sf.tree):
        if not isinstance(node, ast.Call):
            continue
        if not isinstance(node.func, ast.Attribute) \
                or node.func.attr not in REGISTRY_METHODS:
            continue
        if not node.args:
            continue
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str) \
                and NAME_RE.fullmatch(arg.value):
            yield arg.value, arg.lineno, arg


def _derived(tree: SourceTree, env: dict) -> set[str]:
    """The ``rave_*`` vocabulary names the monitor's tables publish."""
    sf = tree.find("services/monitor.py")
    if sf is None or sf.tree is None:
        return set()
    tables = [stmt.value for stmt in sf.tree.body
              if isinstance(stmt, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id in MONITOR_TABLES
                      for t in stmt.targets)]
    names = {env.get(node.id) for table in tables for node in ast.walk(table)
             if isinstance(node, ast.Name)}
    return {n for n in names if isinstance(n, str) and NAME_RE.fullmatch(n)}


@register
class MetricRegistryChecker(Checker):
    rule = "metric-registry"
    severity = "error"
    description = ("every consumed rave_* metric name must have a "
                   "registration site, and registrations should have "
                   "consumers")
    contract = (
        "A rave_* metric name read anywhere (dashboards, alert rules, "
        "tests) must be registered by exactly one producer kind "
        "(counter/gauge/histogram), and registered metrics should have "
        "at least one consumer — the producer and consumer sides of the "
        "telemetry plane may not drift.")
    example = ("flat[\"rave_fps_budgett\"]   # metric-registry: typo'd\n"
               "                           # name nobody registers\n")

    def check(self, tree: SourceTree) -> Iterator[Finding]:
        registered: dict[str, tuple[str, int]] = {}
        src_registered: dict[str, tuple[str, int]] = {}
        registration_nodes: set[int] = set()
        for sf in tree.files:
            if sf.tree is None:
                continue
            for name, line, node in _registrations(sf):
                registration_nodes.add(id(node))
                registered.setdefault(name, (sf.rel, line))
                if sf.role == "src":
                    src_registered.setdefault(name, (sf.rel, line))

        _, env = vocab_env(tree)
        declared = set(registered) | _derived(tree, env)

        consumed: dict[str, tuple[str, int]] = {}
        prefixes: set[str] = set()
        for sf in tree.files:
            if sf.tree is None:
                continue
            if sf.role == "src" \
                    and not sf.rel.endswith(CONSUMER_SUFFIXES):
                continue
            for node in ast.walk(sf.tree):
                if not isinstance(node, ast.Constant) \
                        or not isinstance(node.value, str) \
                        or id(node) in registration_nodes:
                    continue
                value = node.value
                if NAME_RE.fullmatch(value):
                    consumed.setdefault(value, (sf.rel, node.lineno))
                elif PREFIX_RE.fullmatch(value):
                    prefixes.add(value)

        # consumed names that can never resolve
        for name in sorted(consumed):
            if self._declared(name, declared):
                continue
            rel, line = consumed[name]
            yield self.finding(
                rel, line,
                f"metric {name!r} is consumed here but never registered "
                f"by any MetricsRegistry call site (nor published by a "
                f"services/monitor.py table) — the lookup reads zeros "
                f"forever",
                symbol=name)

        # src registrations nobody reads back
        consumed_bases = {self._base(name, declared) for name in consumed}
        for name in sorted(src_registered):
            if name in consumed_bases:
                continue
            if any(name.startswith(p) for p in prefixes):
                continue
            rel, line = src_registered[name]
            yield self.finding(
                rel, line,
                f"metric {name!r} is registered here but never consumed "
                f"by obs/rules.py, obs/dashboard.py, tests or benchmarks "
                f"— dead telemetry or a missing assertion",
                symbol=name, severity="warning")

    @staticmethod
    def _base(name: str, declared: set[str]) -> str:
        """Map a flattened histogram lookup back to its family name."""
        for suffix in FLATTEN_SUFFIXES:
            if name.endswith(suffix) and name[:-len(suffix)] in declared:
                return name[:-len(suffix)]
        return name

    @classmethod
    def _declared(cls, name: str, declared: set[str]) -> bool:
        return cls._base(name, declared) in declared
