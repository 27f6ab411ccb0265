"""Exporters: Prometheus text format and JSON snapshots.

Two consumers, two formats:

- :func:`prometheus_text` renders a registry in the Prometheus exposition
  format (``# HELP`` / ``# TYPE`` headers, ``_bucket``/``_sum``/``_count``
  expansion for histograms) so a scrape endpoint or a text diff can read
  it;
- :func:`snapshot` produces the plain-JSON form: simulated time, every
  metric family, every span, and the reassembled per-frame chains.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.obs.quantiles import format_le
from repro.obs.tracing import Tracer


def _format_value(value: float) -> str:
    if value != value:                       # NaN never equals itself
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if value == int(value):
        return str(int(value))
    return repr(value)


def _escape_label_value(value) -> str:
    """Prometheus exposition escaping: backslash, double quote, newline."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _labels_text(labels: dict, extra: dict | None = None) -> str:
    merged = {**labels, **(extra or {})}
    if not merged:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"'
                     for k, v in merged.items())
    return "{" + inner + "}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render every family in the Prometheus text exposition format."""
    lines: list[str] = []
    for family in registry.families():
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for label_items, inst in sorted(family.children.items()):
            labels = dict(label_items)
            if family.kind == "histogram":
                for le, count in inst.cumulative_buckets():
                    lines.append(
                        f"{family.name}_bucket"
                        f"{_labels_text(labels, {'le': format_le(le)})}"
                        f" {count}")
                lines.append(f"{family.name}_sum{_labels_text(labels)} "
                             f"{_format_value(inst.sum)}")
                lines.append(f"{family.name}_count{_labels_text(labels)} "
                             f"{inst.count}")
            else:
                lines.append(f"{family.name}{_labels_text(labels)} "
                             f"{_format_value(inst.value)}")
    return "\n".join(lines) + "\n"


def snapshot(registry: MetricsRegistry, tracer: Tracer | None = None,
             clock=None, meta: dict | None = None, source: str = "default",
             recorder=None) -> dict:
    """One self-describing dict: metrics + spans + per-frame chains.

    ``source`` names the producer: registry-level metadata (family /
    series / sample counts, simulated time) lands under
    ``wall_meta[source]``, so snapshots from different services federate
    with a plain dict union — no key collisions.  ``recorder`` adds the
    flight recorder's dumps.
    """
    sim_now = clock.now if clock is not None else None
    stats = registry.stats()
    out: dict = {
        "format": "rave-observability-snapshot/1",
        "simulated_seconds": sim_now,
        "registry": stats,
        "wall_meta": {source: {"simulated_seconds": sim_now, **stats}},
        "metrics": registry.snapshot(),
    }
    if meta:
        out["meta"] = dict(meta)
    if tracer is not None:
        out["spans"] = tracer.snapshot()
        out["frames"] = {
            str(frame): [s.name for s in spans]
            for frame, spans in sorted(tracer.chains().items(),
                                       key=lambda kv: str(kv[0]))
        }
        out["spans_dropped"] = tracer.dropped
    if recorder is not None:
        out["flight_recorder"] = {
            "events_seen": recorder.seen,
            "capacity": recorder.capacity,
            "dumps": list(recorder.dumps),
        }
    return out


__all__ = [
    "prometheus_text",
    "snapshot",
]
