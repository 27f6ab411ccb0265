"""Compare two benchmark result directories, metric by metric.

    python3 bench/compare.py A B

``A`` and ``B`` are directories written by ``bench/run.py --out``; each may
hold several runs of a workload.  One row is printed per end-to-end metric
and workload: both medians, the ratio B/A with A as its base, the bound from
BENCHMARK.json and a verdict --

- ``within``: B's median is no worse than A's by more than the bound;
- ``worse``: it is worse by more than the bound;
- ``better``: it is better by more than the bound;
- ``unresolved``: the spread of A's or B's values (distance between their
  quartiles over their median) is wider than the bound, so the medians
  settle nothing -- unless every value of one side beats every value of the
  other, which is reported as ``better`` or ``worse``.

A directory holding a single run is spread over that run's rounds.  Exit
code 1 on any ``worse``.  A/A: two runs of one commit must be all ``within``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def load(directory: Path) -> dict[str, list[dict]]:
    """Untraced results in ``directory``, per workload, in run order."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.untraced.*.json"),
                       key=lambda p: int(p.name.split(".")[-2])):
        result = json.loads(path.read_text())
        runs.setdefault(result["workload"], []).append(result)
    return runs


def values_of(runs: list[dict], metric: str) -> tuple[float, list[float]]:
    """(median, the values its spread is taken over)."""
    per_run = [r["values"][metric] for r in runs]
    median = statistics.median(per_run)
    if len(per_run) == 1 and metric in runs[0]["rounds"]:
        return median, list(runs[0]["rounds"][metric])
    return median, per_run


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def verdict(a: tuple[float, list[float]], b: tuple[float, list[float]],
            better: str, bound: float) -> str:
    (a_med, a_vals), (b_med, b_vals) = a, b
    sign = 1.0 if better == "lower" else -1.0
    # how much worse B is than A, as a share of A
    worse_by = sign * (b_med - a_med) / a_med if a_med else (
        0.0 if b_med == a_med else sign * float("inf"))
    if max(spread(a_vals), spread(b_vals)) > bound:
        if all(sign * y < sign * x for x in a_vals for y in b_vals):
            return "better"
        if worse_by > bound and all(sign * y > sign * x
                                    for x in a_vals for y in b_vals):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within"


def compare(a_dir: Path, b_dir: Path) -> list[dict]:
    a_runs, b_runs = load(a_dir), load(b_dir)
    metrics = list(SPEC["end_to_end"]) + [
        # not in BENCHMARK.json, whose metrics may never read 0
        {"name": "failed_ops_pct", "unit": "%", "better": "lower",
         "bound": 0.0}]
    rows = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        if workload not in a_runs or workload not in b_runs:
            continue
        for m in metrics:
            a = values_of(a_runs[workload], m["name"])
            b = values_of(b_runs[workload], m["name"])
            rows.append({
                "workload": workload, "metric": m["name"],
                "unit": m["unit"], "a": a[0], "b": b[0],
                "ratio": b[0] / a[0] if a[0] else float("nan"),
                "spread_a": spread(a[1]), "spread_b": spread(b[1]),
                "bound": m["bound"],
                "verdict": verdict(a, b, m["better"], m["bound"])})
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(Path(argv[0]), Path(argv[1]))
    if not rows:
        print("no workload has untraced results in both directories",
              file=sys.stderr)
        return 2
    print(f"{'workload':12s} {'metric':15s} {'A':>12s} {'B':>12s} "
          f"{'B/A':>7s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}  "
          f"verdict")
    for r in rows:
        print(f"{r['workload']:12s} {r['metric']:15s} {r['a']:12.5g} "
              f"{r['b']:12.5g} {r['ratio']:7.3f} {r['spread_a']:9.1%} "
              f"{r['spread_b']:9.1%} {r['bound']:6.0%}  {r['verdict']}"
              f"   [{r['unit']}, base A]")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
