"""Wall-clock benchmark of the RAVE reproduction: one command, every metric.

    python3 bench/run.py [--workload W] [--seed N] [--seconds S]
                         [--trace 0|1] [--scale X] [--out DIR]

Runs each chosen workload untraced (three rounds; prints the end-to-end
metrics) and traced (one round of alternating plain and traced units; prints
the per-layer metrics), each round in a fresh single-threaded subprocess, and
checks the program's outputs.  Each run ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``; the exit code is non-zero
when a check failed.  Metric and workload names are those of BENCHMARK.json.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    # run as a script, sys.path[0] is bench/ itself, where trace.py would
    # shadow the standard library's module of that name
    sys.path[0] = str(ROOT)

from bench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: untraced rounds per run, each a fresh process with its own set-up
ROUNDS = 3
#: BLAS/OpenMP pools off: a sizing loop like thin_dense spread 30% unpinned
#: against 6% pinned, and user CPU exceeded wall time
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_worker(workload: str, seed: int, seconds: float, scale: float,
               traced: bool, spans: Path | None = None) -> dict:
    """One round in a fresh interpreter; returns the worker's result."""
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_ENV})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
    cmd = [sys.executable, "-m", "bench.worker", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--scale", repr(scale), "--traced", str(int(traced)),
           "--spawned-at", repr(time.time())]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: worker exited with code "
                           f"{done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def check_rounds(rounds: list[dict]) -> list[str]:
    """Problems of a set of rounds of one workload and seed."""
    problems = [p for r in rounds for p in r["problems"]]
    first = rounds[0]
    for r in rounds[1:]:
        if r["input_digest"] != first["input_digest"]:
            problems.append("generated inputs differ between rounds")
        for k, (a, b) in enumerate(zip(first["fingerprints"],
                                       r["fingerprints"])):
            if a != b:
                problems.append(f"unit {k} of one seed differs between "
                                f"rounds: {a} != {b}")
    return problems


def end_to_end(rounds: list[dict]) -> dict:
    """The end-to-end metrics of one untraced run of ``rounds``.

    Rates, per-op CPU and latency percentiles are taken over the ops of all
    rounds together; memory and set-up time, which a round has once, are the
    median round.  Times are at the reference machine speed (see
    ``SpeedProbe``); the same figures from the times as measured are kept
    under ``raw``.
    """
    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)

    def timed(prefix: str, group: list[dict]) -> dict:
        samples = sorted(s for r in group for s in r[prefix + "samples_ms"])
        ops = sum(r["ops"] for r in group)
        bad = sum(r["failed"] for r in group)
        return {
            "ops_per_s": (ops - bad) / sum(r[prefix + "wall_s"]
                                           for r in group),
            "op_ms_p50": percentile(samples, 0.5),
            "op_ms_p90": percentile(samples, 0.9),
            "cpu_ms_per_op": 1e3 * sum(r[prefix + "cpu_s"]
                                       for r in group) / ops,
        }

    values = timed("", rounds)
    per_round = {name: [timed("", [r])[name] for r in rounds]
                 for name in values}
    for name in ("peak_rss_mb", "setup_s"):
        per_round[name] = [r[name] for r in rounds]
        values[name] = statistics.median(per_round[name])
    values["failed_ops_pct"] = 100.0 * failed / attempted
    samples = sum(len(r["samples_ms"]) for r in rounds)
    return {"values": values, "raw": timed("raw_", rounds),
            "rounds": per_round, "samples": samples,
            "slowdown": statistics.median(r["slowdown"] for r in rounds),
            "beyond_p90": samples - math.ceil(0.9 * samples),
            "attempted": attempted, "failed": failed}


def stamp(seed: int, rounds: list[dict]) -> dict:
    return {"nproc": os.cpu_count(), "python": rounds[0]["python"],
            "numpy": rounds[0]["numpy"], "commit": commit(), "seed": seed,
            "threads": {name: "1" for name in THREAD_ENV}}


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return done.stdout.strip() or "unknown"


def run_untraced(workload: str, seed: int, seconds: float,
                 scale: float) -> dict:
    rounds = [run_worker(workload, seed, seconds / ROUNDS, scale, False)
              for _ in range(ROUNDS)]
    out = end_to_end(rounds)
    out.update(workload=workload, traced=False, stamp=stamp(seed, rounds),
               input_digest=rounds[0]["input_digest"],
               fingerprints=max((r["fingerprints"] for r in rounds),
                                key=len),
               problems=check_rounds(rounds))
    out["unit_of"] = {"failed_ops_pct": "%", **{
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}}
    out["metrics"] = {m["name"]: {"value": out["values"][m["name"]],
                                  "unit": m["unit"]}
                      for m in SPEC["end_to_end"]}
    return out


def run_traced(workload: str, seed: int, seconds: float, scale: float,
               out_dir: Path | None) -> dict:
    spans = out_dir / f"{workload}.spans.json" if out_dir else None
    traced = run_worker(workload, seed, seconds, scale, True, spans)
    layers = traced["layers"]
    return {
        "workload": workload, "traced": True, "stamp": stamp(seed, [traced]),
        "input_digest": traced["input_digest"],
        "fingerprints": traced["fingerprints"],
        "problems": traced["problems"],
        "attempted": traced["ops"], "failed": traced["failed"],
        "values": layers, "exact_counts": traced["exact_counts"],
        "layer_self_pct": traced["layer_self_pct"],
        "unit_of": {m["name"]: m["unit"] for m in SPEC["per_layer"]},
        "metrics": {m["name"]: {"value": layers[m["name"]],
                                "unit": m["unit"]}
                    for m in SPEC["per_layer"]},
    }


def report(result: dict) -> None:
    """Every metric by name with its unit, then the contract's JSON line."""
    s = result["stamp"]
    mode = "traced" if result["traced"] else f"untraced, {ROUNDS} rounds"
    print(f"== {result['workload']} ({mode}) seed {s['seed']} "
          f"inputs {result['input_digest']} commit {s['commit'][:12]} "
          f"nproc {s['nproc']} python {s['python']} numpy {s['numpy']}")
    notes = {}
    if not result["traced"]:
        notes = {
            "op_ms_p50": f"{result['samples']} pooled samples",
            "op_ms_p90": f"{result['beyond_p90']} samples beyond it",
            "failed_ops_pct": f"{result['failed']} of "
                              f"{result['attempted']} ops",
        }
        for name, values in result["rounds"].items():
            notes[name] = (f"{notes[name]}; " if name in notes else "") + (
                "rounds " + " ".join(f"{v:.4g}" for v in values))
        for name, value in result["raw"].items():
            notes[name] += f"; as measured {value:.6g}"
    for name, value in result["values"].items():
        note = f"   ({notes[name]})" if name in notes else ""
        print(f"  {name:46s} {value:14.6g} {result['unit_of'][name]}{note}")
    if result["traced"]:
        print("  -- self time as a share of the traced ops' wall time")
        for layer, pct in result["layer_self_pct"].items():
            print(f"  {layer:46s} {pct:14.2f} %")
    if not result["traced"]:
        print(f"  times are at the reference machine speed; the machine ran "
              f"{result['slowdown']:.3f}x slower than it (median speed "
              f"probe)")
    for problem in result["problems"]:
        print(f"  FAILED CHECK: {problem}")
    correct = not result["problems"] and result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))


def save(result: dict, out_dir: Path) -> None:
    mode = "traced" if result["traced"] else "untraced"
    n = len(list(out_dir.glob(f"{result['workload']}.{mode}.*.json")))
    path = out_dir / f"{result['workload']}.{mode}.{n}.json"
    path.write_text(json.dumps(result, indent=1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                    help="one workload (default: all four)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                    help="measured seconds per run, shared by its rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end run, 1: per-layer run (default: both)")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink every unit of work (smoke tests)")
    ap.add_argument("--out", type=Path, default=None,
                    help="directory for result and span files (default: "
                         "nothing is written)")
    args = ap.parse_args(argv)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else [
        w["name"] for w in SPEC["workloads"]]
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    ok = True
    for name in names:
        for traced in modes:
            if traced:
                result = run_traced(name, args.seed, args.seconds,
                                    args.scale, args.out)
            else:
                result = run_untraced(name, args.seed, args.seconds,
                                      args.scale)
            if args.out is not None:
                save(result, args.out)
            report(result)
            ok = ok and not result["problems"] and result["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
