"""One round of one workload, in a process of its own.

``bench/run.py`` starts this with ``python -m bench.worker``; the round's
result is the last line of standard output, as JSON.  A round is: import the
program, generate the inputs, build the testbed and warm up (all of that is
set-up), then run whole units until the round's share of ``--seconds`` is
used.  With ``--traced 1`` a :class:`bench.trace.Tracer` is installed before
the testbed is built, so set-up calls are spans too, and then taken out and
put back so that every other unit runs without it.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def run_round(workload: str, seed: int, seconds: float, scale: float,
              traced: bool, spawned_at: float,
              spans_path: Path | None = None) -> dict:
    t0 = time.perf_counter()
    import repro  # noqa: F401  (timed: the program's import cost)
    import_ms = (time.perf_counter() - t0) * 1e3

    import numpy

    from bench import trace
    from bench.workloads import WORKLOADS, Recorder, SpeedProbe, digest

    wl = WORKLOADS[workload]

    def inputs_of(unit: int) -> dict:
        # a traced round runs every variant twice, traced and then plain
        return wl.generate(seed, scale, unit // 2 if traced else unit)

    tracer = trace.Tracer() if traced else None
    # a traced round alternates plain and traced units, so that both kinds
    # see the same drift of the machine and their gap is the tracing overhead
    probe = SpeedProbe()
    plain, spanned = Recorder(probe=probe), Recorder(tracer, probe)
    units: list[dict] = []
    if tracer is not None:
        tracer.install()
    try:
        state = wl.build(inputs_of(0))
        scene_faces = wl.scene_faces(state)
        setup_s = time.time() - spawned_at
        while True:
            rec = spanned if traced and len(units) % 2 == 0 else plain
            first_slice, first_sample = rec.slices, len(rec.samples)
            fingerprint = wl.unit(state, inputs_of(len(units)), rec)
            rec.end_unit()
            units.append({"fingerprint": fingerprint, "traced": rec is spanned,
                          "slices": (first_slice, rec.slices),
                          "samples": (first_sample, len(rec.samples))})
            # stop at the unit boundary nearest to the budget
            wall_ns = plain.wall_ns + spanned.wall_ns
            if (wall_ns + wall_ns / len(units) / 2 >= seconds * 1e9
                    and len(units) >= 1 + traced):
                break
            if tracer is not None:
                if rec is spanned:
                    tracer.uninstall()
                else:
                    tracer.install()
            if not wl.reuse_state:
                state = None
                gc.collect()
                state = wl.build(inputs_of(len(units)))
    finally:
        if tracer is not None:
            tracer.uninstall()

    rec = spanned if traced else plain
    ops = rec.attempted
    problems = plain.failures + spanned.failures
    mine = [u for u in units if u["traced"] == traced]
    if traced and any(t["fingerprint"] != p["fingerprint"]
                      for t, p in zip(units[0::2], units[1::2])):
        problems.append("a traced unit and its plain twin disagree: "
                        + json.dumps([u["fingerprint"] for u in units]))
    # every time is kept twice: as measured ("raw_") and at the reference
    # machine speed, i.e. divided by the slowdown the speed probe saw
    slow = rec.slowdowns()
    raw_wall = [wall for wall, _, _ in rec.samples]
    wall = [w / f for w, f in zip(raw_wall, slow)]
    cpu_ns = sum(c / f for (_, c, _), f in zip(rec.samples, slow))
    counts = [n for _, _, n in rec.samples]
    result = {
        "workload": workload, "seed": seed, "traced": traced,
        "input_digest": digest(inputs_of(0)),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "setup_s": setup_s, "import_ms": import_ms,
        "ops": ops, "failed": plain.failed + spanned.failed,
        "units": len(units),
        "fingerprints": [u["fingerprint"] for u in mine],
        "problems": problems,
        "wall_s": sum(wall) / 1e9, "raw_wall_s": sum(raw_wall) / 1e9,
        "cpu_s": cpu_ns / 1e9,
        "raw_cpu_s": sum(c for _, c, _ in rec.samples) / 1e9,
        "samples_ms": [w / n / 1e6 for w, n in zip(wall, counts)],
        "raw_samples_ms": [w / n / 1e6 for w, n in zip(raw_wall, counts)],
        "slowdown": statistics.median(slow),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tail_growth": statistics.median(
            _tail_growth(wall[a:b], counts[a:b]) for a, b in
            (u["samples"] for u in mine)),
    }
    if tracer is not None:
        table = trace.SpanTable(tracer)
        layers = trace.layer_metrics(table, ops, rec.wall_ns, scene_faces)
        layers["import.wall_ms"] = import_ms
        layers["farm.queue_service.tail_growth"] = result["tail_growth"]
        # each traced unit against the plain unit that followed it
        plain_slow = plain.slowdowns()
        layers["trace.overhead_pct"] = 100.0 * (statistics.median(
            _ns_per_op(spanned.samples, slow, *t["samples"])
            / _ns_per_op(plain.samples, plain_slow, *p["samples"])
            for t, p in zip(units[0::2], units[1::2])) - 1.0)
        result["ops"] += plain.attempted
        result["layers"] = layers
        result["exact_counts"] = trace.exact_counts(
            table, [u["slices"] for u in mine])
        result["layer_self_pct"] = {
            layer: 100.0 * ns / rec.wall_ns
            for layer, ns in table.layer_self_ns().items()}
        if spans_path is not None:
            spans_path.write_text(json.dumps(tracer.export()))
    return result


def _ns_per_op(samples, slow, first: int, last: int) -> float:
    """Time per op, at the reference speed, of samples ``first..last-1``."""
    return (sum(s[0] / f for s, f in zip(samples[first:last],
                                         slow[first:last]))
            / sum(s[2] for s in samples[first:last]))


def _tail_growth(wall: list[float], counts: list[int]) -> float:
    """Cost per op over a unit's last tenth of samples / over its first."""
    k = max(1, len(wall) // 10)
    return ((sum(wall[-k:]) / sum(counts[-k:]))
            / (sum(wall[:k]) / sum(counts[:k])))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--traced", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.time() just before this process was started")
    ap.add_argument("--spans", type=Path, default=None,
                    help="write the traced round's spans to this file")
    args = ap.parse_args(argv)
    result = run_round(args.workload, args.seed, args.seconds, args.scale,
                       bool(args.traced), args.spawned_at, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
