"""Wall-clock cost of running the render farm under the sanitizer.

The same two-worker job (a 2 000-polygon galleon, 12 frames at 160x120)
runs bare and with a :class:`~repro.sanitizer.RaveSanitizer` attached
and watching the frame ledger; the only variable is the per-event
invariant checking, so the ratio of the two drive loops' wall-clock
times is its cost.  The bar is a ratio below 2x.  Nothing is written.
"""

import time

from repro.data.generators import galleon
from repro.farm import RenderJob
from repro.sanitizer import RaveSanitizer
from repro.testbed import build_testbed

SCENE = "bench-scene"
JOB = "bench-anim"
WORKER_HOSTS = ("onyx", "v880z")
POLYGONS = 2_000
FRAMES = 12


def _drive_job(polygons: int, frames: int, sanitize: bool) -> dict:
    """One two-worker run; wall-clock time of the drive loop.

    Identical scenario either way — the only variable is whether the
    :class:`RaveSanitizer` is attached and watching the frame ledger,
    so the wall-clock ratio isolates the per-event checking cost.
    """
    tb = build_testbed(farm=True)
    tb.publish_model(SCENE, galleon(polygons))
    queue = tb.farm_queue
    farm = tb.render_farm(worker_hosts=WORKER_HOSTS)
    sim = tb.network.sim
    san = None
    if sanitize:
        san = RaveSanitizer(sim).attach()
        san.watch_farm_queue(queue)

    queue.submit(RenderJob(job_id=JOB, session_id=SCENE,
                           start_frame=1, end_frame=frames,
                           width=160, height=120))
    farm.start()
    deadline = sim.now + 600.0
    t0 = time.perf_counter()
    while not queue.job(JOB).finished and sim.now < deadline:
        sim.run_until(sim.now + 0.25)
    wall = time.perf_counter() - t0
    farm.stop()
    assert queue.job(JOB).finished
    return {"wall_seconds": wall,
            "events_checked": san.events_checked if san else 0,
            "violations": len(san.violations) if san else 0}


def run_sanitizer_overhead(polygons: int, frames: int) -> dict:
    """Wall-clock cost of running the farm story under the sanitizer.

    Each variant runs twice and keeps the faster pass so a one-off
    scheduler hiccup on the CI runner cannot fake a regression.
    """
    bare = min(_drive_job(polygons, frames, sanitize=False)["wall_seconds"]
               for _ in range(2))
    sanitized_runs = [_drive_job(polygons, frames, sanitize=True)
                      for _ in range(2)]
    sanitized = min(r["wall_seconds"] for r in sanitized_runs)
    worst = max(sanitized_runs, key=lambda r: r["wall_seconds"])
    return {
        "frames": frames,
        "bare_seconds": round(bare, 6),
        "sanitized_seconds": round(sanitized, 6),
        "overhead_ratio": round(sanitized / bare, 3) if bare else 0.0,
        "events_checked": worst["events_checked"],
        "violations": worst["violations"],
    }


def test_sanitizer_overhead_under_2x():
    san = run_sanitizer_overhead(POLYGONS, FRAMES)
    assert san["events_checked"] > 0, \
        "the sanitizer variant never checked an event"
    assert san["violations"] == 0, \
        f"the sanitizer flagged {san['violations']} violation(s)"
    assert san["overhead_ratio"] < 2.0, (
        f"sanitizer overhead {san['overhead_ratio']}x exceeds the 2x "
        f"budget — per-event invariant checks are too expensive")
