#!/usr/bin/env python
"""Fair-share scheduling: a late short job beats a long animation.

1. The testbed deploys the :class:`FrameQueueService` and a long
   priority-0 animation (60 frames, tenant ``batch``) starts rendering
   on a two-worker pool.
2. One second in — both workers deep in the animation — a short
   priority-1 job (6 frames, tenant ``viz``) is submitted.  Under the
   old flat FIFO its frames would have queued behind every remaining
   animation frame; the fair scheduler serves them at the very next
   lease instead (lease-time preemption, no lease revocation).
3. The short job finishes while the animation is still near its start;
   nothing starves, both ``checkframes`` audits come back empty, and
   the dashboard's farm panel shows per-job priorities and waits.
4. The flight-recorder dump (path = first argv, default
   ``farm-fairness-dump.json``) carries the whole story: the script
   asserts its ``STORY`` on the dump alone.

Run:
    python examples/farm_fairness.py [dump.json]
"""

import json
import sys

from repro import build_testbed, obs
from repro.data.generators import galleon
from repro.farm import RenderJob
from repro.obs import assert_story
from repro.obs.dashboard import render_dashboard

SCENE = "galleon"
LONG, SHORT = "galleon-anim", "title-card"
LONG_FRAMES, SHORT_FRAMES = 60, 6

#: priority-1 leases, the short job done first, nothing starved
STORY = dict(
    order=(("farm:lease", lambda d: d.startswith(f"{SHORT}#")),
           ("farm:job-done", lambda d: d.startswith(f"{SHORT}:")),
           ("farm:job-done", lambda d: d.startswith(f"{LONG}:"))),
    absent=("farm:starved", "alert:farm-starvation"),
    where={"farm:lease": lambda d: (not d.startswith(f"{SHORT}#")
                                    or "priority 1" in d)})


def main() -> int:
    dump_path = (sys.argv[1] if len(sys.argv) > 1
                 else "farm-fairness-dump.json")
    tb = build_testbed(monitor_host="registry-host", farm=True)
    bundle = obs.install(clock=tb.clock)
    try:
        tb.publish_model(SCENE, galleon(2000))
        queue = tb.farm_queue
        sim = tb.network.sim
        farm = tb.render_farm(worker_hosts=("onyx", "v880z"))

        print("-- the animation goes in ----------------------------------")
        queue.submit(RenderJob(job_id=LONG, session_id=SCENE,
                               start_frame=1, end_frame=LONG_FRAMES,
                               priority=0, tenant="batch"))
        print(f"  {LONG}: frames 1..{LONG_FRAMES}, priority 0, "
              f"tenant batch")
        farm.start()
        sim.run_until(sim.now + 1.0)

        print("-- a short high-priority job arrives ----------------------")
        queue.submit(RenderJob(job_id=SHORT, session_id=SCENE,
                               start_frame=1, end_frame=SHORT_FRAMES,
                               priority=1, tenant="viz"))
        print(f"  {SHORT}: frames 1..{SHORT_FRAMES}, priority 1, "
              f"tenant viz (t={sim.now:.2f}s)")

        deadline = sim.now + 300.0
        while not (queue.job(LONG).finished
                   and queue.job(SHORT).finished) and sim.now < deadline:
            sim.run_until(sim.now + 0.5)

        short = queue.job(SHORT)
        long_job = queue.job(LONG)
        long_at_short = sum(
            1 for f in long_job.frames.values()
            if f.completed_at and f.completed_at <= short.finished_at)
        print(f"\n  {SHORT} finished at t={short.finished_at:.2f}s with "
              f"{LONG} at {long_at_short}/{LONG_FRAMES} frames")
        audits = {LONG: queue.audit(LONG), SHORT: queue.audit(SHORT)}

        # give the monitor a few scrape periods to observe the settled
        # farm before rendering the dashboard
        for _ in range(4):
            sim.run_until(sim.now + 1.0)
        print("\n-- dashboard ----------------------------------------------")
        print(render_dashboard(tb.monitor.snapshot()), end="")

        dump = bundle.recorder.dump("farm-fairness")
        with open(dump_path, "w") as fh:
            json.dump(dump, fh, indent=2, sort_keys=True)
        print(f"\nflight-recorder dump -> {dump_path} "
              f"({len(dump['events'])} events)")
        assert_story(dump, **STORY)
        assert long_at_short < LONG_FRAMES // 2, "no lease-time preemption"
        assert audits == {LONG: [], SHORT: []}, f"audits {audits}"
        assert queue.starved_jobs() == [] and queue.duplicates_dropped == 0
        print("OK: the late short job preempted at lease time and "
              "finished first; audits clean, nothing starved")
        return 0
    finally:
        obs.uninstall()


if __name__ == "__main__":
    raise SystemExit(main())
