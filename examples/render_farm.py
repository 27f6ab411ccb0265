#!/usr/bin/env python
"""The batch render farm surviving a node loss mid-job.

1. The testbed deploys the :class:`FrameQueueService` as a fifth grid
   service role (own WSDL, UDDI-registered) and an animation job — 12
   frames of the galleon orbiting — is submitted to it.
2. Two idle render services pull frames, **one at a time**, over the
   simulated network; each pull pays the lease transfer, renders in its
   own clock branch (``Simulator.branch``), and ships the frame back.
3. One second in, the fault injector kills the worker holding frame 1
   mid-render.  Heartbeats declare it dead, the queue re-queues the
   lost lease at the front, and the surviving worker re-renders it —
   exactly once, no duplicates.
4. The end-of-job ``checkframes`` audit comes back empty (the crash
   cost time, never frames), the dashboard shows the farm panel, and
   the flight-recorder dump (path = first argv, default
   ``renderfarm-dump.json``) carries the whole lease → crash →
   requeue → complete story in causal order.

Run:
    python examples/render_farm.py [dump.json]
"""

import json
import sys

from repro import build_testbed, obs
from repro.data.generators import galleon
from repro.farm import RenderJob
from repro.network.faults import FaultInjector
from repro.obs import assert_story
from repro.obs.dashboard import render_dashboard

JOB = "galleon-anim"
SCENE = "galleon"
FRAMES = 12
VICTIM = "onyx"                 # rs-onyx sorts first: it leases frame 1

#: the crash costs frame 1 one re-queue, then the job completes clean
STORY = dict(order=("farm:submit", "farm:lease", "fault:crash",
                    "farm:requeue", "farm:complete", "farm:job-done"),
             counts={"farm:requeue": 1},
             where={"farm:requeue": lambda d: d.startswith(f"{JOB}#1:"),
                    "farm:job-done": lambda d: "missing []" in d})


def main() -> int:
    dump_path = sys.argv[1] if len(sys.argv) > 1 else "renderfarm-dump.json"
    tb = build_testbed(monitor_host="registry-host", farm=True)
    bundle = obs.install(clock=tb.clock)
    try:
        tb.publish_model(SCENE, galleon(2000))
        queue = tb.farm_queue
        sim = tb.network.sim
        inj = FaultInjector(tb.network, seed=11)
        farm = tb.render_farm(worker_hosts=(VICTIM, "v880z"),
                              dead_after=2.0)

        print("-- the job goes in ----------------------------------------")
        queue.submit(RenderJob(job_id=JOB, session_id=SCENE,
                               start_frame=1, end_frame=FRAMES))
        print(f"  {JOB}: frames 1..{FRAMES} of {SCENE!r}, "
              f"queue depth {queue.queue_depth()}")
        farm.start()
        # no prewarm: the first pull pays the multi-second session
        # bootstrap, so the crash lands squarely mid-frame
        inj.schedule_crash(1.0, VICTIM)

        last_done = -1
        deadline = sim.now + 300.0
        while not queue.job(JOB).finished and sim.now < deadline:
            sim.run_until(sim.now + 1.0)
            job = queue.job(JOB)
            if job.done_frames != last_done:
                lost = (f"  [lost {farm.frames_lost} to "
                        f"{sorted(farm.failed_workers)}]"
                        if farm.frames_lost else "")
                print(f"  t={sim.now:7.2f}s {job.done_frames:2d}/"
                      f"{job.total_frames} frames done{lost}")
                last_done = job.done_frames

        audit = queue.audit(JOB)
        print(f"\n-- checkframes audit: "
              f"{'CLEAN' if not audit else f'MISSING {audit}'} "
              f"({queue.frames_completed} completed, "
              f"{queue.requeues} re-queued, "
              f"{queue.duplicates_dropped} duplicates dropped)")

        # give the monitor a few scrape periods to observe the finished
        # job so the dashboard shows the settled farm, not a mid-run view
        for _ in range(4):
            sim.run_until(sim.now + 1.0)

        print("\n-- dashboard ----------------------------------------------")
        print(render_dashboard(tb.monitor.snapshot()), end="")

        dump = bundle.recorder.dump("render-farm")
        with open(dump_path, "w") as fh:
            json.dump(dump, fh, indent=2, sort_keys=True)
        print(f"\nflight-recorder dump -> {dump_path} "
              f"({len(dump['events'])} events)")
        assert_story(dump, **STORY)
        assert audit == [], f"audit missing {audit}"
        lost = (farm.frames_lost, queue.requeues, queue.duplicates_dropped)
        assert lost == (1, 1, 0), f"lost, re-queued, duplicates: {lost}"
        print("OK: the crashed worker's frame was re-queued and "
              "re-rendered exactly once; the audit is clean")
        return 0
    finally:
        obs.uninstall()


if __name__ == "__main__":
    raise SystemExit(main())
