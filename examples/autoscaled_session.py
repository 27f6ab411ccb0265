#!/usr/bin/env python
"""Alert-driven autoscaling closing the observe→scale loop on a session.

1. The testbed comes up with the monitoring plane and autoscaling
   enabled; a session starts on the two weakest machines with a scene
   that nearly fills them.
2. Every member's frame rate collapses while the scene exceeds 80% of
   the *pool's* polygon budget — shuffling work between members cannot
   clear that, so the monitor's sustained ``grid-overload`` alert makes
   the :class:`~repro.core.autoscale.RecruitmentAutoscaler` scan UDDI
   and grow the session pool.
3. With the recruits absorbing work the frame rate recovers, the
   sustained ``grid-underload`` alert takes over, and the autoscaler
   drains idle members one cooldown apart, releasing them back to the
   registry as recruitable spare capacity.
4. The flight-recorder dump (written as JSON, path = first argv or
   ``autoscale-dump.json``) carries every scale decision; the dashboard
   renders the pool-size history.

Run:
    python examples/autoscaled_session.py [dump.json]
"""

import json
import sys

from repro import build_testbed, obs
from repro.core import CollaborativeSession
from repro.data import skeleton
from repro.obs import assert_story
from repro.obs.dashboard import render_dashboard
from repro.scenegraph import MeshNode, SceneTree

#: the overload alert recruits; two releases drain to the 3-member floor
STORY = dict(order=("alert:grid-overload", "scale:grow",
                    "scale:release", "scale:release"),
             counts={"scale:release": 2})


def main() -> int:
    dump_path = sys.argv[1] if len(sys.argv) > 1 else "autoscale-dump.json"
    tb = build_testbed(monitor_host="registry-host", autoscale=True)
    bundle = obs.install(clock=tb.clock)
    try:
        tree = SceneTree("visible-man")
        tree.add(MeshNode(skeleton(30_000).normalized(), name="skeleton"))
        tb.publish_tree("visible-man", tree)
        cs = CollaborativeSession(tb.data_service, "visible-man",
                                  target_fps=600,
                                  recruiter=tb.recruiter())
        for host in ("centrino", "athlon"):
            cs.connect(tb.render_service(host))
        cs.place_dataset()
        print(f"initial pool: {sorted(s.name for s in cs.render_services)}")

        scaler = tb.autoscale(cs, cooldown_seconds=5.0,
                              min_services=3)

        def drive() -> None:
            """Report collapsed frame rates while the pool is saturated."""
            pool = cs.render_services
            budget = sum(s.capacity().polygon_budget(cs.target_fps)
                         for s in pool)
            committed = sum(s.committed_polygons() for s in pool)
            heavy = committed > 0.8 * budget
            for service in pool:
                service.reported_fps = 2.0 if heavy else 30.0

        last = len(cs.render_services)
        for _ in range(40):
            drive()
            deadline = tb.clock.now + 1.0
            while tb.clock.now < deadline:
                tb.network.sim.run_until(min(deadline, tb.clock.now + 1.0))
            size = len(cs.render_services)
            if size != last:
                arrow = "grew" if size > last else "shrank"
                print(f"t={tb.clock.now:7.2f}s pool {arrow} "
                      f"{last} -> {size}")
                last = size
        scaler.stop()

        print("\n-- scale decisions ----------------------------------------")
        for event in scaler.events:
            print(f"  t={event.time:7.2f}s {event.kind:<8} "
                  f"{', '.join(event.services)} "
                  f"(pool {event.pool_before} -> {event.pool_after}; "
                  f"{event.reason})")

        print("\n-- dashboard ----------------------------------------------")
        print(render_dashboard(tb.monitor.snapshot()), end="")

        dump = bundle.recorder.dump("autoscaled-session")
        with open(dump_path, "w") as fh:
            json.dump(dump, fh, indent=2, sort_keys=True)
        print(f"\nflight-recorder dump -> {dump_path} "
              f"({len(dump['events'])} events)")
        assert_story(dump, **STORY)
        sizes = [size for _, size in scaler.pool_history]
        steps = list(zip(sizes, sizes[1:]))
        assert any(b > a for a, b in steps) and any(b < a for a, b in steps), \
            f"pool never scaled both ways (history: {sizes})"
        print(f"OK: pool history {sizes} — grew under overload, "
              f"shrank under underload")
        return 0
    finally:
        obs.uninstall()


if __name__ == "__main__":
    raise SystemExit(main())
