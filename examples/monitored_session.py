#!/usr/bin/env python
"""The grid monitoring plane closing the loop on a live session.

1. The testbed comes up with a :class:`MonitorService` on the registry
   host, scraping every service's telemetry over the simulated network
   once a second.
2. A collaborative session places a dataset; frames render; the monitor
   federates fps/utilisation gauges from the scraped payloads.
3. A console user logs onto a render machine — its frame rate collapses.
   The monitor's sustained-threshold rule (the migration policy's own
   8 fps / 3 s contract) raises a ``render-overload`` alert.
4. The alert is handed to ``cs.rebalance(alerts)``: the migrator keeps
   no load history of its own and sheds work off exactly the services
   the monitor's alerts name — monitoring drives the policy.
5. The SLO report records the violation window and its recovery, and the
   text dashboard renders the whole story.
6. The flight-recorder dump (path = first argv, default
   ``monitored-dump.json``) must show the alert before the migration.

Run:
    python examples/monitored_session.py [dump.json]
"""

import json
import sys

from repro import build_testbed, obs
from repro.data import skeleton
from repro.obs import assert_story
from repro.obs.dashboard import render_dashboard
from repro.core import CollaborativeSession
from repro.scenegraph import CameraNode, MeshNode, SceneTree

#: the monitor's overload alert, then the migrator shedding for overload;
#: only the three members placement left without a share read underloaded
#: (the two that draw at 600 fps sit near their whole rate)
STORY = dict(order=("alert:overload",
                    ("migration", lambda d: d.endswith("(overload)"))),
             counts={"alert:underload": 3})


def main() -> int:
    dump_path = sys.argv[1] if len(sys.argv) > 1 else "monitored-dump.json"
    tb = build_testbed(monitor_host="registry-host")
    bundle = obs.install(clock=tb.clock)
    try:
        tree = SceneTree("visible-man")
        tree.add(MeshNode(skeleton(90_000).normalized(), name="skeleton"))
        tb.publish_tree("visible-man", tree)
        cs = CollaborativeSession(tb.data_service, "visible-man",
                                  target_fps=600,
                                  recruiter=tb.recruiter())
        cs.place_dataset()
        print(f"placed across: "
              f"{sorted(s.name for s in cs.render_services)}")

        cam = CameraNode(position=(1.0, 1.6, 0.3))
        print("\n-- healthy baseline ---------------------------------------")
        for _ in range(4):
            cs.render_composite(cam, 128, 128)
            tb.network.sim.run_until(tb.clock.now + 1.0)
        print(f"monitor scraped {tb.monitor.scrapes} payloads "
              f"({tb.monitor.scrape_bytes:,} bytes on the wire); "
              f"alerts: {len(tb.monitor.firing_alerts())}")

        print("\n-- console login collapses one machine --------------------")
        victim = max((s for s in cs.render_services if cs.share_of(s)),
                     key=lambda s: s.committed_polygons())
        print(f"{victim.name}: reported fps pinned to 2.0")
        for _ in range(6):
            victim.reported_fps = 2.0
            tb.network.sim.run_until(tb.clock.now + 1.0)
        alerts = tb.monitor.firing_alerts()
        for alert in alerts:
            print(f"  ALERT {alert.rule} on {alert.service} "
                  f"(value {alert.value:.1f}, since t={alert.since:.1f}s)")

        print("\n-- the alert drives the migration policy ------------------")
        actions = cs.rebalance(alerts=alerts)
        for action in actions:
            print(f"  migrated {action.polygons:,} polygons "
                  f"{action.source} -> {action.destination} "
                  f"[{action.reason}]")
        victim.reported_fps = float("inf")   # load gone; fps recovers
        for _ in range(3):
            cs.render_composite(cam, 128, 128)
            tb.network.sim.run_until(tb.clock.now + 1.0)

        print("\n-- dashboard ----------------------------------------------")
        print(render_dashboard(tb.monitor.snapshot()), end="")

        dump = bundle.recorder.dump("monitored-session")
        with open(dump_path, "w") as fh:
            json.dump(dump, fh, indent=2, sort_keys=True)
        print(f"\nflight-recorder dump -> {dump_path} "
              f"({len(dump['events'])} events)")
        assert_story(dump, **STORY)
        print("OK: the overload alert drove the migration off the "
              "collapsed machine")
        return 0
    finally:
        obs.uninstall()


if __name__ == "__main__":
    raise SystemExit(main())
