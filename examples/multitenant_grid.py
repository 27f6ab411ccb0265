#!/usr/bin/env python
"""The multi-tenant session grid riding one full overload wave.

1. Six tenants hit a single-member pool at once.  The pool holds two
   sessions at the requested rate, so the admission controller admits
   two, queues three (with position feedback), and answers the sixth
   with an explicit 429 — ``TooManyRequestsError`` with a
   ``retry_after`` hint — instead of silently degrading everyone.
2. The grid exports queue depth and rejection rate like any other
   service; the monitor's sustained ``grid-saturated`` alert puts the
   :class:`~repro.core.autoscale.RecruitmentAutoscaler` (the grid as its pool)
   to work and the pool grows via UDDI.
3. With the recruit's capacity the admission queue drains to zero —
   every queued tenant gets its session, nobody starves.
4. The flight-recorder dump (path = first argv, default
   ``multitenant-dump.json``) carries every admission decision and
   scale action in causal order; the dashboard shows the admission
   panel and the per-tenant session gauges.

Run:
    python examples/multitenant_grid.py [dump.json]
"""

import json
import sys

from repro import TooManyRequestsError, build_testbed, obs
from repro.core.grid import TenantQuota
from repro.data.generators import uv_sphere
from repro.obs import assert_story
from repro.obs.dashboard import render_dashboard
from repro.scenegraph import MeshNode, SceneTree

FPS = 3000.0          # demand amplifier: one ~1.1k-poly sphere = ~3.3 Mpps
TENANTS = ("aero", "biolab", "cfd", "dyno", "eng", "flux")

#: queue -> one explicit 429 -> one recruit -> the queued tenants admitted
STORY = dict(order=("queue", "reject", "scale:grow", "admit"),
             counts={"reject": 1, "scale:grow": 1})


def scene(label):
    tree = SceneTree(name=f"scene-{label}")
    tree.add(MeshNode(uv_sphere(nu=24, nv=24)))
    return tree


def main() -> int:
    dump_path = sys.argv[1] if len(sys.argv) > 1 else "multitenant-dump.json"
    tb = build_testbed(monitor_host="registry-host", autoscale=True)
    bundle = obs.install(clock=tb.clock)
    try:
        grid = tb.session_grid(member_hosts=("centrino",),
                               queue_capacity=3, queue_timeout=600.0,
                               target_fps=FPS)
        for i, tenant in enumerate(TENANTS):
            grid.register_tenant(TenantQuota(
                tenant=tenant, priority=i % 3, max_sessions=2,
                max_share=0.9, guaranteed_share=0.05))
        scaler = tb.autoscale(grid, cooldown_seconds=5.0, period=1.0)
        client = tb.thin_client("front-door")

        print("-- admission burst ----------------------------------------")
        for i, tenant in enumerate(TENANTS):
            try:
                decision = client.open_grid_session(
                    grid, tenant, f"{tenant}-viz", scene(i))
            except TooManyRequestsError as err:
                print(f"  {tenant:<7} 429 {err} "
                      f"(retry after {err.retry_after:g}s)")
                continue
            position = (f" (queue position {decision.queue_position})"
                        if decision.queue_position else "")
            print(f"  {tenant:<7} {decision.outcome}{position}")

        print("\n-- the autoscaler reacts ----------------------------------")
        sim = tb.network.sim
        last_pool = len(grid.members)
        for _ in range(60):
            sim.run_until(sim.now + 1.0)
            pool = len(grid.members)
            if pool != last_pool:
                names = sorted(s.name for s in grid.members)
                print(f"  t={sim.now:7.2f}s pool {last_pool} -> {pool} "
                      f"{names}")
                last_pool = pool
            if grid.queue_depth() == 0 and pool > 1:
                break
        scaler.stop()
        print(f"  t={sim.now:7.2f}s queue depth {grid.queue_depth()}, "
              f"{len(grid.sessions())} sessions admitted")
        # the burst charged big data transfers straight to the clock;
        # give the monitor a moment to work through its scrape backlog
        # so the dashboard shows the drained, settled grid
        for _ in range(12):
            sim.run_until(sim.now + 1.0)

        print("\n-- dashboard ----------------------------------------------")
        print(render_dashboard(tb.monitor.snapshot()), end="")

        dump = bundle.recorder.dump("multitenant-grid")
        with open(dump_path, "w") as fh:
            json.dump(dump, fh, indent=2, sort_keys=True)
        print(f"\nflight-recorder dump -> {dump_path} "
              f"({len(dump['events'])} events)")
        assert_story(dump, **STORY)
        assert grid.queue_depth() == 0, "the admission queue did not drain"
        assert len(grid.sessions()) == len(TENANTS) - 1
        print("OK: oversubscription queued and rejected explicitly, the "
              "pool grew, and the queue drained")
        return 0
    finally:
        obs.uninstall()


if __name__ == "__main__":
    raise SystemExit(main())
