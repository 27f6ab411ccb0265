#!/usr/bin/env python
"""Both chaos stories under the RaveSanitizer — the CI correctness gate.

Runs the two seeded fault-injection scenarios the chaos suites script —
a render-farm worker dying mid-frame, and a multi-tenant grid losing a
member under 4x oversubscription — with :class:`RaveSanitizer` attached
to the simulator the whole time.  The sanitizer checks, at every
simulation event:

- **clock hygiene** — simulated time never moves backwards and no
  clock branch leaks past its scope;
- **re-entrancy** — no nested callback mutates a registered shared
  ledger behind an outer frame's back;
- **conservation** — the frame ledger always sums to the job
  (pending + leased + done == total, exactly-once intact) and no grid
  session is double-charged or double-rendered.

Any violation lands in the flight recorder as a ``sanitizer:*`` event;
this script dumps the recorder (path = first argv, default
``sanitized-chaos-dump.json``) and exits 1 if the dump contains any.

Run:
    python examples/sanitized_chaos.py [dump.json]
"""

import json
import sys

from repro import obs
from repro.core.grid import TenantQuota
from repro.data.generators import galleon, uv_sphere
from repro.farm import RenderJob
from repro.network.faults import FaultInjector
from repro.obs import assert_story
from repro.sanitizer import RaveSanitizer
from repro.scenegraph import MeshNode, SceneTree
from repro.testbed import build_testbed

FARM_SEED = 11
GRID_SEED = 7
FPS = 3000.0
POOL = ("centrino", "athlon")
TENANTS = tuple(f"t{i}" for i in range(8))

#: both chaos stories ran without one sanitizer violation
STORY = dict(absent=("sanitizer:",))


def farm_story():
    """A worker dies mid-frame; the job must still finish clean."""
    tb = build_testbed(farm=True)
    tb.publish_model("scene", galleon(2000))
    queue = tb.farm_queue
    sim = tb.network.sim

    san = RaveSanitizer(sim).attach()
    san.watch_farm_queue(queue)
    inj = FaultInjector(tb.network, seed=FARM_SEED)
    farm = tb.render_farm(worker_hosts=("onyx", "v880z"), dead_after=2.0)
    queue.submit(RenderJob(job_id="anim", session_id="scene",
                           start_frame=1, end_frame=6))
    farm.start()
    inj.schedule_crash(1.0, "onyx")
    deadline = sim.now + 300.0
    while not queue.job("anim").finished and sim.now < deadline:
        sim.run_until(sim.now + 1.0)
    san.detach()
    assert queue.job("anim").finished, "the chaos job never finished"
    print(f"  farm: job done at t={sim.now:.2f}s, "
          f"{san.events_checked} events checked, "
          f"{len(san.violations)} violation(s)")
    return san


def grid_story():
    """Overload + member crash + recovery under admission control."""
    tb = build_testbed()
    sim = tb.network.sim

    grid = tb.session_grid(member_hosts=POOL, queue_capacity=3,
                           queue_timeout=20.0, target_fps=FPS)
    san = RaveSanitizer(sim).attach()
    san.watch_grid(grid)
    san.watch_scene(grid.data_service, *grid.members)
    inj = FaultInjector(tb.network, seed=GRID_SEED)
    for i, tenant in enumerate(TENANTS):
        grid.register_tenant(TenantQuota(
            tenant=tenant, priority=(2 if i < 2 else 0),
            max_sessions=2, max_share=0.9,
            guaranteed_share=(0.10 if i < 2 else 0.0)))
    for i, tenant in enumerate(TENANTS):
        tree = SceneTree(name=f"scene-{tenant}")
        tree.add(MeshNode(uv_sphere(nu=24, nv=24)))
        grid.request_session(tenant, f"{tenant}-a", tree)
    for _ in range(6):
        sim.run_until(sim.now + 1.0)
        if grid.shed(sim.now) is None:
            break
        grid.pump(sim.now)
    inj.crash_host("athlon")
    grid.handle_member_failure("rs-athlon")
    for gs in grid.sessions():
        if any(s.name == "rs-athlon"
               for s in gs.session.render_services):
            gs.session.handle_service_failure("rs-athlon")
    grid.shed_to_fit(sim.now)
    sim.run_until(sim.now + 25.0)
    grid.pump(sim.now)
    inj.restart_host("athlon")
    grid.failed_members.discard("rs-athlon")
    for _ in range(12):
        if grid.restore(sim.now) is None:
            break
    grid.pump(sim.now)
    san.detach()
    assert grid.decisions, "the grid story recorded no decisions"
    print(f"  grid: {len(grid.decisions)} admission decisions, "
          f"{san.events_checked} events checked, "
          f"{len(san.violations)} violation(s)")
    return san


def main() -> int:
    dump_path = (sys.argv[1] if len(sys.argv) > 1
                 else "sanitized-chaos-dump.json")
    print("-- chaos under the sanitizer ------------------------------")
    with obs.observed() as bundle:
        sanitizers = [farm_story(), grid_story()]
        dump = bundle.recorder.dump("sanitized-chaos")

    with open(dump_path, "w") as fh:
        json.dump(dump, fh, indent=2, sort_keys=True)
    print(f"flight-recorder dump -> {dump_path} "
          f"({len(dump['events'])} events)")
    assert_story(dump, **STORY)
    checked = sum(s.events_checked for s in sanitizers)
    assert checked, "the sanitizer never saw a simulation event"
    print(f"OK: {checked} simulation events checked across both "
          f"stories, zero sanitizer violations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
