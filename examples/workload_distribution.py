#!/usr/bin/env python
"""Automatic workload distribution and migration — the paper's core story.

1. A dataset too large for any one render service arrives; the scheduler
   interrogates capacities, recruits extra services via UDDI, and splits
   the scene tree across them.
2. Every service renders its subset with the shared camera; the
   framebuffers depth-composite into the final image.
3. A console user logs onto one of the machines (its frame rate
   collapses); a rule engine detects the sustained overload, and the
   migration policy moves fine-grained node sets off that machine to
   ones with headroom (the example fails if nothing moves).
4. For comparison, the same frame is produced with framebuffer (tile)
   distribution.

Run:
    python examples/workload_distribution.py
"""

from pathlib import Path

from repro import build_testbed
from repro.core import CollaborativeSession
from repro.data import skeleton
from repro.obs.rules import RuleEngine
from repro.obs.vocab import ALERT_OVERLOAD
from repro.scenegraph import CameraNode, MeshNode, SceneTree

OUTPUT = Path(__file__).parent / "output"


def main() -> None:
    OUTPUT.mkdir(exist_ok=True)
    tb = build_testbed()

    mesh = skeleton(120_000).normalized()
    tree = SceneTree("visible-man")
    tree.add(MeshNode(mesh, name="skeleton"))
    tb.publish_tree("visible-man", tree)
    print(f"Dataset: {mesh.n_triangles:,} polygons")

    # a deliberately demanding interactivity contract so no single
    # machine can host the dataset alone
    cs = CollaborativeSession(tb.data_service, "visible-man",
                              target_fps=600,
                              recruiter=tb.recruiter())
    print("\n-- placement ------------------------------------------------")
    placement = cs.place_dataset()
    print(f"mode: {placement.mode}"
          + (f" (recruited {len(placement.recruited)} services via UDDI)"
             if placement.recruited else ""))
    for a in placement.assignments:
        print(f"  {a.service.name:<14} {a.polygons:>9,} polygons "
              f"(headroom was {a.report.headroom(cs.target_fps):,.0f})")

    print("\n-- dataset-distributed frame ---------------------------------")
    cam = CameraNode(position=(1.0, 1.6, 0.3))
    fb, latency = cs.render_composite(cam, 256, 256)
    fb.save_ppm(OUTPUT / "distribution_composite.ppm")
    print(f"depth-composited frame: coverage {fb.coverage():.0%}, "
          f"latency {latency * 1000:.1f} ms (slowest share + transfers)")

    print("\n-- console user logs onto a render machine -------------------")
    victim = max((s for s in cs.render_services if cs.share_of(s)),
                 key=lambda s: s.committed_polygons())
    print(f"{victim.name} frame rate collapses "
          f"(was committed {victim.committed_polygons():,.0f} polygons)")
    engine = RuleEngine()
    t0 = tb.clock.now
    for i in range(10):
        engine.observe(victim.name, t0 + i * 0.5, {
            "rave_rs_fps": 1.5,
            "rave_rs_utilisation": victim.utilisation()})
    actions = cs.rebalance(engine.firing())
    for action in actions:
        print(f"  migrated {action.polygons:,} polygons "
              f"({len(action.node_ids)} nodes) "
              f"{action.source} -> {action.destination} [{action.reason}]")
    assert any(a.source == victim.name and a.reason == ALERT_OVERLOAD
               and a.polygons > 0 for a in actions), \
        f"the sustained overload moved no work off {victim.name}"
    fb2, latency2 = cs.render_composite(cam, 256, 256)
    fb2.save_ppm(OUTPUT / "distribution_after_migration.ppm")
    print(f"post-migration frame: coverage {fb2.coverage():.0%}, "
          f"latency {latency2 * 1000:.1f} ms")

    print("\n-- framebuffer (tile) distribution ---------------------------")
    fb3, plan, latency3 = cs.render_tiled(cam, 256, 256)
    fb3.save_ppm(OUTPUT / "distribution_tiled.ppm")
    widths = {a.service_name: a.tile.width for a in plan.assignments}
    print(f"tile widths (capacity-proportional): {widths}")
    print(f"tiled frame: latency {latency3 * 1000:.1f} ms")


if __name__ == "__main__":
    main()
