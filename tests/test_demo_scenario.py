"""The SC2004 demo-day soak test.

"We will demonstrate RAVE at SC2004, utilising available heterogeneous
resources."  One long scripted scenario exercising everything together,
in the order a live demo would: discovery → import → collaboration →
interaction → distribution → degradation → migration → failover →
recording → next-day replay.  Every stage asserts its observable outcome.
"""

import pytest

from repro.collab.avatar import AvatarManager
from repro.collab.interaction import InteractionController
from repro.compression import AdaptiveCodec, BandwidthEstimator
from repro.core.session import CollaborativeSession
from repro.data.generators import skeletal_hand
from repro.scenegraph.nodes import CameraNode, MeshNode
from repro.scenegraph.tree import SceneTree
from repro.services.container import ServiceContainer
from repro.services.data_service import DataService
from repro.testbed import build_testbed
from tests.conftest import load_alerts


@pytest.fixture(scope="module")
def demo_day():
    """Run the whole scripted demo once; stages assert against the log."""
    tb = build_testbed()
    log: dict = {"tb": tb}

    # --- stage 1: UDDI discovery --------------------------------------------
    uddi = tb.uddi_client("centrino")
    scan = uddi.full_bootstrap("RAVE project", "RaveRenderService")
    log["discovered"] = len(scan.access_points)

    # --- stage 2: import the hand dataset ------------------------------------
    tree = SceneTree("sc2004")
    tree.add(MeshNode(skeletal_hand(40_000).normalized(), name="hand"))
    tb.publish_tree("sc2004", tree)
    tb.data_service.enable_autosave(
        "sc2004", "/tmp/rave-demo-checkpoint.rave", every_n_updates=5)

    # --- stage 3: three users join -------------------------------------------
    avatars = AvatarManager(tb.data_service, "sc2004")
    wall = tb.active_client("wall-presenter", "onyx")
    desk = tb.active_client("desk-user", "athlon")
    wall.join(tb.data_service, "sc2004")
    desk.join(tb.data_service, "sc2004")
    avatars.join("wall-presenter", "onyx", wall.camera)
    avatars.join("desk-user", "athlon", desk.camera)

    rs = tb.render_service("centrino")
    rsession, _ = rs.create_render_session(tb.data_service, "sc2004")
    pda = tb.thin_client("pda-visitor")
    pda.attach(rs, rsession.render_session_id)
    pda.move_camera(position=(0.4, 2.2, 1.0))
    log["collaborators"] = avatars.collaborators()

    # --- stage 4: the presenter interacts --------------------------------------
    ctl = InteractionController(
        wall.tree, user="wall-presenter",
        publish=lambda u: tb.data_service.publish_update("sc2004", u))
    wall.camera.look(position=(0.0, 2.6, 0.8))
    hit = ctl.click(wall.camera, 100, 100, 200, 200)
    log["clicked"] = hit.name if hit else None
    log["hand_id"] = hit.node_id if hit else None
    if hit is not None:
        ctl.rename("hand-annotated")
        ctl.recolor((0.9, 0.8, 0.3))
    log["desk_sees_rename"] = bool(
        desk.tree.find_by_name("hand-annotated"))

    # --- stage 5: the PDA visitor walks away, codec adapts ----------------------
    estimator = BandwidthEstimator(initial_bps=4.8e6)
    codec = AdaptiveCodec(estimator, latency_budget=0.3)
    latencies = []
    for quality in (1.0, 0.4, 0.12):
        tb.wireless.set_signal_quality("zaurus", quality)
        estimator.bps = 4.8e6 * quality
        frame, timing = pda.request_frame(200, 200, codec=codec)
        latencies.append(timing.total_latency)
    tb.wireless.set_signal_quality("zaurus", 1.0)
    log["walkaway_latencies"] = latencies
    log["codecs_used"] = [c.codec_name for c in codec.choices]

    # --- stage 6: distribution + migration ---------------------------------------
    cs = CollaborativeSession(tb.data_service, "sc2004",
                              target_fps=1200,
                              recruiter=tb.recruiter())
    placement = cs.place_dataset()
    log["placement_mode"] = placement.mode
    cam = CameraNode(position=(0.4, 2.2, 1.0))
    fb, latency = cs.render_composite(cam, 96, 96)
    log["composite_coverage"] = fb.coverage()

    victim = max((s for s in cs.render_services if cs.share_of(s)),
                 key=lambda s: s.committed_polygons())
    alerts = load_alerts(victim, fps=1.0, start=tb.clock.now, step=0.5)
    before = victim.committed_polygons()
    actions = cs.rebalance(alerts)
    log["migrated"] = bool(actions)
    log["victim_relieved"] = victim.committed_polygons() < before
    fb2, _ = cs.render_composite(cam, 96, 96)
    log["post_migration_coverage"] = fb2.coverage()

    # --- stage 7: failover ----------------------------------------------------------
    from repro.scenegraph.updates import SetProperty

    mirror_container = ServiceContainer("athlon", tb.network,
                                        http_port=9700)
    mirror = DataService("demo-mirror", mirror_container)
    tb.data_service.add_mirror(mirror)
    # stage 6's distribution exploded the hand into a group of pieces; the
    # replacement group keeps the original node id, so address it by id
    tb.data_service.publish_update(
        "sc2004", SetProperty(node_id=log["hand_id"],
                              field_name="name", value="hand-final"))
    backup = tb.data_service.failover_to("sc2004")
    log["failover_ok"] = bool(
        backup.session("sc2004").tree.find_by_name("hand-final"))

    # --- stage 8: record + replay tomorrow --------------------------------------------
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "demo.rave"
        tb.data_service.save_session("sc2004", path)
        tomorrow = tb.data_service.load_session("sc2004-replay", path)
        log["replay_updates"] = len(tomorrow.trail)
        log["replay_has_final_name"] = bool(
            tomorrow.tree.find_by_name("hand-final"))
    return log


class TestDemoDay:
    def test_discovery_found_all_services(self, demo_day):
        assert demo_day["discovered"] == 5

    def test_collaborators_visible(self, demo_day):
        users = {c.user for c in demo_day["collaborators"]}
        assert users == {"wall-presenter", "desk-user"}

    def test_interaction_propagated(self, demo_day):
        assert demo_day["clicked"] == "hand"
        assert demo_day["desk_sees_rename"]

    def test_codec_adapted_during_walkaway(self, demo_day):
        assert demo_day["codecs_used"][0] == "raw"
        assert demo_day["codecs_used"][-1] != "raw"
        # worst-case latency stays within ~2x of the budget
        assert max(demo_day["walkaway_latencies"]) < 0.7

    def test_dataset_distributed(self, demo_day):
        assert demo_day["placement_mode"] == "dataset-distributed"
        assert demo_day["composite_coverage"] > 0.02

    def test_migration_relieved_the_overload(self, demo_day):
        assert demo_day["migrated"]
        assert demo_day["victim_relieved"]
        assert demo_day["post_migration_coverage"] == pytest.approx(
            demo_day["composite_coverage"], abs=0.02)

    def test_failover_preserved_state(self, demo_day):
        assert demo_day["failover_ok"]

    def test_replay_tomorrow(self, demo_day):
        assert demo_day["replay_updates"] >= 3
        assert demo_day["replay_has_final_name"]
