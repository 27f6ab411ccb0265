"""End-to-end scenarios across the whole stack.

Each test walks one of the paper's demonstrated workflows over the full
simulated testbed: discovery → bootstrap → collaboration → distribution →
migration → fail-over.
"""

import numpy as np
import pytest

from repro.compression import AdaptiveCodec, BandwidthEstimator
from repro.core.session import CollaborativeSession
from repro.data.generators import galleon, skeletal_hand
from repro.scenegraph.nodes import MeshNode
from repro.scenegraph.tree import SceneTree
from tests.conftest import load_alerts


class TestTestbedConstruction:
    def test_default_topology(self, testbed):
        assert set(testbed.render_services) == {
            "onyx", "v880z", "centrino", "xeon", "athlon"}
        assert testbed.data_service.host == "xeon"
        # every wired pair routable, PDA reachable over wireless
        assert testbed.network.transfer_time("onyx", "centrino", 1000) > 0
        assert testbed.network.transfer_time("xeon", "zaurus", 1000) > 0

    def test_registry_prepopulated(self, testbed):
        from repro.core.recruitment import RAVE_BUSINESS, RENDER_TMODEL

        business = testbed.registry.find_business(RAVE_BUSINESS)
        tm = testbed.registry.find_tmodel(RENDER_TMODEL)
        services = testbed.registry.find_services(business.business_key,
                                                  tm.key)
        assert len(services) == 5

    def test_unknown_host_rejected(self):
        from repro.errors import ServiceError
        from repro.testbed import build_testbed

        with pytest.raises(ServiceError):
            build_testbed(render_hosts=("cray",))

    def test_quickstart_path(self, testbed):
        """The README quickstart, verbatim."""
        testbed.publish_model("demo", galleon().normalized())
        rs = testbed.render_service("centrino")
        rsession, boot = rs.create_render_session(testbed.data_service,
                                                  "demo")
        client = testbed.thin_client("viewer")
        client.attach(rs, rsession.render_session_id)
        client.move_camera(position=(2.2, 1.4, 1.2))
        frame, timing = client.request_frame(200, 200)
        assert frame.coverage() > 0.02
        assert 1.0 < timing.fps < 10.0


class TestFigure3Collaboration:
    """Two users, one dataset, avatars visible to each other."""

    def test_two_user_session(self, testbed):
        testbed.publish_model("hand", skeletal_hand(8000).normalized())
        alice = testbed.active_client("alice", "athlon")
        bob = testbed.active_client("bob", "centrino")
        alice.join(testbed.data_service, "hand")
        bob.join(testbed.data_service, "hand")
        a_avatar = alice.announce_avatar()
        b_avatar = bob.announce_avatar()

        # bob navigates; alice's copy tracks him
        bob.move(position=(0.0, 2.5, 1.0))
        assert np.allclose(alice.tree.node(b_avatar).position,
                           [0.0, 2.5, 1.0])

        # alice renders and sees bob's cone (but, excluding herself,
        # only one avatar besides the data)
        alice.camera.look(position=(2.0, -2.0, 1.0))
        fb, _ = alice.render(96, 96)
        assert fb.coverage() > 0.01
        avatars = [n for n in alice.tree
                   if n.TYPE == "avatar"]
        assert {a.user for a in avatars} == {"alice", "bob"}
        assert a_avatar != b_avatar

    def test_thin_client_joins_big_display_session(self, testbed):
        """The paper's PDA-meets-Immersadesk story: a hand-held interacts
        with a user on a large immersive display."""
        testbed.publish_model("hand", skeletal_hand(8000).normalized())
        wall_user = testbed.active_client("wall", "onyx")
        wall_user.join(testbed.data_service, "hand")
        wall_user.announce_avatar()

        rs = testbed.render_service("centrino")
        rsession, _ = rs.create_render_session(testbed.data_service, "hand")
        pda = testbed.thin_client("pda-user")
        pda.attach(rs, rsession.render_session_id)
        pda.move_camera(position=(1.5, 1.5, 1.0))
        frame, timing = pda.request_frame(200, 200)
        # the wall user's avatar is in the render service's scene copy
        users = {n.user for n in rsession.tree if n.TYPE == "avatar"}
        assert "wall" in users
        assert timing.fps > 0.5


class TestAsynchronousCollaboration:
    def test_record_then_append_later(self, testbed, tmp_path):
        """§3.1.1: a user appends to a recorded session."""
        from repro.scenegraph.updates import AddNode, SetProperty
        from repro.scenegraph.nodes import AvatarNode

        testbed.publish_model("rec", galleon().normalized())
        ship_id = testbed.data_service.session("rec").tree.find_by_name(
            "galleon")[0].node_id
        testbed.data_service.publish_update("rec", SetProperty(
            node_id=ship_id, field_name="name", value="renamed-day1"))
        path = tmp_path / "day1.rave"
        testbed.data_service.save_session("rec", path)

        # day 2: a different data service resumes the session
        day2 = testbed.data_service.load_session("rec-day2", path)
        assert day2.tree.node(ship_id).name == "renamed-day1"
        testbed.data_service.publish_update("rec-day2", AddNode.of(
            AvatarNode("late-user"), parent_id=0,
            node_id=max(n.node_id for n in day2.tree) + 1))
        assert any(n.TYPE == "avatar" for n in day2.tree)


class TestWorkloadDistributionEndToEnd:
    def test_overwhelming_dataset_spreads_and_renders(self, testbed):
        tree = SceneTree("big")
        tree.add(MeshNode(skeletal_hand(30_000).normalized(), name="hand"))
        testbed.publish_tree("big", tree)
        cs = CollaborativeSession(testbed.data_service, "big",
                                  target_fps=2000,   # forces distribution
                                  recruiter=testbed.recruiter())
        placement = cs.place_dataset()
        assert placement.mode == "dataset-distributed"
        holders = [s for s in cs.render_services if cs.share_of(s)]
        assert len(holders) >= 2

        from repro.scenegraph.nodes import CameraNode

        fb, latency = cs.render_composite(
            CameraNode(position=(0.4, 2.2, 1.0)), 96, 96)
        assert fb.coverage() > 0.02
        assert latency > 0

    def test_migration_after_console_user_returns(self, testbed):
        """§6: 'we can stop using a machine once it becomes loaded by ...
        a local user logging on'."""
        tree = SceneTree("mig")
        tree.add(MeshNode(skeletal_hand(20_000).normalized(), name="hand"))
        testbed.publish_tree("mig", tree)
        cs = CollaborativeSession(testbed.data_service, "mig",
                                  target_fps=1500,
                                  recruiter=testbed.recruiter())
        cs.place_dataset()
        holders = [s for s in cs.render_services if cs.share_of(s)]
        victim = holders[0]
        committed_before = victim.committed_polygons()
        # the console user logs in: the service's frame rate collapses
        actions = cs.rebalance(load_alerts(
            victim, fps=1.0, samples=10, start=testbed.clock.now, step=0.4))
        moved = [a for a in actions if a.source == victim.name]
        assert moved, "overloaded service should shed work"
        assert victim.committed_polygons() < committed_before
        receiver_names = {a.destination for a in moved}
        assert any(s.name in receiver_names and s.committed_polygons() > 0
                   for s in cs.render_services)


class TestFailover:
    def test_mirrored_data_service_takes_over(self, testbed):
        from repro.services.container import ServiceContainer
        from repro.services.data_service import DataService

        testbed.publish_model("ha", galleon().normalized())
        mirror_container = ServiceContainer("athlon", testbed.network,
                                            http_port=9290)
        mirror = DataService("rave-mirror", mirror_container)
        testbed.data_service.add_mirror(mirror)

        # updates replicate
        from repro.scenegraph.updates import SetProperty

        ship_id = testbed.data_service.session("ha").tree.find_by_name(
            "galleon")[0].node_id
        testbed.data_service.publish_update("ha", SetProperty(
            node_id=ship_id, field_name="name", value="after-update"))

        # primary's host drops off the network; a render service
        # bootstraps from the mirror instead
        backup = testbed.data_service.failover_to("ha")
        rs = testbed.render_service("centrino")
        session, timing = rs.create_render_session(backup, "ha")
        assert session.tree.node(ship_id).name == "after-update"


class TestAdaptiveStreamingEndToEnd:
    def test_quality_degradation_keeps_frames_flowing(self, testbed):
        """Future-work §6 implemented: codec adapts as the PDA user walks
        away from the access point."""
        testbed.publish_model("walk", galleon().normalized())
        rs = testbed.render_service("centrino")
        rsession, _ = rs.create_render_session(testbed.data_service, "walk")
        client = testbed.thin_client("walker")
        client.attach(rs, rsession.render_session_id)
        client.move_camera(position=(2.2, 1.4, 1.2))

        estimator = BandwidthEstimator(initial_bps=4.8e6)
        codec = AdaptiveCodec(estimator, latency_budget=0.25)
        latencies = []
        background = np.array([12, 12, 24], dtype=np.uint8)
        for quality in (1.0, 0.5, 0.2, 0.1):
            testbed.wireless.set_signal_quality("zaurus", quality)
            fb, timing = client.request_frame(200, 200, codec=codec)
            estimator.observe(timing.nbytes, timing.image_receipt_seconds)
            latencies.append(timing.total_latency)
            # decoded thin-client frames carry color only (no depth), so
            # judge coverage by non-background pixels
            drawn = (fb.color != background).any(axis=2).mean()
            assert drawn > 0.02
        # adaptation keeps the worst-case latency bounded far below the
        # raw-transfer cost at 10% signal (~2.2 s)
        assert latencies[-1] < 1.5
        assert codec.choices[-1].codec_name != "raw"
