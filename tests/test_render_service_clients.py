"""Render services, thin clients and active render clients."""

import numpy as np
import pytest

from repro.data.generators import galleon
from repro.errors import ServiceError, SessionError
from repro.core.session import CollaborativeSession
from repro.render.framebuffer import split_tiles
from repro.scenegraph.nodes import (
    AvatarNode,
    CameraNode,
    MeshNode,
    PointCloudNode,
)
from repro.scenegraph.tree import SceneTree
from repro.scenegraph.updates import SetProperty


@pytest.fixture
def demo(small_testbed):
    tree = SceneTree("demo")
    tree.add(MeshNode(galleon().normalized(), name="ship"))
    small_testbed.publish_tree("demo", tree)
    return small_testbed


@pytest.fixture
def mixed(small_testbed):
    """Every primitive the tile scissor touches: a mesh, a point cloud in
    front of it and a collaborator's avatar cone."""
    rng = np.random.default_rng(11)
    tree = SceneTree("mixed")
    tree.add(MeshNode(galleon().normalized(), name="ship"))
    tree.add(PointCloudNode(rng.normal(0, 0.5, (400, 3)),
                            colors=rng.random((400, 3)), point_size=3,
                            name="spray"))
    tree.add(AvatarNode("ann", position=(0.9, 0.6, 0.5),
                        view_direction=(-1.0, -0.6, -0.4)))
    small_testbed.publish_tree("mixed", tree)
    return small_testbed


class TestRenderServiceBootstrap:
    def test_bootstrap_timing_components(self, demo):
        rs = demo.render_service("centrino")
        before = demo.clock.now
        session, timing = rs.create_render_session(demo.data_service,
                                                   "demo")
        assert timing.instance_seconds > 5      # Axis/Java3D startup
        assert timing.marshal_seconds > 0
        assert timing.transfer_seconds > 0
        assert demo.clock.now - before == pytest.approx(
            timing.total_seconds, abs=1e-6)

    def test_shared_scene_copy(self, demo):
        """Second user of the same session: no second transfer."""
        rs = demo.render_service("centrino")
        s1, t1 = rs.create_render_session(demo.data_service, "demo")
        s2, t2 = rs.create_render_session(demo.data_service, "demo")
        assert s1.tree is s2.tree               # single stored copy
        assert t2.nbytes == 0
        assert t2.marshal_seconds == 0.0

    def test_scene_copy_released_with_last_session(self, demo):
        rs = demo.render_service("centrino")
        s1, _ = rs.create_render_session(demo.data_service, "demo")
        s2, _ = rs.create_render_session(demo.data_service, "demo")
        rs.close_render_session(s1.render_session_id)
        assert rs._scene_cache                  # still one user
        rs.close_render_session(s2.render_session_id)
        assert not rs._scene_cache

    def test_updates_keep_copy_in_sync(self, demo):
        rs = demo.render_service("centrino")
        session, _ = rs.create_render_session(demo.data_service, "demo")
        ship_id = session.tree.find_by_name("ship")[0].node_id
        demo.data_service.publish_update("demo", SetProperty(
            node_id=ship_id, field_name="name", value="renamed"))
        assert session.tree.node(ship_id).name == "renamed"

    def test_unknown_render_session(self, demo):
        rs = demo.render_service("centrino")
        with pytest.raises(SessionError):
            rs.render_session("nope")

    def test_thin_host_cannot_host_service(self, demo):
        from repro.services.container import ServiceContainer
        from repro.services.render_service import RenderService

        container = ServiceContainer("zaurus", demo.network,
                                     profile="zaurus", http_port=9191)
        with pytest.raises(ServiceError):
            RenderService("rs-pda", container)


class TestRendering:
    def test_render_view(self, demo):
        rs = demo.render_service("centrino")
        session, _ = rs.create_render_session(demo.data_service, "demo")
        cam = demo.thin_client("viewer").camera
        cam.look(position=(2.2, 1.4, 1.2))
        fb, timing = rs.render_view(session.render_session_id, cam, 96, 96)
        assert fb.coverage() > 0.02
        assert timing.mode == "offscreen"

    def test_render_advances_clock(self, demo):
        rs = demo.render_service("centrino")
        session, _ = rs.create_render_session(demo.data_service, "demo")
        cam = demo.thin_client("v").camera
        before = demo.clock.now
        _, timing = rs.render_view(session.render_session_id, cam, 64, 64)
        assert demo.clock.now == pytest.approx(
            before + timing.total_seconds)

    def test_render_tile_matches_full_view(self, mixed):
        """Mesh + point cloud + avatar: every scissored tile of a 3x2 split
        is the matching rectangle of the full view, colour and depth."""
        rs = mixed.render_service("centrino")
        session, _ = rs.create_render_session(mixed.data_service, "mixed")
        cam = mixed.thin_client("v").camera
        cam.look(position=(2.2, 1.4, 1.2))
        rsid = session.render_session_id
        full, _ = rs.render_view(rsid, cam, 96, 80)
        assert len({tuple(c) for c in full.color.reshape(-1, 3)}) > 50
        for tile in split_tiles(96, 80, 3, 2):
            part, timing = rs.render_tile(rsid, cam, tile, 96, 80)
            want = full.extract(tile)
            assert part.color.tobytes() == want.color.tobytes()
            assert part.depth.tobytes() == want.depth.tobytes()
            # the model bills full geometry and the tile's share of fill
            assert timing == rs.engine.timing(
                session.assigned_polygons(), tile.pixels, offscreen=True)

    def test_render_tiled_equals_one_render_view(self, mixed):
        cs = CollaborativeSession(mixed.data_service, "mixed")
        for host in ("centrino", "athlon"):
            cs.connect(mixed.render_service(host))
        cam = CameraNode(position=(2.2, 1.4, 1.2))
        tiled, plan, _ = cs.render_tiled(cam, 96, 80)
        assert len(plan.assignments) == 2
        reference = mixed.render_service("centrino")
        whole, _ = reference.render_view(
            cs.attachment(reference).render_session_id, cam, 96, 80)
        assert tiled.color.tobytes() == whole.color.tobytes()
        assert tiled.depth.tobytes() == whole.depth.tobytes()

    def test_subset_rendering_draws_only_share(self, demo):
        rs = demo.render_service("centrino")
        full_session, _ = rs.create_render_session(demo.data_service,
                                                   "demo")
        ship_id = full_session.tree.find_by_name("ship")[0].node_id
        # a second session restricted to an empty share
        session2, _ = rs.create_render_session(demo.data_service, "demo")
        session2.assigned_ids = set()
        assert session2.assigned_polygons() == 0
        assert full_session.assigned_polygons() > 0

    def test_fps_reporting(self, demo):
        rs = demo.render_service("centrino")
        session, _ = rs.create_render_session(demo.data_service, "demo")
        cam = demo.thin_client("v").camera
        assert rs.reported_fps == float("inf")
        rs.render_view(session.render_session_id, cam, 64, 64)
        assert np.isfinite(rs.reported_fps)

    def test_utilisation_tracks_commitment(self, demo):
        rs = demo.render_service("centrino")
        assert rs.utilisation() == 0.0
        rs.create_render_session(demo.data_service, "demo")
        assert rs.utilisation() > 0.0


class TestThinClient:
    def attach(self, demo, blit="cpp"):
        rs = demo.render_service("centrino")
        session, _ = rs.create_render_session(demo.data_service, "demo")
        client = demo.thin_client("pda-user", blit_path=blit)
        client.attach(rs, session.render_session_id)
        client.move_camera(position=(2.2, 1.4, 1.2))
        return client

    def test_frame_timing_decomposes(self, demo):
        client = self.attach(demo)
        fb, t = client.request_frame(200, 200)
        assert t.total_latency == pytest.approx(
            t.render_seconds + t.image_receipt_seconds
            + t.overhead_seconds)
        assert t.fps == pytest.approx(1 / t.total_latency)
        assert t.nbytes == 120_000

    def test_receipt_dominated_by_wireless(self, demo):
        """Paper: ~0.2 s for a 120 kB frame on 11 Mbit wireless."""
        client = self.attach(demo)
        _, t = client.request_frame(200, 200)
        assert 0.17 < t.image_receipt_seconds < 0.27

    def test_j2me_blit_catastrophic(self, demo):
        """'Over two minutes to send a single frame' with J2ME."""
        fast = self.attach(demo)
        _, t_cpp = fast.request_frame(200, 200)
        slow = self.attach_second(demo, "j2me")
        _, t_j2me = slow.request_frame(200, 200)
        assert t_j2me.overhead_seconds > 100.0       # minutes, not ms
        assert t_cpp.overhead_seconds < 0.1

    def attach_second(self, demo, blit):
        rs = demo.render_service("centrino")
        session, _ = rs.create_render_session(demo.data_service, "demo")
        client = demo.thin_client("pda2", blit_path=blit)
        client.attach(rs, session.render_session_id)
        client.move_camera(position=(2.2, 1.4, 1.2))
        return client

    def test_unattached_request_rejected(self, demo):
        client = demo.thin_client("lonely")
        with pytest.raises(ServiceError):
            client.request_frame()

    def test_degraded_signal_slows_receipt(self, demo):
        client = self.attach(demo)
        _, good = client.request_frame(200, 200)
        demo.wireless.set_signal_quality("zaurus", 0.4)
        _, bad = client.request_frame(200, 200)
        assert bad.image_receipt_seconds > 2 * good.image_receipt_seconds

    def test_compressed_frames_cheaper_on_bad_link(self, demo):
        from repro.compression import RleCodec

        client = self.attach(demo)
        demo.wireless.set_signal_quality("zaurus", 0.3)
        _, raw = client.request_frame(200, 200)
        _, packed = client.request_frame(200, 200, codec=RleCodec())
        assert packed.nbytes < raw.nbytes
        assert packed.image_receipt_seconds < raw.image_receipt_seconds

    def test_camera_publication(self, demo):
        from repro.scenegraph.nodes import CameraNode
        from repro.scenegraph.updates import AddNode

        client = self.attach(demo)
        master = demo.data_service.session("demo").tree
        cam_id = max(n.node_id for n in master) + 1
        # camera joins through the update protocol so every subscriber's
        # copy gains it too
        demo.data_service.publish_update("demo", AddNode.of(
            CameraNode(name="client-cam"), parent_id=0, node_id=cam_id))
        client.move_camera(position=(1.0, 2.0, 3.0))
        client.publish_camera(demo.data_service, "demo", cam_id)
        assert np.allclose(master.node(cam_id).position, [1, 2, 3])


class TestActiveRenderClient:
    def test_join_and_render(self, demo):
        client = demo.active_client("desktop-user", "athlon")
        timing = client.join(demo.data_service, "demo")
        assert timing.total_seconds > 0
        assert timing.instance_seconds == 0.0    # no container!
        client.camera.look(position=(2.2, 1.4, 1.2))
        fb, seconds = client.render(96, 96)
        assert fb.coverage() > 0.02
        assert seconds > 0

    def test_avatar_announcement_propagates(self, demo):
        a = demo.active_client("alice", "athlon")
        b = demo.active_client("bob", "centrino")
        a.join(demo.data_service, "demo")
        b.join(demo.data_service, "demo")
        avatar_id = a.announce_avatar()
        # bob's local copy sees alice's avatar
        assert avatar_id in b.tree
        assert b.tree.node(avatar_id).user == "alice"

    def test_move_updates_collaborators(self, demo):
        a = demo.active_client("alice", "athlon")
        b = demo.active_client("bob", "centrino")
        a.join(demo.data_service, "demo")
        b.join(demo.data_service, "demo")
        aid = a.announce_avatar()
        a.move(position=(5.0, 5.0, 5.0))
        assert np.allclose(b.tree.node(aid).position, [5, 5, 5])

    def test_render_before_join_rejected(self, demo):
        client = demo.active_client("early", "athlon")
        with pytest.raises(ServiceError):
            client.render(32, 32)

    def test_thin_host_rejected(self, demo):
        with pytest.raises(ServiceError):
            demo.active_client("pda-render", "zaurus")
