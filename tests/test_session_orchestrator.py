"""The CollaborativeSession orchestrator + migration over live services."""

import numpy as np
import pytest

from repro.core.session import CollaborativeSession
from repro.data.generators import skeleton
from repro.errors import SessionError
from repro.scenegraph.nodes import CameraNode, MeshNode
from repro.scenegraph.tree import SceneTree
from tests.conftest import load_alerts


def publish_big(tb, n=40_000, name="big"):
    tree = SceneTree(name)
    tree.add(MeshNode(skeleton(n).normalized(), name="skel"))
    tb.publish_tree(name, tree)
    return tree


@pytest.fixture
def cs(testbed):
    publish_big(testbed)
    return CollaborativeSession(testbed.data_service, "big",
                                recruiter=testbed.recruiter())


class TestMembership:
    def test_connect_bootstraps(self, testbed, cs):
        attachment = cs.connect(testbed.render_service("centrino"))
        assert attachment.bootstrap_seconds > 0
        assert len(cs.render_services) == 1

    def test_duplicate_connect_rejected(self, testbed, cs):
        cs.connect(testbed.render_service("centrino"))
        with pytest.raises(SessionError):
            cs.connect(testbed.render_service("centrino"))

    def test_disconnect(self, testbed, cs):
        rs = testbed.render_service("centrino")
        cs.connect(rs)
        cs.disconnect(rs)
        assert not cs.render_services

    def test_recruit_more_attaches_everyone(self, testbed, cs):
        attached = cs.recruit_more()
        assert len(attached) == 5      # all testbed render hosts
        assert len(cs.render_services) == 5


class TestPlacement:
    def test_single_placement_assigns_whole_scene(self, testbed, cs):
        rs = testbed.render_service("xeon")
        cs.connect(rs)
        placement = cs.place_dataset()
        assert placement.mode == "single"
        share = cs.share_of(rs)
        geo_ids = {n.node_id for n in cs.master_tree.geometry_nodes()}
        assert share == geo_ids

    def test_distributed_placement_splits_scene(self, testbed):
        publish_big(testbed, 60_000, name="huge")
        # interactive target so high that no single machine fits 60k: the
        # session must split across machines
        cs = CollaborativeSession(testbed.data_service, "huge",
                                  target_fps=1000,
                                  recruiter=testbed.recruiter())
        cs.recruit_more()
        placement = cs.place_dataset()
        assert placement.mode == "dataset-distributed"
        shares = [cs.share_of(s) for s in cs.render_services]
        total = sum(len(s) for s in shares)
        assert total > 0
        # no node assigned twice
        seen = set()
        for share in shares:
            assert not (share & seen)
            seen |= share

    def test_placement_recruits_when_pool_empty(self, testbed, cs):
        placement = cs.place_dataset()
        assert cs.render_services
        assert placement.assignments

    def test_composite_render_covers_scene(self, testbed, cs):
        cs.recruit_more()
        cs.place_dataset()
        cam = CameraNode(position=(2.2, 1.4, 1.2))
        fb, latency = cs.render_composite(cam, 96, 96)
        assert fb.coverage() > 0.02
        assert latency > 0

    def test_distributed_composite_equals_single(self, testbed):
        """Render the same scene via 1-service and n-service placements;
        images must match (the end-to-end distribution invariant)."""
        publish_big(testbed, 10_000, name="scene2")
        cam = CameraNode(position=(2.2, 1.4, 1.2))

        single = CollaborativeSession(testbed.data_service, "scene2")
        single.connect(testbed.render_service("xeon"))
        single.place_dataset()
        mono, _ = single.render_composite(cam, 96, 96)

        publish_big(testbed, 10_000, name="scene3")
        multi = CollaborativeSession(testbed.data_service, "scene3",
                                     target_fps=3000)  # forces a split
        for host in ("centrino", "athlon", "onyx"):
            multi.connect(testbed.render_service(host))
        placement = multi.place_dataset()
        assert placement.mode == "dataset-distributed"
        merged, _ = multi.render_composite(cam, 96, 96)

        assert np.array_equal(np.isfinite(merged.depth),
                              np.isfinite(mono.depth))
        assert merged.mean_abs_diff(mono) < 2.0

    def test_tiled_render(self, testbed, cs):
        cs.recruit_more()
        cs.place_dataset()
        cam = CameraNode(position=(2.2, 1.4, 1.2))
        fb, plan, latency = cs.render_tiled(cam, 100, 100)
        assert len(plan.assignments) == len(cs.render_services)
        assert fb.coverage() > 0.01

    def test_render_without_placement_rejected(self, testbed, cs):
        cs.connect(testbed.render_service("centrino"))
        with pytest.raises(SessionError):
            cs.render_composite(CameraNode(), 64, 64)

    @pytest.mark.parametrize("fps", [300, 600])
    def test_recruits_left_without_a_share_commit_nothing(self, testbed,
                                                          fps):
        """A UDDI recruit the plan gives no share joins idle: it neither
        commits the scene nor subscribes to every update."""
        publish_big(testbed, 120_000, name="skel")
        cs = CollaborativeSession(testbed.data_service, "skel",
                                  target_fps=fps,
                                  recruiter=testbed.recruiter())
        cs.connect(testbed.render_service("onyx"))
        placement = cs.place_dataset()
        assigned = {a.service.name for a in placement.assignments}
        idle = [s for s in placement.recruited if s.name not in assigned]
        assert idle
        tree = cs.master_tree
        for service in cs.render_services:
            assert service.committed_polygons() == sum(
                tree.node(n).n_polygons for n in cs.share_of(service))
            assert service.utilisation() <= 1.0
        subscribers = testbed.data_service.session("skel").subscribers
        for service in idle:
            assert not cs.share_of(service)
            assert all(sub.interests == set()
                       for name, sub in subscribers.items()
                       if name.startswith(f"{service.name}/"))

    @pytest.mark.parametrize("fps", [440, 450])
    def test_a_placement_the_scheduler_accepted_packs(self, testbed, fps):
        """Two assignees with little slack: halving the grain four times
        still strands a piece, the slack-sized grain packs."""
        publish_big(testbed, 120_000, name="skel")
        cs = CollaborativeSession(testbed.data_service, "skel",
                                  target_fps=fps,
                                  recruiter=testbed.recruiter())
        placement = cs.place_dataset()
        assert placement.mode == "dataset-distributed"
        placed = set().union(*(cs.share_of(s) for s in cs.render_services))
        assert placed == {n.node_id for n in cs.master_tree.geometry_nodes()}
        for service in cs.render_services:
            assert service.utilisation() <= 1.0


class TestReassignment:
    def test_reassign_moves_interest_and_session(self, testbed):
        publish_big(testbed, 30_000, name="move")
        cs = CollaborativeSession(testbed.data_service, "move",
                                  target_fps=1000,
                                  recruiter=testbed.recruiter())
        cs.recruit_more()
        cs.place_dataset()
        donors = [s for s in cs.render_services if cs.share_of(s)]
        src = donors[0]
        dst = next(s for s in cs.render_services if s is not src)
        moving = list(cs.share_of(src))[:1]
        before_dst = set(cs.share_of(dst))
        cs.reassign_nodes(src, dst, moving)
        assert moving[0] in cs.share_of(dst)
        assert moving[0] not in cs.share_of(src)
        assert cs.share_of(dst) == before_dst | set(moving)

    def test_reassign_requires_ownership(self, testbed):
        publish_big(testbed, 10_000, name="own")
        cs = CollaborativeSession(testbed.data_service, "own")
        a = testbed.render_service("centrino")
        b = testbed.render_service("athlon")
        cs.connect(a)
        cs.connect(b)
        with pytest.raises(SessionError):
            cs.reassign_nodes(a, b, [12345])


class TestLiveMigration:
    def test_overloaded_service_sheds_to_idle_peer(self, testbed):
        """End-to-end §3.2.7: sustained low fps on one service triggers a
        move onto an underused one."""
        publish_big(testbed, 50_000, name="hot")
        cs = CollaborativeSession(testbed.data_service, "hot",
                                  target_fps=1000,
                                  recruiter=testbed.recruiter())
        cs.recruit_more()
        cs.place_dataset()

        loaded = max(cs.render_services,
                     key=lambda s: len(cs.share_of(s)))
        alerts = load_alerts(loaded, fps=1.0, samples=5)
        before = len(cs.share_of(loaded))
        actions = cs.rebalance(alerts)
        shed = [a for a in actions if a.source == loaded.name]
        if shed:  # a receiver with headroom existed
            assert len(cs.share_of(loaded)) < before
