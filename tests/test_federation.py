"""Data-service federation: sharding, parallel bootstrap, routed updates."""

import numpy as np
import pytest

from repro.data.generators import galleon, skeleton
from repro.errors import NetworkError, SessionError
from repro.scenegraph.nodes import MeshNode
from repro.scenegraph.tree import SceneTree
from repro.scenegraph.updates import SetProperty
from repro.services.container import ServiceContainer
from repro.services.data_service import DataService
from repro.services.federation import DataFederation


@pytest.fixture
def fed(testbed):
    members = [testbed.data_service]
    for i, host in enumerate(("athlon", "onyx")):
        container = ServiceContainer(host, testbed.network,
                                     http_port=9400 + i)
        members.append(DataService(f"rave-data-{host}", container))
    return testbed, DataFederation("rave-fed", members)


def sharded_scene(n_pieces=6, size=4000):
    tree = SceneTree("sharded")
    for i in range(n_pieces):
        tree.add(MeshNode(skeleton(size).normalized(), name=f"part{i}"))
    return tree


class TestSharding:
    def test_create_session_spreads_geometry(self, fed):
        tb, federation = fed
        tree = sharded_scene()
        session = federation.create_session("big", tree)
        assert len(session.shards) == 3
        all_ids = set()
        for shard in session.shards:
            assert shard.node_ids
            assert not (shard.node_ids & all_ids)  # disjoint
            all_ids |= shard.node_ids
        geo_ids = {n.node_id for n in tree.geometry_nodes()}
        assert all_ids == geo_ids

    def test_shards_balanced_by_payload(self, fed):
        tb, federation = fed
        session = federation.create_session("bal", sharded_scene(9))
        loads = []
        for shard in session.shards:
            member_tree = shard.member.session(
                shard.shard_session_id).tree
            loads.append(member_tree.total_payload_bytes())
        assert max(loads) < 2.0 * min(loads)

    def test_empty_scene_rejected(self, fed):
        _, federation = fed
        with pytest.raises(SessionError):
            federation.create_session("empty", SceneTree())

    def test_duplicate_session_rejected(self, fed):
        _, federation = fed
        federation.create_session("dup", sharded_scene(3))
        with pytest.raises(SessionError):
            federation.create_session("dup", sharded_scene(3))

    def test_single_member_federation(self, testbed):
        federation = DataFederation("solo", [testbed.data_service])
        session = federation.create_session("solo-session",
                                            sharded_scene(3))
        assert len(session.shards) == 1

    def test_duplicate_members_rejected(self, testbed):
        with pytest.raises(SessionError):
            DataFederation("bad", [testbed.data_service,
                                   testbed.data_service])


class TestParallelBootstrap:
    def test_merged_tree_complete(self, fed):
        tb, federation = fed
        tree = sharded_scene()
        federation.create_session("boot", tree)
        merged, timing = federation.subscribe("boot", "sub", "centrino")
        assert merged.total_polygons() == tree.total_polygons()
        assert timing.nbytes > 0

    def test_merged_world_transforms_preserved(self, fed):
        from repro.scenegraph.nodes import TransformNode

        tb, federation = fed
        tree = SceneTree("xf")
        xf = tree.add(TransformNode.from_translation((3.0, 0, 0)))
        tree.add(MeshNode(galleon().normalized(), name="moved"), parent=xf)
        tree.add(MeshNode(galleon().normalized(), name="still"))
        federation.create_session("xf", tree)
        merged, _ = federation.subscribe("xf", "sub", "centrino")
        moved = merged.find_by_name("moved")[0]
        w = merged.world_transform(moved)
        assert np.allclose(w[:3, 3], [3, 0, 0])

    def test_parallel_faster_than_serial(self, fed, testbed):
        """The federation's purpose: bootstrap time = slowest shard, not
        the sum — sharding alleviates the marshalling bottleneck."""
        tb, federation = fed
        tree = sharded_scene(6, size=8000)
        federation.create_session("par", tree)

        # single-service baseline for the whole scene
        clone = SceneTree.from_wire(tree.to_wire())
        tb.data_service.create_session("serial", clone, charge_time=False)
        t0 = tb.clock.now
        tb.data_service.subscribe("serial", "serial-sub", "centrino")
        serial_seconds = tb.clock.now - t0

        t0 = tb.clock.now
        federation.subscribe("par", "par-sub", "centrino")
        parallel_seconds = tb.clock.now - t0
        assert parallel_seconds < 0.6 * serial_seconds

    def test_clock_restored_on_error(self, fed):
        tb, federation = fed
        federation.create_session("err", sharded_scene(3))
        real_clock = tb.network.sim.clock
        federation.subscribe("err", "ok", "centrino")
        with pytest.raises(SessionError):
            federation.subscribe("err", "ok", "centrino")  # duplicate name
        assert tb.network.sim.clock is real_clock

    def test_partial_failure_rolls_back_joined_shards(self, fed):
        """Shard k failing must not leave shards 0..k-1 subscribed, or a
        retry under the same name is refused forever."""
        tb, federation = fed
        session = federation.create_session("p", sharded_scene(3))
        last_host = session.shards[-1].member.host
        t0 = tb.clock.now
        tb.network.set_host_up(last_host, False)
        with pytest.raises(NetworkError):
            federation.subscribe("p", "sub", "centrino")
        assert tb.clock.now == t0
        for shard in session.shards:
            assert "sub" not in shard.member.session(
                shard.shard_session_id).subscribers
        tb.network.set_host_up(last_host, True)
        merged, _ = federation.subscribe("p", "sub", "centrino")
        assert len(merged.geometry_nodes()) == 3
        # a refused duplicate rolls back nothing it did not join itself
        with pytest.raises(SessionError):
            federation.subscribe("p", "sub", "centrino")
        for shard in session.shards:
            assert "sub" in shard.member.session(
                shard.shard_session_id).subscribers


class TestRoutedUpdates:
    def test_update_reaches_owning_shard(self, fed):
        tb, federation = fed
        tree = sharded_scene(4)
        session = federation.create_session("route", tree)
        target = tree.geometry_nodes()[0]
        shard = session.shard_for(target.node_id)
        federation.publish_update("route", SetProperty(
            node_id=target.node_id, field_name="name", value="renamed"))
        shard_tree = shard.member.session(shard.shard_session_id).tree
        assert shard_tree.node(target.node_id).name == "renamed"

    def test_update_to_unknown_node_rejected(self, fed):
        _, federation = fed
        federation.create_session("route2", sharded_scene(2))
        with pytest.raises(SessionError):
            federation.publish_update("route2", SetProperty(
                node_id=999_999, field_name="name", value="x"))

    def test_subscribers_of_shard_notified(self, fed):
        tb, federation = fed
        tree = sharded_scene(4)
        session = federation.create_session("notify", tree)
        got = []
        federation.subscribe("notify", "watcher", "centrino",
                             on_update=got.append)
        target = tree.geometry_nodes()[0]
        federation.publish_update("notify", SetProperty(
            node_id=target.node_id, field_name="name", value="seen"))
        assert len(got) == 1
