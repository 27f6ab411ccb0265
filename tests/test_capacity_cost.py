"""Capacity metrics and node/tile cost accounting."""

from dataclasses import fields

import numpy as np
import pytest

from repro.core.capacity import (
    DEFAULT_TARGET_FPS,
    RenderCapacity,
    capacity_from_profile,
)
from repro.core.cost import NodeCost, node_cost, subtree_cost, tile_cost, \
    tree_cost
from repro.data.volumes import visible_human_phantom
from repro.hardware.profiles import TESTBED, get_profile
from repro.render.framebuffer import Tile
from repro.scenegraph.nodes import (
    GroupNode,
    MeshNode,
    PointCloudNode,
    VolumeNode,
)


@pytest.fixture
def centrino_cap():
    return capacity_from_profile(get_profile("centrino"))


class TestRenderCapacity:
    def test_polygon_budget(self, centrino_cap):
        budget = centrino_cap.polygon_budget(target_fps=10.0)
        assert budget == pytest.approx(8.4e6 / 10)

    def test_budget_fps_inverse(self, centrino_cap):
        assert (centrino_cap.polygon_budget(30.0)
                < centrino_cap.polygon_budget(10.0))

    def test_invalid_fps(self, centrino_cap):
        with pytest.raises(ValueError):
            centrino_cap.polygon_budget(0)
        with pytest.raises(ValueError):
            centrino_cap.point_budget(-1)
        with pytest.raises(ValueError):
            centrino_cap.voxel_budget(0)

    def test_volume_capacity_follows_profile(self):
        onyx = capacity_from_profile(get_profile("onyx"))
        centrino = capacity_from_profile(get_profile("centrino"))
        assert onyx.volume_support and onyx.voxels_per_second > 0
        assert not centrino.volume_support
        assert centrino.voxels_per_second == 0


    def test_one_record_per_profile(self):
        for name in TESTBED:
            profile = get_profile(name)
            cap = capacity_from_profile(profile)
            assert capacity_from_profile(profile) is cap
            fresh = capacity_from_profile.__wrapped__(profile)
            assert fresh is not cap
            for f in fields(RenderCapacity):
                assert getattr(cap, f.name) == getattr(fresh, f.name)


class TestNodeCost:
    def test_mesh_node(self, quad):
        c = node_cost(MeshNode(quad))
        assert c.polygons == 2
        assert c.points == 0
        assert c.payload_bytes == quad.byte_size
        assert not c.is_empty

    def test_group_empty(self):
        assert node_cost(GroupNode()).is_empty

    def test_volume_node_textures(self):
        node = VolumeNode(visible_human_phantom(10))
        c = node_cost(node)
        assert c.voxels == 1000
        assert c.texture_bytes == node.payload_bytes

    def test_addition(self, quad):
        a = node_cost(MeshNode(quad))
        b = node_cost(PointCloudNode(np.zeros((5, 3), np.float32)))
        total = a + b
        assert total.polygons == 2 and total.points == 5

    def test_subtree_cost_aggregates(self, quad):
        root = GroupNode()
        root.add_child(MeshNode(quad))
        root.add_child(MeshNode(quad))
        assert subtree_cost(root).polygons == 4

    def test_tree_cost(self, simple_tree):
        assert tree_cost(simple_tree).polygons == 2


class TestRenderLoad:
    def test_load_seconds(self, centrino_cap):
        c = NodeCost(polygons=840_000)
        assert c.render_load(centrino_cap) == pytest.approx(0.1)

    def test_unsupported_primitive_infinite(self, centrino_cap):
        c = NodeCost(voxels=100)
        assert c.render_load(centrino_cap) == float("inf")

    def test_fits_at_target(self, centrino_cap):
        ok = NodeCost(polygons=500_000)
        too_big = NodeCost(polygons=2_000_000)
        assert ok.fits(centrino_cap, target_fps=10.0)
        assert not too_big.fits(centrino_cap, target_fps=10.0)

    def test_fits_considers_committed(self, centrino_cap):
        committed = NodeCost(polygons=700_000)
        extra = NodeCost(polygons=300_000)
        assert not extra.fits(centrino_cap, target_fps=10.0,
                              committed=committed)

    def test_fits_checks_texture_memory(self, centrino_cap):
        c = NodeCost(polygons=10, texture_bytes=10**12)
        assert not c.fits(centrino_cap)

    def test_fits_checks_volume_support(self, centrino_cap):
        c = NodeCost(voxels=10)
        assert not c.fits(centrino_cap)
        onyx = capacity_from_profile(get_profile("onyx"))
        assert c.fits(onyx)


class TestTileCost:
    def test_geometry_not_reduced(self):
        scene = NodeCost(polygons=100_000, payload_bytes=10**6)
        half = tile_cost(Tile(0, 0, 50, 100), 100, 100, scene)
        assert half.polygons == 100_000         # full geometry pass
        assert half.payload_bytes == 500_000    # half the framebuffer

    def test_area_fraction(self):
        scene = NodeCost(polygons=10, payload_bytes=1000)
        quarter = tile_cost(Tile(0, 0, 50, 50), 100, 100, scene)
        assert quarter.payload_bytes == 250

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            tile_cost(Tile(0, 0, 1, 1), 0, 100, NodeCost())


class TestInterrogation:
    def test_interrogate_over_soap(self, small_testbed):
        from repro.core.capacity import interrogate

        tb = small_testbed
        service = tb.render_service("centrino")
        report = interrogate(service, tb.data_service.host)
        assert report.capacity.polygons_per_second == 8.4e6
        assert report.elapsed_seconds > 0
        assert report.service_name == "rs-centrino"
        assert report.headroom(DEFAULT_TARGET_FPS) == pytest.approx(
            8.4e6 / DEFAULT_TARGET_FPS)

    def test_headroom_shrinks_with_commitment(self, small_testbed):
        from repro.core.capacity import interrogate
        from repro.data.generators import galleon

        tb = small_testbed
        service = tb.render_service("centrino")
        before = interrogate(service, tb.data_service.host).headroom(
            DEFAULT_TARGET_FPS)
        tb.publish_model("m", galleon())
        service.create_render_session(tb.data_service, "m",
                                      charge_instance=False)
        after = interrogate(service, tb.data_service.host).headroom(
            DEFAULT_TARGET_FPS)
        assert after < before
