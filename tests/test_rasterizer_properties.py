"""Property-based robustness tests for the rendering pipeline."""

import dataclasses
import functools
import itertools

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.data.meshes import Mesh
from repro.render.camera import Camera
from repro.render.framebuffer import FrameBuffer, split_tiles
from repro.render.points import rasterize_points
from repro.render.rasterizer import RasterStats, rasterize_mesh


@st.composite
def scenes(draw):
    """Random mesh + camera, including degenerate geometry."""
    n_verts = draw(st.integers(3, 40))
    n_faces = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.floats(0.01, 100.0))
    verts = (rng.normal(0, 1, (n_verts, 3)) * scale).astype(np.float32)
    faces = rng.integers(0, n_verts, (n_faces, 3)).astype(np.int32)
    cam_pos = rng.normal(0, 3, 3) * draw(st.floats(0.1, 10.0))
    if np.linalg.norm(cam_pos) < 0.2:
        cam_pos = np.array([0.0, 0.0, 5.0])
    camera = Camera.looking_at(tuple(cam_pos), target=(0, 0, 0))
    return Mesh(verts, faces), camera


class TestRasterizerRobustness:
    @given(scenes(), st.integers(8, 64))
    @settings(max_examples=60, deadline=None)
    def test_never_crashes_and_stats_consistent(self, scene, size):
        mesh, camera = scene
        fb = FrameBuffer(size, size)
        stats = rasterize_mesh(mesh, camera, fb)
        assert (stats.faces_rasterized + stats.faces_culled_near
                + stats.faces_culled_backface
                + stats.faces_culled_offscreen) == stats.faces_in
        # depth buffer only ever holds finite positive distances or inf
        finite = np.isfinite(fb.depth)
        if finite.any():
            assert (fb.depth[finite] > 0).all()

    @given(scenes())
    @settings(max_examples=40, deadline=None)
    def test_color_written_iff_depth_written(self, scene):
        mesh, camera = scene
        fb = FrameBuffer(32, 32, background=(7, 7, 7))
        rasterize_mesh(mesh, camera, fb)
        untouched = ~np.isfinite(fb.depth)
        assert (fb.color[untouched] == 7).all()

    @given(scenes())
    @settings(max_examples=30, deadline=None)
    def test_deterministic(self, scene):
        mesh, camera = scene
        a = FrameBuffer(32, 32)
        b = FrameBuffer(32, 32)
        rasterize_mesh(mesh, camera, a)
        rasterize_mesh(mesh, camera, b)
        assert np.array_equal(a.color, b.color)
        assert np.array_equal(a.depth, b.depth)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_points_never_crash(self, seed, size):
        rng = np.random.default_rng(seed)
        pts = (rng.normal(0, 2, (50, 3)) * rng.uniform(0.1, 50)).astype(
            np.float32)
        camera = Camera.looking_at((0, 0, 5))
        fb = FrameBuffer(32, 32)
        stats = rasterize_points(pts, camera, fb, point_size=size)
        assert 0 <= stats.points_drawn <= stats.points_in

    @given(scenes())
    @settings(max_examples=30, deadline=None)
    def test_depth_independent_of_shading(self, scene):
        mesh, camera = scene
        flat = FrameBuffer(32, 32)
        smooth = FrameBuffer(32, 32)
        rasterize_mesh(mesh, camera, flat, shading="flat")
        rasterize_mesh(mesh, camera, smooth, shading="gouraud")
        assert np.array_equal(flat.depth, smooth.depth)


def _frame(mesh, camera, width, height, **kw):
    fb = FrameBuffer(width, height, background=(7, 7, 7))
    stats = rasterize_mesh(mesh, camera, fb, **kw)
    return fb.color.tobytes(), fb.depth.tobytes(), stats


def _dense_reference(mesh, camera, width, height):
    """Every face against every pixel centre, no spans and no chunks: the
    culls, the fragment count and the depth buffer as the bucket
    rasterizer defined them."""
    screen, w = camera.project_vertices(mesh.vertices, width, height)
    p = screen[mesh.faces]                                 # (m, 3, 3)
    x, y = p[:, :, 0], p[:, :, 1]
    near = ~(w[mesh.faces] > camera.near).all(axis=1)
    area = ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
            - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0]))
    flat = ~near & ~(np.abs(area) > 1e-12)
    off = ~near & ~flat & ~(
        (np.ceil(x.max(axis=1)) >= 0) & (np.floor(x.min(axis=1)) < width)
        & (np.ceil(y.max(axis=1)) >= 0) & (np.floor(y.min(axis=1)) < height))
    live = np.nonzero(~near & ~flat & ~off)[0]
    depth = np.full((height, width), np.inf, dtype=np.float32)
    cy, cx = np.mgrid[0:height, 0:width] + 0.5
    fragments = 0
    for f in live:
        (x0, y0), (x1, y1), (x2, y2) = p[f, :, :2]
        l0 = (x1 - x0) * (cy - y0) - (y1 - y0) * (cx - x0)
        l1 = (x2 - x1) * (cy - y1) - (y2 - y1) * (cx - x1)
        l2 = (x0 - x2) * (cy - y2) - (y0 - y2) * (cx - x2)
        b0, b1, b2 = l1 * (1.0 / area[f]), l2 * (1.0 / area[f]), \
            l0 * (1.0 / area[f])
        inside = (b0 >= 0) & (b1 >= 0) & (b2 >= 0)
        iw = 1.0 / w[mesh.faces[f]]
        z = (1.0 / (b0 * iw[0] + b1 * iw[1] + b2 * iw[2])).astype(np.float32)
        depth[inside] = np.minimum(depth[inside], z[inside])
        fragments += int(inside.sum())
    return (int(near.sum()), int(flat.sum()), int(off.sum()), len(live),
            fragments, depth)


@st.composite
def grids(draw, max_side=32):
    """A frame size and a ``split_tiles`` grid over it: remainder tiles
    whenever the grid does not divide the frame, 1-pixel columns or rows
    when it has as many as the frame has pixels."""
    width = draw(st.integers(1, max_side))
    height = draw(st.integers(1, max_side))
    nx = draw(st.integers(1, min(4, width)) | st.just(width))
    ny = draw(st.integers(1, min(4, height)) | st.just(height))
    assume(nx * ny <= 64)
    return width, height, nx, ny


def window(tile, width, height, background=(7, 7, 7)):
    """A tile-sized framebuffer placed at ``tile`` in a width x height
    frame."""
    return FrameBuffer(tile.width, tile.height, background=background,
                       origin=(tile.x0, tile.y0), frame=(width, height))


def _whole_against_windows(draw, width, height, nx, ny):
    """``draw(fb)`` once into the whole frame and once into a window per
    tile of the grid: every window must hold the whole frame's bytes for
    its tile, and the windows share out its fragments.  Returns the stats
    of the whole draw and of each window's."""
    whole = FrameBuffer(width, height, background=(7, 7, 7))
    stats = draw(whole)
    parts = []
    for tile in split_tiles(width, height, nx, ny):
        fb = window(tile, width, height)
        parts.append(draw(fb))
        want = whole.extract(tile)
        assert fb.color.tobytes() == want.color.tobytes()
        assert fb.depth.tobytes() == want.depth.tobytes()
    assert sum(part.fragments for part in parts) == stats.fragments
    return stats, parts


class TestRasterizerInvariance:
    """Neither the chunk size nor a window onto the frame may change a
    pixel."""

    @given(scenes(), st.integers(4, 14), st.integers(4, 14),
           st.sampled_from(["flat", "gouraud", "none"]), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_chunk_size_changes_nothing(self, scene, width, height, shading,
                                        cull):
        mesh, camera = scene
        kw = dict(shading=shading, cull_backfaces=cull)
        default = _frame(mesh, camera, width, height, **kw)
        for max_fragments in (1, 7, 4096):
            assert _frame(mesh, camera, width, height,
                          max_fragments=max_fragments, **kw) == default

    @given(scenes(), grids(), st.sampled_from(["flat", "gouraud", "none"]),
           st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_windows_hold_the_whole_frame(self, scene, grid, shading, cull):
        mesh, camera = scene
        stats, parts = _whole_against_windows(
            lambda fb: rasterize_mesh(mesh, camera, fb, shading=shading,
                                      cull_backfaces=cull),
            *grid)
        # the culls are about the whole view, whatever the window
        assert all(dataclasses.replace(part, fragments=stats.fragments)
                   == stats for part in parts)

    @given(scenes(), st.integers(4, 32), st.integers(4, 32))
    @settings(max_examples=40, deadline=None)
    def test_unclipped_stats_and_depth_match_a_dense_evaluation(
            self, scene, width, height):
        mesh, camera = scene
        fb = FrameBuffer(width, height)
        stats = rasterize_mesh(mesh, camera, fb)
        near, flat, off, live, fragments, depth = _dense_reference(
            mesh, camera, width, height)
        assert stats == RasterStats(
            faces_in=mesh.n_triangles, faces_culled_near=near,
            faces_culled_backface=flat, faces_culled_offscreen=off,
            faces_rasterized=live, fragments=fragments)
        assert fb.depth.tobytes() == depth.tobytes()

    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), grids())
    @settings(max_examples=30, deadline=None)
    def test_point_windows_hold_the_whole_frame(self, seed, size, grid):
        rng = np.random.default_rng(seed)
        pts = (rng.normal(0, 1, (80, 3)) * rng.uniform(0.1, 3)).astype(
            np.float32)
        colors = rng.random((80, 3))
        camera = Camera.looking_at(tuple(rng.normal(0, 1, 3) + (0, 0, 5)))
        stats, parts = _whole_against_windows(
            lambda fb: rasterize_points(pts, camera, fb, colors=colors,
                                        point_size=size),
            *grid)
        assert all(dataclasses.replace(part, fragments=stats.fragments)
                   == stats for part in parts)


#: what ``FrameBuffer.clear`` accepts: an RGB tuple or list, a uint8 array
#: or one scalar for all three channels
backgrounds = st.one_of(
    st.tuples(*[st.integers(0, 255)] * 3),
    st.lists(st.integers(0, 255), min_size=3, max_size=3),
    st.lists(st.integers(0, 255), min_size=3, max_size=3).map(
        lambda rgb: np.array(rgb, dtype=np.uint8)),
    st.integers(0, 255))


class TestClear:
    @given(backgrounds, grids(max_side=24))
    @settings(max_examples=60, deadline=None)
    def test_clear_equals_the_pixel_broadcast(self, background, grid):
        width, height, nx, ny = grid
        for tile in split_tiles(width, height, nx, ny)[-2:]:
            fb = window(tile, width, height, background=background)
            want = np.empty((tile.height, tile.width, 3), dtype=np.uint8)
            want[:] = np.asarray(background, dtype=np.uint8)
            assert fb.color.tobytes() == want.tobytes()
            assert np.isinf(fb.depth).all()


_session_ids = itertools.count()


@functools.cache
def _testbed():
    """One render service for every example: a testbed is slow to build."""
    from repro.testbed import build_testbed

    return build_testbed(render_hosts=("centrino",))


class TestServiceWindows:
    """``render_tile`` against ``render_view(...).extract(tile)`` on a scene
    holding every node kind ``_draw_tree`` draws: a random mesh, a mesh
    placed under a transform, a point cloud, an avatar cone and the 16^3
    phantom volume."""

    @given(scenes(), st.integers(1, 5), st.floats(0.0, 2 * np.pi),
           st.floats(-1.2, 1.2), st.floats(2.0, 6.0), grids(max_side=24))
    @settings(max_examples=15, deadline=None)
    def test_render_tile_is_the_views_tile(self, scene, point_size,
                                           azimuth, elevation, distance,
                                           grid):
        from repro.data.generators import box
        from repro.data.volumes import visible_human_phantom
        from repro.scenegraph.nodes import (
            AvatarNode, MeshNode, PointCloudNode, TransformNode, VolumeNode)
        from repro.scenegraph.tree import SceneTree

        mesh, _ = scene
        rng = np.random.default_rng(point_size)
        tree = SceneTree("windows")
        tree.add(MeshNode(mesh.normalized(), name="random"))
        moved = tree.add(TransformNode.from_translation((0.3, -0.2, 0.1)))
        tree.add(MeshNode(box(), name="box"), parent=moved)
        tree.add(PointCloudNode(rng.normal(0, 0.5, (120, 3)),
                                colors=rng.random((120, 3)),
                                point_size=point_size, name="spray"))
        tree.add(AvatarNode("ann", position=(0.9, 0.6, 0.5),
                            view_direction=(-1.0, -0.6, -0.4)))
        tree.add(VolumeNode(visible_human_phantom(16), opacity_scale=0.3))
        tb = _testbed()
        sid = f"windows-{next(_session_ids)}"
        tb.publish_tree(sid, tree)
        rs = tb.render_service("centrino")
        session, _ = rs.create_render_session(tb.data_service, sid)
        camera = Camera.looking_at((
            distance * np.cos(elevation) * np.cos(azimuth),
            distance * np.sin(elevation),
            distance * np.cos(elevation) * np.sin(azimuth)))
        rsid = session.render_session_id
        width, height, nx, ny = grid
        full, _ = rs.render_view(rsid, camera, width, height)
        for tile in split_tiles(width, height, nx, ny):
            part, _ = rs.render_tile(rsid, camera, tile, width, height)
            assert part.scissor() == (tile.x0, tile.y0,
                                      tile.x0 + tile.width,
                                      tile.y0 + tile.height)
            want = full.extract(tile)
            assert part.color.tobytes() == want.color.tobytes()
            assert part.depth.tobytes() == want.depth.tobytes()
        rs.close_render_session(rsid)
