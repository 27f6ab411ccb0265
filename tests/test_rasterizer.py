"""The software rasterizer: coverage, occlusion, culling, shading paths."""

import numpy as np
import pytest

from repro.data.meshes import Mesh, merge_meshes
from repro.errors import RenderError
from repro.render.camera import Camera
from repro.render.framebuffer import FrameBuffer, split_tiles
from repro.render.rasterizer import rasterize_mesh
from repro.render.shading import flat_intensity, gouraud_intensity


def facing_quad(z: float, half: float = 1.0, name="q") -> Mesh:
    return Mesh(
        np.array([[-half, -half, z], [half, -half, z], [half, half, z],
                  [-half, half, z]], dtype=np.float32),
        np.array([[0, 1, 2], [0, 2, 3]], dtype=np.int32),
        name=name,
    )


@pytest.fixture
def cam():
    return Camera.looking_at((0, 0, 5), target=(0, 0, 0), up=(0, 1, 0))


class TestCoverage:
    def test_centered_quad_covers_center(self, cam):
        fb = FrameBuffer(64, 64)
        stats = rasterize_mesh(facing_quad(0.0), cam, fb)
        assert stats.faces_rasterized == 2
        assert np.isfinite(fb.depth[32, 32])
        assert fb.coverage() > 0.05

    def test_coverage_scales_with_size(self, cam):
        small = FrameBuffer(64, 64)
        large = FrameBuffer(64, 64)
        rasterize_mesh(facing_quad(0.0, half=0.5), cam, small)
        rasterize_mesh(facing_quad(0.0, half=1.5), cam, large)
        assert large.coverage() > 2 * small.coverage()

    def test_quad_coverage_matches_projection(self, cam):
        """Projected quad area should match rasterized pixel count."""
        fb = FrameBuffer(100, 100)
        rasterize_mesh(facing_quad(0.0), cam, fb)
        screen, _ = cam.project_vertices(facing_quad(0.0).vertices, 100, 100)
        w = screen[:, 0].max() - screen[:, 0].min()
        h = screen[:, 1].max() - screen[:, 1].min()
        covered = np.isfinite(fb.depth).sum()
        assert covered == pytest.approx(w * h, rel=0.08)

    def test_empty_mesh(self, cam):
        fb = FrameBuffer(32, 32)
        stats = rasterize_mesh(
            Mesh(np.zeros((0, 3)), np.zeros((0, 3), np.int32)), cam, fb)
        assert stats.faces_in == 0
        assert fb.coverage() == 0.0

    def test_depth_values_are_view_distance(self, cam):
        fb = FrameBuffer(64, 64)
        rasterize_mesh(facing_quad(0.0), cam, fb)
        assert fb.depth[32, 32] == pytest.approx(5.0, abs=0.01)


class TestOcclusion:
    def test_nearer_quad_wins(self, cam):
        fb = FrameBuffer(64, 64)
        near = facing_quad(2.0)
        far = facing_quad(0.0)
        far_c = Mesh(far.vertices, far.faces,
                     colors=np.tile([1.0, 0, 0], (4, 1)).astype(np.float32))
        near_c = Mesh(near.vertices, near.faces,
                      colors=np.tile([0, 1.0, 0], (4, 1)).astype(np.float32))
        rasterize_mesh(merge_meshes([far_c, near_c]), cam, fb,
                       shading="none")
        # center pixel must be green (near quad) regardless of draw order
        r, g, b = fb.color[32, 32]
        assert g > r

    def test_order_independence(self, cam):
        fb1 = FrameBuffer(64, 64)
        fb2 = FrameBuffer(64, 64)
        a = facing_quad(0.0)
        b = facing_quad(2.0, half=0.5)
        rasterize_mesh(a, cam, fb1)
        rasterize_mesh(b, cam, fb1)
        rasterize_mesh(b, cam, fb2)
        rasterize_mesh(a, cam, fb2)
        assert np.array_equal(fb1.depth, fb2.depth)
        assert fb1.mean_abs_diff(fb2) < 1.0

    def test_accumulates_across_calls(self, cam):
        fb = FrameBuffer(64, 64)
        rasterize_mesh(facing_quad(0.0, half=0.3), cam, fb)
        cov1 = fb.coverage()
        rasterize_mesh(facing_quad(-1.0, half=1.2), cam, fb)
        assert fb.coverage() > cov1


def coplanar_pair(big_first: bool) -> Mesh:
    """A red triangle tens of pixels wide and a blue one under four pixels
    (on a 64x64 frame) inside it, both in the z=0 plane."""
    big = [[-1.5, -1.5, 0], [1.5, -1.5, 0], [0, 1.5, 0]]
    small = [[0.0, 0.0, 0], [0.16, 0.0, 0], [0.0, 0.16, 0]]
    red, blue = [[1.0, 0, 0]] * 3, [[0, 0, 1.0]] * 3
    verts, colors = (big + small, red + blue) if big_first \
        else (small + big, blue + red)
    return Mesh(np.array(verts, dtype=np.float32),
                np.array([[0, 1, 2], [3, 4, 5]], dtype=np.int32),
                colors=np.array(colors, dtype=np.float32))


class TestDepthTie:
    """Coplanar overlap: equal depths, so colour is decided by the stated
    rule -- the highest face index wins -- however the work is cut up."""

    @pytest.mark.parametrize("big_first", [True, False])
    def test_highest_face_index_wins_however_it_is_cut(self, cam, big_first):
        mesh = coplanar_pair(big_first)
        alone = []
        for face in mesh.faces:
            fb = FrameBuffer(64, 64)
            rasterize_mesh(Mesh(mesh.vertices, [face], colors=mesh.colors),
                           cam, fb, shading="none")
            alone.append(fb)
        # the old size buckets: one box of at most 4 px, one above 16 px
        widths = sorted(int(np.isfinite(fb.depth).any(axis=0).sum())
                        for fb in alone)
        assert widths[0] <= 4 and widths[1] > 16
        tie = (alone[0].depth == alone[1].depth) & np.isfinite(alone[0].depth)
        assert tie.sum() >= 3

        whole = FrameBuffer(64, 64)
        rasterize_mesh(mesh, cam, whole, shading="none")
        assert (whole.color[tie] == alone[1].color[tie]).all()
        assert (whole.color[tie] != alone[0].color[tie]).any()

        one_by_one = FrameBuffer(64, 64)
        rasterize_mesh(mesh, cam, one_by_one, shading="none", max_fragments=1)
        tiled = FrameBuffer(64, 64)
        for tile in split_tiles(64, 64, 2, 2):
            fb = FrameBuffer(tile.width, tile.height,
                             origin=(tile.x0, tile.y0), frame=(64, 64))
            rasterize_mesh(mesh, cam, fb, shading="none")
            tiled.paste(tile, fb)
        for other in (one_by_one, tiled):
            assert other.color.tobytes() == whole.color.tobytes()
            assert other.depth.tobytes() == whole.depth.tobytes()


class TestMemoryBound:
    """Peak memory follows the face count, not the candidate-pixel count."""

    #: chunk scratch, the frame-sized tie-rule scratch and slack, plus the
    #: per-face rows (corners, boxes, spans, edge constants, colours)
    FIXED, PER_FACE = 16 << 20, 400

    @pytest.mark.parametrize("triangles", [300_000, 600_000])
    def test_peak_is_bounded_at_1024x768(self, triangles):
        import tracemalloc

        from repro.data.generators import elle

        mesh = elle(triangles).normalized()
        fb = FrameBuffer(1024, 768)
        tracemalloc.start()
        try:
            stats = rasterize_mesh(mesh, Camera.looking_at((2.2, 1.4, 1.2)),
                                   fb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.fragments > 100_000
        assert peak < self.FIXED + self.PER_FACE * mesh.n_triangles


class TestCulling:
    def test_behind_camera_culled(self, cam):
        fb = FrameBuffer(32, 32)
        stats = rasterize_mesh(facing_quad(10.0), cam, fb)  # behind z=5 cam
        assert stats.faces_culled_near == 2
        assert fb.coverage() == 0.0

    def test_offscreen_culled(self, cam):
        fb = FrameBuffer(32, 32)
        stats = rasterize_mesh(
            facing_quad(0.0).translated((100, 0, 0)), cam, fb)
        assert stats.faces_culled_offscreen == 2

    def test_backface_culling(self, cam):
        fb = FrameBuffer(32, 32)
        quad = facing_quad(0.0)
        flipped = Mesh(quad.vertices, quad.faces[:, ::-1])
        s1 = rasterize_mesh(quad, cam, fb, cull_backfaces=True)
        s2 = rasterize_mesh(flipped, cam, fb, cull_backfaces=True)
        # exactly one orientation survives
        assert {s1.faces_rasterized, s2.faces_rasterized} == {0, 2}

    def test_degenerate_faces_skipped(self, cam):
        fb = FrameBuffer(32, 32)
        m = Mesh(np.zeros((3, 3), np.float32),
                 np.array([[0, 1, 2]], np.int32))
        stats = rasterize_mesh(m, cam, fb)
        assert stats.faces_rasterized == 0

    def test_stats_add_up(self, cam):
        fb = FrameBuffer(32, 32)
        mesh = merge_meshes([facing_quad(0.0), facing_quad(10.0),
                             facing_quad(0.0).translated((100, 0, 0))])
        s = rasterize_mesh(mesh, cam, fb)
        assert (s.faces_rasterized + s.faces_culled_near
                + s.faces_culled_backface + s.faces_culled_offscreen
                == s.faces_in)


class TestShading:
    def test_flat_intensity_range(self, small_galleon):
        i = flat_intensity(small_galleon)
        assert (i >= 0).all() and (i <= 1).all()
        assert i.std() > 0.01     # actual variation over the hull

    def test_gouraud_intensity_range(self, small_galleon):
        i = gouraud_intensity(small_galleon)
        assert (i >= 0).all() and (i <= 1).all()

    def test_light_direction_changes_shading(self, small_galleon):
        a = flat_intensity(small_galleon, light_direction=(-1, 0, 0))
        b = flat_intensity(small_galleon, light_direction=(0, 0, -1))
        assert not np.allclose(a, b)

    def test_zero_light_rejected(self, small_galleon):
        with pytest.raises(ValueError):
            flat_intensity(small_galleon, light_direction=(0, 0, 0))

    def test_facing_quad_fully_lit_head_on(self, cam):
        quad = facing_quad(0.0)
        i = flat_intensity(quad, light_direction=(0, 0, -1))
        assert np.allclose(i, 1.0)

    def test_flat_shade_of_survivors_is_the_whole_meshs(self, cam,
                                                        small_galleon):
        """Faces are shaded after the culls; every drawn pixel must still
        carry one of the colours shading the whole mesh would have given,
        wherever the culled faces sit in the index order."""
        culled = [facing_quad(10.0), facing_quad(0.0).translated((100, 0, 0))]
        mesh = merge_meshes(culled + [small_galleon])
        base = np.array([200, 180, 90], dtype=np.float64)
        cam2 = Camera.looking_at((2.2, 1.4, 1.2))
        fb = FrameBuffer(96, 96)
        stats = rasterize_mesh(mesh, cam2, fb, base_color=base)
        other = FrameBuffer(96, 96)
        rasterize_mesh(merge_meshes([small_galleon] + culled), cam2, other,
                       base_color=base)
        assert other.color.tobytes() == fb.color.tobytes()
        assert stats.faces_culled_near + stats.faces_culled_offscreen >= 4
        palette = np.clip(flat_intensity(mesh)[:, None] * base,
                          0.0, 255.0).astype(np.uint8)
        drawn = fb.color[np.isfinite(fb.depth)]
        assert len(drawn) > 500
        assert {tuple(c) for c in drawn} <= {tuple(c) for c in palette}

    def test_gouraud_rendering_smooth(self, cam, small_galleon):
        flat_fb = FrameBuffer(96, 96)
        smooth_fb = FrameBuffer(96, 96)
        cam2 = Camera.looking_at((2.2, 1.4, 1.2))
        rasterize_mesh(small_galleon, cam2, flat_fb, shading="flat")
        rasterize_mesh(small_galleon, cam2, smooth_fb, shading="gouraud")
        mask = np.isfinite(flat_fb.depth) & np.isfinite(smooth_fb.depth)
        assert mask.sum() > 100

        def roughness(fb):
            g = fb.color[..., 0].astype(float)
            return np.abs(np.diff(g, axis=1))[mask[:, 1:]].mean()

        assert roughness(smooth_fb) <= roughness(flat_fb)

    def test_vertex_colors_interpolated(self, cam):
        quad = facing_quad(0.0)
        # vertices 0,1 are the bottom edge (red); 2,3 the top (blue)
        colors = np.array([[1, 0, 0], [1, 0, 0], [0, 0, 1], [0, 0, 1]],
                          dtype=np.float32)
        m = Mesh(quad.vertices, quad.faces, colors)
        fb = FrameBuffer(64, 64)
        rasterize_mesh(m, cam, fb, shading="none")
        # the quad spans roughly ±15 px around the 64x64 center
        top = fb.color[22, 32]       # image top = world +y = blue
        bottom = fb.color[42, 32]    # image bottom = world -y = red
        assert np.isfinite(fb.depth[22, 32]) and np.isfinite(fb.depth[42, 32])
        assert int(bottom[0]) > int(top[0])    # red fades upward
        assert int(top[2]) > int(bottom[2])    # blue fades downward

    def test_unknown_shading_mode(self, cam, quad):
        with pytest.raises(RenderError):
            rasterize_mesh(quad, cam, FrameBuffer(8, 8), shading="phong")

    def test_bad_base_color(self, cam, quad):
        with pytest.raises(RenderError):
            rasterize_mesh(quad, cam, FrameBuffer(8, 8), base_color=(1, 2))


class TestPreparedData:
    """What a mesh keeps between frames (corner indices, homogeneous
    vertices, normals, the shade tables) never shows: any frame equals the
    same frame drawn from a mesh nothing was prepared on."""

    LOOKS = [dict(light_direction=None, base_color=(200, 200, 210)),
             dict(light_direction=(1.0, 0.2, -0.3), base_color=(255, 40, 10))]

    @staticmethod
    def variants(base: Mesh) -> dict:
        from repro.data.textures import checkerboard, planar_uv

        rng = np.random.default_rng(3)
        colors = rng.random(base.vertices.shape)
        return {
            "flat": (lambda: Mesh(base.vertices, base.faces), "flat"),
            "none": (lambda: Mesh(base.vertices, base.faces), "none"),
            "gouraud": (lambda: Mesh(base.vertices, base.faces), "gouraud"),
            "vertex-colour": (
                lambda: Mesh(base.vertices, base.faces, colors), "flat"),
            "vertex-colour-gouraud": (
                lambda: Mesh(base.vertices, base.faces, colors), "gouraud"),
            "textured": (
                lambda: Mesh(base.vertices, base.faces,
                             uv=planar_uv(base.vertices),
                             texture=checkerboard(16, 4)), "flat"),
        }

    @staticmethod
    def frame(mesh, camera, shading, look):
        fb = FrameBuffer(80, 60)
        stats = rasterize_mesh(mesh, camera, fb, shading=shading, **look)
        return fb.color.tobytes(), fb.depth.tobytes(), stats

    @pytest.mark.parametrize("kind", ["flat", "none", "gouraud",
                                      "vertex-colour",
                                      "vertex-colour-gouraud", "textured"])
    def test_frames_do_not_depend_on_what_was_drawn_before(
            self, kind, small_galleon):
        make, shading = self.variants(small_galleon)[kind]
        cams = [Camera.looking_at((2.2, 1.4, 1.2)),
                Camera.looking_at((-1.5, 2.0, 0.4))]
        kept = make()
        # same look twice, the other look, back again, from two cameras
        for look in (self.LOOKS[0], self.LOOKS[0], self.LOOKS[1],
                     self.LOOKS[0], self.LOOKS[1]):
            for camera in cams:
                assert self.frame(kept, camera, shading, look) == \
                    self.frame(make(), camera, shading, look)
        if kind in ("flat", "gouraud"):
            a, b = (self.frame(kept, cams[0], shading, look)[0]
                    for look in self.LOOKS)
            assert a != b                       # the key is looked at

    def test_transformed_copy_shares_nothing(self, small_galleon):
        camera = Camera.looking_at((2.2, 1.4, 1.2))
        look = self.LOOKS[0]
        matrix = np.eye(4)
        matrix[:3, :3] = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
        matrix[:3, 3] = [0.1, 0.0, -0.2]
        before = self.frame(small_galleon, camera, "flat", look)
        moved = small_galleon.transformed(matrix)
        fresh = Mesh(moved.vertices.copy(), moved.faces.copy())
        assert self.frame(moved, camera, "flat", look) == \
            self.frame(fresh, camera, "flat", look) != before
        assert self.frame(small_galleon, camera, "flat", look) == before

    def test_shared_faces_array(self, small_galleon):
        camera = Camera.looking_at((2.2, 1.4, 1.2))
        look = self.LOOKS[1]
        other = Mesh(small_galleon.vertices * np.float32(0.5),
                     small_galleon.faces)
        assert np.shares_memory(other.faces, small_galleon.faces)
        first = self.frame(small_galleon, camera, "flat", look)
        second = self.frame(other, camera, "flat", look)
        assert second == self.frame(
            Mesh(other.vertices.copy(), other.faces.copy()), camera, "flat",
            look) != first
        assert self.frame(small_galleon, camera, "flat", look) == first


class TestChunking:
    def test_small_fragment_budget_same_result(self, cam, small_galleon):
        """Chunked processing must be invisible in the output."""
        cam2 = Camera.looking_at((2.2, 1.4, 1.2))
        fb_big = FrameBuffer(64, 64)
        fb_small = FrameBuffer(64, 64)
        rasterize_mesh(small_galleon, cam2, fb_big)
        rasterize_mesh(small_galleon, cam2, fb_small, max_fragments=5_000)
        assert np.array_equal(fb_big.depth, fb_small.depth)
        assert fb_big.mean_abs_diff(fb_small) < 0.5

    def test_giant_triangle_close_up(self):
        """A triangle whose bbox exceeds every bucket still renders."""
        cam = Camera.looking_at((0, 0, 0.4), target=(0, 0, 0))
        fb = FrameBuffer(600, 600)
        tri = Mesh(
            np.array([[-5, -5, 0], [5, -5, 0], [0, 5, 0]], np.float32),
            np.array([[0, 1, 2]], np.int32))
        stats = rasterize_mesh(tri, cam, fb)
        assert stats.faces_rasterized == 1
        assert fb.coverage() > 0.5
