"""Camera projection and framebuffer/tiling invariants."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.errors import RenderError
from repro.render.camera import Camera
from repro.render.framebuffer import FrameBuffer, Tile, split_tiles
from repro.scenegraph.nodes import CameraNode, look_at_basis


class TestCamera:
    def make(self):
        return Camera.looking_at((0, 0, 5), target=(0, 0, 0), up=(0, 1, 0))

    def test_target_projects_to_center(self):
        cam = self.make()
        screen, w = cam.project_vertices(np.zeros((1, 3)), 200, 200)
        assert screen[0, 0] == pytest.approx(100.0)
        assert screen[0, 1] == pytest.approx(100.0)
        assert w[0] == pytest.approx(5.0)

    def test_depth_is_view_distance(self):
        cam = self.make()
        pts = np.array([[0, 0, 0], [0, 0, 2], [0, 0, -3]], dtype=float)
        screen, w = cam.project_vertices(pts, 100, 100)
        assert np.allclose(w, [5.0, 3.0, 8.0])
        assert np.allclose(screen[:, 2], w)

    def test_homogeneous_core_is_what_project_vertices_stacks(self):
        cam = Camera.looking_at((2.2, 1.4, 1.2), fov_degrees=50)
        pts = np.random.default_rng(0).normal(size=(50, 3))
        screen, w = cam.project_vertices(pts, 120, 90)
        vh = np.hstack([pts, np.ones((50, 1))])
        columns = cam.project_homogeneous(vh, 120, 90)
        assert all(c.flags.c_contiguous and c.shape == (50,)
                   for c in columns)
        assert np.array_equal(np.stack(columns, axis=1), screen)
        assert np.array_equal(columns[2], w)

    def test_right_is_positive_x(self):
        cam = self.make()
        screen, _ = cam.project_vertices(np.array([[1.0, 0, 0]]), 200, 200)
        assert screen[0, 0] > 100

    def test_up_is_negative_y_pixels(self):
        cam = self.make()
        screen, _ = cam.project_vertices(np.array([[0, 1.0, 0]]), 200, 200)
        assert screen[0, 1] < 100

    def test_fov_controls_spread(self):
        narrow = Camera.looking_at((0, 0, 5), fov_degrees=20)
        wide = Camera.looking_at((0, 0, 5), fov_degrees=90)
        pt = np.array([[1.0, 0, 0]])
        sn, _ = narrow.project_vertices(pt, 200, 200)
        sw, _ = wide.project_vertices(pt, 200, 200)
        center = np.array([100.0, 100.0])
        assert (np.linalg.norm(sn[0, :2] - center)
                > np.linalg.norm(sw[0, :2] - center))

    def test_from_node(self):
        node = CameraNode(position=(1, 2, 3), fov_degrees=33.0)
        cam = Camera.from_node(node)
        assert cam.fov_degrees == 33.0
        assert np.allclose(cam.position, [1, 2, 3])

    def test_degenerate_camera_rejected(self):
        cam = Camera.looking_at((0, 0, 0), target=(0, 0, 0))
        with pytest.raises(RenderError):
            cam.view_matrix()

    def test_bad_clip_planes(self):
        cam = Camera.looking_at((0, 0, 5), near=1.0, far=0.5)
        with pytest.raises(RenderError):
            cam.projection_matrix(1.0)

    def test_parallel_up_vector_recovered(self):
        cam = Camera.looking_at((0, 0, 5), target=(0, 0, 0), up=(0, 0, 1))
        m = cam.view_matrix()           # must not blow up
        assert np.isfinite(m).all()

    def test_bad_vertex_shape(self):
        with pytest.raises(RenderError):
            self.make().project_vertices(np.zeros((3, 2)), 10, 10)


def reference_basis(fwd, up):
    """The ``np.cross`` formulation ``look_at_basis`` writes out in
    scalars — kept here as the reference it must equal bit for bit."""
    upn = up / np.linalg.norm(up)
    if abs(float(fwd @ upn)) > 0.999:
        upn = (np.array([1.0, 0.0, 0.0])
               if abs(fwd[0]) < 0.9 else np.array([0.0, 1.0, 0.0]))
    right = np.cross(fwd, upn)
    right /= np.linalg.norm(right)
    return right, np.cross(right, fwd)


def reference_view_matrix(camera):
    fwd = camera.target - camera.position
    fwd = fwd / np.linalg.norm(fwd)
    right, true_up = reference_basis(fwd, camera.up)
    m = np.eye(4)
    m[0, :3] = right
    m[1, :3] = true_up
    m[2, :3] = -fwd
    m[:3, 3] = -m[:3, :3] @ camera.position
    return m


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


#: signed coordinates over six decades, zero included
coordinate = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, mantissa, exponent:
              sign * mantissa * 10.0 ** exponent,
              st.sampled_from((-1.0, 1.0)), st.floats(1.0, 10.0),
              st.integers(-3, 2)))
point = st.tuples(coordinate, coordinate, coordinate)


class TestLookAtBasis:
    """``look_at_basis`` is ``np.cross`` bit for bit, so every frame,
    table and replay downstream of a view matrix keeps its bytes."""

    @staticmethod
    def check(camera):
        fwd = camera.target - camera.position
        fwd = fwd / np.linalg.norm(fwd)
        for got, want in zip(look_at_basis(fwd, camera.up),
                             reference_basis(fwd, camera.up)):
            assert same_bytes(got, want)
        assert same_bytes(camera.view_matrix(),
                          reference_view_matrix(camera))
        return fwd

    @given(point, point, point, st.floats(1e-3, 1e3),
           st.sampled_from((0.0, 1e-9, 1e-4, 1e-2, 1.0)))
    @example((0.0, 0.0, 5.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 3.0, 0.0)
    @example((5.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 0.5, 0.0)
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_the_cross_products(self, position, target,
                                                 wobble, length, blend):
        """Non-unit ``up`` everywhere; ``blend`` 0 puts ``up`` along the
        view direction (the degenerate branch), small blends put it
        just either side of the 0.999 threshold."""
        position, target, wobble = map(np.array, (position, target, wobble))
        fwd = target - position
        assume(np.linalg.norm(fwd) > 0)
        up = length * ((1.0 - blend) * fwd / np.linalg.norm(fwd)
                       + blend * wobble)
        assume(np.linalg.norm(up) > 0)
        self.check(Camera(position=position, target=target, up=up,
                          fov_degrees=45.0))

    @pytest.mark.parametrize("position, axis", [
        ((0.0, 0.0, 5.0), (0.0, -1.0, 0.0)),   # |fwd.x| < 0.9: x stands in
        ((5.0, 0.0, 0.0), (0.0, 0.0, -1.0)),   # otherwise y does
    ])
    def test_degenerate_up_falls_back_on_both_axes(self, position, axis):
        camera = Camera.looking_at(position, up=position)
        fwd = self.check(camera)
        right, _ = look_at_basis(fwd, camera.up)
        assert np.array_equal(right, np.array(axis))

    def test_the_farm_orbit(self):
        from repro.farm import RenderJob

        job = RenderJob(job_id="orbit", session_id="scene", start_frame=1,
                        end_frame=2000, orbit_step_degrees=3.1)
        for index in job.frames:
            self.check(Camera.from_node(job.camera_for(index)))

    def test_the_callers_match_a_run_on_the_reference(self, monkeypatch):
        from repro.data.volumes import VoxelVolume
        from repro.render import stereo, volume
        from repro.scenegraph import picking

        node = CameraNode(position=(2.2, -1.4, 1.2), target=(0.1, 0.0, -0.2),
                          up=(0.1, 0.3, 2.0))
        camera = Camera.from_node(node)
        density = np.random.default_rng(3).random((6, 6, 6),
                                                  dtype=np.float32)
        vol = VoxelVolume(density, spacing=(0.4,) * 3, origin=(-1, -1, -1))

        def run():
            ray = picking.Ray.through_pixel(node, 3, 17, 32, 24)
            left, right = stereo.stereo_cameras(
                camera, head_offset=(0.1, -0.2, 0.3))
            image = volume.raymarch_volume(vol, camera, 16, 12, n_steps=8)
            return [ray.origin, ray.direction, left.position,
                    right.position, image.rgba, image.depth]

        ours = run()
        for module in (picking, stereo, volume):
            monkeypatch.setattr(module, "look_at_basis", reference_basis)
        for got, want in zip(ours, run()):
            assert same_bytes(got, want)


class TestFrameBuffer:
    def test_initial_state(self):
        fb = FrameBuffer(10, 8, background=(1, 2, 3))
        assert fb.width == 10 and fb.height == 8
        assert (fb.color[0, 0] == [1, 2, 3]).all()
        assert np.isinf(fb.depth).all()
        assert fb.coverage() == 0.0

    def test_byte_sizes(self):
        fb = FrameBuffer(200, 200)
        assert fb.nbytes_color == 120_000        # the paper's 120 kB frame
        assert fb.nbytes_with_depth == 120_000 + 160_000

    def test_invalid_size(self):
        with pytest.raises(RenderError):
            FrameBuffer(0, 10)

    def test_copy_independent(self):
        fb = FrameBuffer(4, 4)
        cp = fb.copy()
        cp.color[0, 0] = 255
        assert (fb.color[0, 0] == 0).all()

    def test_plain_buffer_is_the_window_over_its_own_frame(self):
        fb = FrameBuffer(10, 8)
        assert (fb.frame_width, fb.frame_height) == (10, 8)
        assert fb.scissor() == (0, 0, 10, 8)

    def test_window_placed_in_a_frame(self):
        fb = FrameBuffer(4, 3, origin=(6, 5), frame=(10, 8))
        assert fb.color.shape == (3, 4, 3)
        assert fb.scissor() == (6, 5, 10, 8)
        cp = fb.copy()
        assert (cp.scissor(), cp.frame_width, cp.frame_height) == \
            ((6, 5, 10, 8), 10, 8)

    @pytest.mark.parametrize("origin", [(7, 0), (0, 6), (-1, 0)])
    def test_window_must_lie_in_its_frame(self, origin):
        with pytest.raises(RenderError):
            FrameBuffer(4, 3, origin=origin, frame=(10, 8))

    def test_extract_paste_roundtrip(self):
        fb = FrameBuffer(10, 10)
        fb.color[2:5, 3:7] = 200
        fb.depth[2:5, 3:7] = 1.0
        tile = Tile(x0=3, y0=2, width=4, height=3)
        sub = fb.extract(tile)
        assert (sub.color == 200).all()
        target = FrameBuffer(10, 10)
        target.paste(tile, sub)
        assert (target.color[2:5, 3:7] == 200).all()
        assert (target.color[0, 0] == 0).all()

    def test_extract_out_of_bounds(self):
        with pytest.raises(RenderError):
            FrameBuffer(10, 10).extract(Tile(8, 8, 5, 5))

    def test_paste_size_mismatch(self):
        with pytest.raises(RenderError):
            FrameBuffer(10, 10).paste(Tile(0, 0, 4, 4), FrameBuffer(3, 3))

    def test_mean_abs_diff(self):
        a = FrameBuffer(4, 4)
        b = FrameBuffer(4, 4)
        b.color[:] = 10
        assert a.mean_abs_diff(b) == pytest.approx(10.0)
        with pytest.raises(RenderError):
            a.mean_abs_diff(FrameBuffer(5, 5))

    def test_ppm_export(self, tmp_path):
        fb = FrameBuffer(3, 2, background=(255, 0, 0))
        data = fb.to_ppm()
        assert data.startswith(b"P6\n3 2\n255\n")
        assert len(data) == len(b"P6\n3 2\n255\n") + 18
        n = fb.save_ppm(tmp_path / "x.ppm")
        assert (tmp_path / "x.ppm").stat().st_size == n


class TestTiles:
    def test_tile_validation(self):
        with pytest.raises(RenderError):
            Tile(0, 0, 0, 5)
        with pytest.raises(RenderError):
            Tile(-1, 0, 5, 5)

    def test_tile_contains(self):
        t = Tile(2, 3, 4, 5)
        assert t.contains(2, 3) and t.contains(5, 7)
        assert not t.contains(6, 3) and not t.contains(2, 8)

    def test_split_exact_cover(self):
        tiles = split_tiles(100, 60, 3, 2)
        assert len(tiles) == 6
        from repro.render.compositor import check_tiling

        check_tiling(100, 60, tiles)      # raises on gap/overlap

    def test_split_uneven_remainder(self):
        tiles = split_tiles(10, 10, 3, 3)
        from repro.render.compositor import check_tiling

        check_tiling(10, 10, tiles)

    def test_split_bounds(self):
        with pytest.raises(RenderError):
            split_tiles(4, 4, 5, 1)
        with pytest.raises(RenderError):
            split_tiles(10, 10, 0, 1)
