"""Mesh container: validation, geometry, splitting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.meshes import Mesh, merge_meshes
from repro.errors import DataFormatError


class TestValidation:
    def test_bad_vertex_shape(self):
        with pytest.raises(DataFormatError):
            Mesh(np.zeros((3, 2)), np.zeros((1, 3), np.int32))

    def test_bad_face_shape(self):
        with pytest.raises(DataFormatError):
            Mesh(np.zeros((3, 3)), np.zeros((1, 4), np.int32))

    def test_face_index_out_of_range(self):
        with pytest.raises(DataFormatError):
            Mesh(np.zeros((3, 3)), np.array([[0, 1, 3]], np.int32))

    def test_negative_face_index(self):
        with pytest.raises(DataFormatError):
            Mesh(np.zeros((3, 3)), np.array([[0, 1, -1]], np.int32))

    def test_color_shape_mismatch(self):
        with pytest.raises(DataFormatError):
            Mesh(np.zeros((3, 3)), np.array([[0, 1, 2]], np.int32),
                 colors=np.zeros((2, 3)))

    def test_empty_mesh_allowed(self):
        m = Mesh(np.zeros((0, 3)), np.zeros((0, 3), np.int32))
        assert m.n_vertices == 0
        assert m.n_triangles == 0
        assert m.byte_size == 0

    def test_dtype_coercion(self, triangle):
        assert triangle.vertices.dtype == np.float32
        assert triangle.faces.dtype == np.int32


class TestGeometry:
    def test_bounds(self, quad):
        lo, hi = quad.bounds()
        assert np.allclose(lo, [-1, -1, 0])
        assert np.allclose(hi, [1, 1, 0])

    def test_centroid(self, quad):
        assert np.allclose(quad.centroid(), [0, 0, 0])

    def test_face_normals_unit(self, quad):
        n = quad.face_normals()
        assert np.allclose(np.linalg.norm(n, axis=1), 1.0)
        assert np.allclose(np.abs(n[:, 2]), 1.0)  # planar quad

    def test_degenerate_face_zero_normal(self):
        m = Mesh(np.zeros((3, 3), np.float32),
                 np.array([[0, 1, 2]], np.int32))
        assert np.allclose(m.face_normals(), 0.0)

    def test_face_areas(self, quad):
        assert quad.face_areas().sum() == pytest.approx(4.0)

    def test_vertex_normals_unit(self, quad):
        vn = quad.vertex_normals()
        assert np.allclose(np.linalg.norm(vn, axis=1), 1.0)

    def test_stats(self, quad):
        s = quad.stats()
        assert s.n_vertices == 4
        assert s.n_triangles == 2
        assert s.surface_area == pytest.approx(4.0)
        assert s.byte_size == quad.byte_size
        assert s.extent == pytest.approx((2.0, 2.0, 0.0))


class TestImmutability:
    @pytest.fixture
    def full(self, quad):
        from repro.data.textures import checkerboard

        return Mesh(quad.vertices, quad.faces,
                    colors=np.full((4, 3), 0.5), uv=np.zeros((4, 2)),
                    texture=checkerboard(8, 2))

    @pytest.mark.parametrize("attr", ["vertices", "faces", "colors", "uv"])
    def test_arrays_are_read_only(self, full, attr):
        with pytest.raises(ValueError):
            getattr(full, attr)[0, 0] = 1

    def test_callers_array_keeps_its_flags(self):
        verts = np.zeros((3, 3), np.float32)
        m = Mesh(verts, np.array([[0, 1, 2]], np.int32))
        assert verts.flags.writeable and not m.vertices.flags.writeable

    def test_derived_arrays_are_kept_and_read_only(self, quad):
        for derived in (quad.face_normals, quad.homogeneous,
                        lambda: quad.corner_indices()[1]):
            first = derived()
            assert derived() is first
            with pytest.raises(ValueError):
                first[0] = 0
        assert np.array_equal(quad.homogeneous()[:, :3], quad.vertices)
        assert np.all(quad.homogeneous()[:, 3] == 1.0)
        assert quad.homogeneous().dtype == np.float64
        for k, column in enumerate(quad.corner_indices()):
            assert column.flags.c_contiguous
            assert np.array_equal(column, quad.faces[:, k])

    def test_kept_holds_one_value_per_name(self, quad):
        builds = []

        def build():
            builds.append(1)
            return np.arange(3)

        assert quad.kept("x", build, key="a") is quad.kept("x", build, key="a")
        assert len(builds) == 1
        quad.kept("x", build, key="b")
        quad.kept("x", build, key="a")          # "a" was not held on to
        assert len(builds) == 3

    def test_derived_data_is_not_payload(self, full):
        from repro.network.marshalling import BinaryMarshaller
        from repro.scenegraph.nodes import MeshNode, node_from_wire, \
            node_to_wire

        def wire(mesh):
            return BinaryMarshaller().marshal(
                node_to_wire(MeshNode(mesh, name="n"))).data

        fresh_bytes, fresh_size = wire(full), full.byte_size
        assert fresh_size == sum(a.nbytes for a in (
            full.vertices, full.faces, full.colors, full.uv,
            full.texture.image))
        for prepare in (full.face_normals, full.homogeneous,
                        full.corner_indices):
            prepare()
        full.kept("anything", lambda: np.zeros(1000))
        assert wire(full) == fresh_bytes
        assert full.byte_size == fresh_size == full.stats().byte_size
        value, _ = BinaryMarshaller().demarshal(fresh_bytes)
        back = node_from_wire(value).mesh
        for attr in ("vertices", "faces", "colors", "uv"):
            assert getattr(back, attr).tobytes() == \
                getattr(full, attr).tobytes()
        assert back.face_normals() is not full.face_normals()

    def test_derived_data_belongs_to_one_mesh(self, quad):
        faces = quad.faces
        flipped = Mesh(quad.vertices * np.float32(-2.0), faces)
        assert np.shares_memory(flipped.faces, quad.faces)
        n0, h0 = quad.face_normals(), quad.homogeneous()
        assert flipped.homogeneous() is not h0
        assert np.array_equal(flipped.homogeneous()[:, :3], flipped.vertices)
        moved = quad.transformed(np.diag([1.0, 1.0, -1.0, 1.0]))
        assert moved.face_normals() is not n0
        assert np.array_equal(moved.face_normals(),
                              Mesh(moved.vertices, faces).face_normals())
        assert np.array_equal(quad.face_normals(), n0)
        marker = quad.kept("marker", lambda: "quad's")
        assert moved.kept("marker", lambda: "moved's") != marker


class TestTransforms:
    def test_translated(self, quad):
        t = quad.translated((1.0, 2.0, 3.0))
        assert np.allclose(t.centroid(), [1, 2, 3])

    def test_scaled(self, quad):
        assert quad.scaled(2.0).face_areas().sum() == pytest.approx(16.0)

    def test_transformed_matches_translate(self, quad):
        m = np.eye(4)
        m[:3, 3] = [5, 0, 0]
        assert np.allclose(quad.transformed(m).vertices,
                           quad.translated((5, 0, 0)).vertices)

    def test_transformed_requires_4x4(self, quad):
        with pytest.raises(ValueError):
            quad.transformed(np.eye(3))

    def test_normalized(self, quad):
        big = quad.scaled(37.0).translated((100, 0, 0))
        n = big.normalized()
        lo, hi = n.bounds()
        assert float((hi - lo).max()) == pytest.approx(2.0)
        assert np.allclose((lo + hi) / 2, 0.0, atol=1e-5)


class TestSplitting:
    def test_submesh_reindexes(self, quad):
        sub = quad.submesh(np.array([True, False]))
        assert sub.n_triangles == 1
        assert sub.n_vertices == 3                       # unused vertex gone
        assert sub.faces.max() < sub.n_vertices

    def test_submesh_mask_shape_checked(self, quad):
        with pytest.raises(ValueError):
            quad.submesh(np.array([True]))

    def test_split_preserves_triangle_count(self, small_galleon):
        pieces = small_galleon.split_spatially(4)
        assert sum(p.n_triangles for p in pieces) == small_galleon.n_triangles

    def test_split_balanced(self, small_galleon):
        pieces = small_galleon.split_spatially(4)
        counts = [p.n_triangles for p in pieces]
        assert max(counts) - min(counts) <= 1

    def test_split_spatial_coherence(self, small_galleon):
        """Pieces along the split axis should come out in sorted order."""
        lo, hi = small_galleon.bounds()
        axis = int(np.argmax(hi - lo))
        pieces = small_galleon.split_spatially(3, axis=axis)
        centers = [p.centroid()[axis] for p in pieces]
        assert centers == sorted(centers)

    def test_split_one_part_is_identity(self, quad):
        assert quad.split_spatially(1)[0] is quad

    def test_split_invalid(self, quad):
        with pytest.raises(ValueError):
            quad.split_spatially(0)

    def test_merge_roundtrip(self, quad, triangle):
        merged = merge_meshes([quad, triangle])
        assert merged.n_triangles == 3
        assert merged.n_vertices == 7
        assert merged.faces.max() < merged.n_vertices

    def test_merge_empty(self):
        m = merge_meshes([])
        assert m.n_triangles == 0

    def test_merge_mixed_colors(self, quad):
        colored = Mesh(quad.vertices, quad.faces,
                       colors=np.ones_like(quad.vertices))
        merged = merge_meshes([quad, colored])
        assert merged.colors is not None
        assert len(merged.colors) == merged.n_vertices


@st.composite
def random_meshes(draw):
    n_verts = draw(st.integers(min_value=3, max_value=30))
    n_faces = draw(st.integers(min_value=1, max_value=40))
    verts = draw(st.lists(
        st.tuples(*[st.floats(-100, 100, allow_nan=False)] * 3),
        min_size=n_verts, max_size=n_verts))
    faces = draw(st.lists(
        st.tuples(*[st.integers(0, n_verts - 1)] * 3),
        min_size=n_faces, max_size=n_faces))
    return Mesh(np.asarray(verts, np.float32), np.asarray(faces, np.int32))


class TestProperties:
    @given(random_meshes())
    @settings(max_examples=40, deadline=None)
    def test_split_partitions_faces(self, mesh):
        pieces = mesh.split_spatially(3)
        assert sum(p.n_triangles for p in pieces) == mesh.n_triangles
        for p in pieces:
            if p.n_triangles:
                assert p.faces.max() < p.n_vertices

    @given(random_meshes())
    @settings(max_examples=40, deadline=None)
    def test_normals_never_nan(self, mesh):
        assert np.isfinite(mesh.face_normals()).all()
        assert np.isfinite(mesh.vertex_normals()).all()

    @given(random_meshes(), st.floats(0.1, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_area_scales_quadratically(self, mesh, factor):
        a0 = mesh.face_areas().sum()
        a1 = mesh.scaled(factor).face_areas().sum()
        assert a1 == pytest.approx(a0 * factor * factor, rel=1e-3)
