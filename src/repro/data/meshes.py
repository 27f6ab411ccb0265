"""Indexed triangle meshes.

A :class:`Mesh` stores float32 vertices ``(n, 3)`` and int32 faces ``(m, 3)``
— the layout both the rasterizer and the binary marshaller consume without
copies (views, not copies, per the HPC guide).  Optional per-vertex colors
ride along for Gouraud shading.  A mesh never changes after construction,
which is what lets it keep what is derived from it (:meth:`Mesh.kept`).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import DataFormatError


@dataclass(frozen=True)
class MeshStats:
    """Summary statistics used by capacity planning and Table 1."""

    n_vertices: int
    n_triangles: int
    surface_area: float
    bounds_min: tuple[float, float, float]
    bounds_max: tuple[float, float, float]
    byte_size: int

    @property
    def extent(self) -> tuple[float, float, float]:
        return tuple(b - a for a, b in zip(self.bounds_min, self.bounds_max))


def homogeneous_rows(vertices: np.ndarray) -> np.ndarray:
    """``(n, 3)`` positions as float64 ``(n, 4)`` rows ``(x, y, z, 1)``, the
    operand of a 4x4 transform."""
    vh = np.empty((len(vertices), 4))
    vh[:, :3] = vertices
    vh[:, 3] = 1.0
    return vh


def _frozen(array: np.ndarray) -> np.ndarray:
    """A read-only view (the caller's own array keeps its flags)."""
    view = array.view()
    view.flags.writeable = False
    return view


class Mesh:
    """An indexed triangle mesh, immutable once built.

    ``vertices``, ``faces``, ``colors`` and ``uv`` are read-only views:
    writing through them raises, and ``transformed`` / ``translated`` /
    ``scaled`` / ``submesh`` return new meshes.  Because nothing can change
    under it, a mesh keeps what is derived from it alone -- the corner-index
    arrays, the homogeneous vertices, the face normals, and whatever a
    renderer prepares through :meth:`kept` -- computed on first use.  Kept
    data belongs to one mesh object: it is not marshalled, not counted in
    ``byte_size`` and not carried over to a transformed copy.

    Parameters
    ----------
    vertices:
        ``(n, 3)`` float array of positions; converted to float32.
    faces:
        ``(m, 3)`` integer array of vertex indices; converted to int32.
    colors:
        optional ``(n, 3)`` float array of per-vertex RGB in [0, 1].
    uv:
        optional ``(n, 2)`` float array of texture coordinates in [0, 1).
    texture:
        optional :class:`~repro.data.textures.Texture` sampled through
        ``uv`` (its bytes count against a render service's texture memory).
    name:
        human-readable label carried through scene graphs and services.
    """

    __slots__ = ("vertices", "faces", "colors", "uv", "texture", "name",
                 "_kept")

    def __init__(
        self,
        vertices: np.ndarray,
        faces: np.ndarray,
        colors: np.ndarray | None = None,
        name: str = "mesh",
        uv: np.ndarray | None = None,
        texture=None,
    ) -> None:
        vertices = np.ascontiguousarray(vertices, dtype=np.float32)
        faces = np.ascontiguousarray(faces, dtype=np.int32)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise DataFormatError(f"vertices must be (n, 3); got {vertices.shape}")
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise DataFormatError(f"faces must be (m, 3); got {faces.shape}")
        if faces.size and (faces.min() < 0 or faces.max() >= len(vertices)):
            raise DataFormatError(
                f"face indices out of range [0, {len(vertices)}): "
                f"min={faces.min() if faces.size else 0}, "
                f"max={faces.max() if faces.size else 0}"
            )
        if colors is not None:
            colors = np.ascontiguousarray(colors, dtype=np.float32)
            if colors.shape != vertices.shape:
                raise DataFormatError(
                    f"colors must match vertices shape {vertices.shape}; "
                    f"got {colors.shape}"
                )
        if uv is not None:
            uv = np.ascontiguousarray(uv, dtype=np.float32)
            if uv.shape != (len(vertices), 2):
                raise DataFormatError(
                    f"uv must be ({len(vertices)}, 2); got {uv.shape}")
        if texture is not None and uv is None:
            raise DataFormatError("a textured mesh needs uv coordinates")
        self.vertices = _frozen(vertices)
        self.faces = _frozen(faces)
        self.colors = None if colors is None else _frozen(colors)
        self.uv = None if uv is None else _frozen(uv)
        self.texture = texture
        self.name = name
        self._kept: dict[str, tuple[Any, Any]] = {}

    # -- basic properties ---------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.faces)

    @property
    def byte_size(self) -> int:
        """In-memory payload size (what the binary data plane transmits)."""
        size = self.vertices.nbytes + self.faces.nbytes
        if self.colors is not None:
            size += self.colors.nbytes
        if self.uv is not None:
            size += self.uv.nbytes
        if self.texture is not None:
            size += self.texture.nbytes
        return size

    @property
    def texture_bytes(self) -> int:
        """Texture-memory demand on a render service (0 when untextured)."""
        return self.texture.nbytes if self.texture is not None else 0

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned bounding box as ``(min_xyz, max_xyz)`` float32 arrays."""
        if not len(self.vertices):
            zero = np.zeros(3, dtype=np.float32)
            return zero, zero.copy()
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def centroid(self) -> np.ndarray:
        if not len(self.vertices):
            return np.zeros(3, dtype=np.float32)
        return self.vertices.mean(axis=0)

    # -- derived geometry ---------------------------------------------------

    def kept(self, name: str, build: Callable[[], Any], key: Any = None):
        """Data derived from this mesh alone, built on first use and kept.

        One value per ``name``; it is rebuilt when ``key`` (whatever else
        it was built from, e.g. a light direction) differs from the last
        one, so a mesh never holds more than one value per name.  Arrays
        come back read-only, like the mesh's own.
        """
        hit = self._kept.get(name)
        if hit is None or hit[0] != key:
            value = build()
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            hit = self._kept[name] = (key, value)
        return hit[1]

    def corner_indices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three columns of ``faces`` as contiguous ``(m,)`` index
        arrays -- what a gather per corner (``x[f0]``) wants."""
        return self.kept("corners", lambda: tuple(
            _frozen(np.ascontiguousarray(self.faces[:, k], dtype=np.intp))
            for k in range(3)))

    def homogeneous(self) -> np.ndarray:
        """:func:`homogeneous_rows` of the vertices."""
        return self.kept("homogeneous",
                         lambda: homogeneous_rows(self.vertices))

    def triangle_corners(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three ``(m, 3)`` corner arrays, one gathered copy each."""
        v = self.vertices
        f = self.faces
        return (v.take(f[:, 0], axis=0), v.take(f[:, 1], axis=0),
                v.take(f[:, 2], axis=0))

    def face_normals(self) -> np.ndarray:
        """Unit face normals, ``(m, 3)``; degenerate faces get a zero normal."""
        def build():
            a, b, c = self.triangle_corners()
            n = np.cross(b - a, c - a)
            length = np.linalg.norm(n, axis=1, keepdims=True)
            # Avoid divide-by-zero on degenerate (zero-area) triangles.
            np.maximum(length, np.finfo(np.float32).tiny, out=length)
            return (n / length).astype(np.float32)
        return self.kept("face_normals", build)

    def face_areas(self) -> np.ndarray:
        a, b, c = self.triangle_corners()
        return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)

    def vertex_normals(self) -> np.ndarray:
        """Area-weighted per-vertex normals for Gouraud shading."""
        a, b, c = self.triangle_corners()
        fn = np.cross(b - a, c - a)  # area-weighted (unnormalised)
        vn = np.zeros_like(self.vertices, dtype=np.float64)
        for k in range(3):
            np.add.at(vn, self.faces[:, k], fn)
        length = np.linalg.norm(vn, axis=1, keepdims=True)
        np.maximum(length, np.finfo(np.float64).tiny, out=length)
        return (vn / length).astype(np.float32)

    def stats(self) -> MeshStats:
        lo, hi = self.bounds()
        return MeshStats(
            n_vertices=self.n_vertices,
            n_triangles=self.n_triangles,
            surface_area=float(self.face_areas().sum()),
            bounds_min=tuple(float(x) for x in lo),
            bounds_max=tuple(float(x) for x in hi),
            byte_size=self.byte_size,
        )

    # -- transforms ---------------------------------------------------------

    def _with_vertices(self, vertices: np.ndarray) -> Mesh:
        """Copy carrying all attributes but new vertex positions."""
        return Mesh(vertices, self.faces, self.colors, self.name,
                    uv=self.uv, texture=self.texture)

    def transformed(self, matrix: np.ndarray) -> Mesh:
        """Return a copy with vertices transformed by a 4x4 matrix."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape != (4, 4):
            raise ValueError(f"expected 4x4 matrix, got {matrix.shape}")
        v = self.vertices.astype(np.float64)
        w = v @ matrix[:3, :3].T + matrix[:3, 3]
        return self._with_vertices(w.astype(np.float32))

    def translated(self, offset) -> Mesh:
        offset = np.asarray(offset, dtype=np.float32)
        return self._with_vertices(self.vertices + offset)

    def scaled(self, factor: float) -> Mesh:
        return self._with_vertices(self.vertices * np.float32(factor))

    def normalized(self, radius: float = 1.0) -> Mesh:
        """Center on the origin and scale the largest extent to ``radius``."""
        lo, hi = self.bounds()
        center = (lo + hi) / 2
        extent = float((hi - lo).max())
        scale = (2.0 * radius / extent) if extent > 0 else 1.0
        return self._with_vertices(
            (self.vertices - center) * np.float32(scale))

    # -- splitting (used by dataset distribution) ----------------------------

    def submesh(self, face_mask: np.ndarray) -> Mesh:
        """Extract the faces selected by a boolean mask, re-indexing vertices.

        This is the primitive behind scene-subset distribution: the data
        service hands each render service a self-contained piece.
        """
        face_mask = np.asarray(face_mask, dtype=bool)
        if face_mask.shape != (self.n_triangles,):
            raise ValueError(
                f"mask must have shape ({self.n_triangles},); got {face_mask.shape}"
            )
        faces = self.faces[face_mask]
        used = np.unique(faces)
        remap = np.full(self.n_vertices, -1, dtype=np.int32)
        remap[used] = np.arange(len(used), dtype=np.int32)
        colors = self.colors[used] if self.colors is not None else None
        uv = self.uv[used] if self.uv is not None else None
        return Mesh(self.vertices[used], remap[faces], colors, self.name,
                    uv=uv, texture=self.texture)

    def split_spatially(self, n_parts: int, axis: int | None = None) -> list["Mesh"]:
        """Split into ``n_parts`` spatially-contiguous pieces along one axis.

        Parts are balanced by *triangle count* (equal-work split), matching
        the paper's goal of handing each recruited render service a share
        proportional to capacity.
        """
        if n_parts < 1:
            raise ValueError("n_parts must be >= 1")
        if n_parts == 1 or self.n_triangles == 0:
            return [self]
        if axis is None:
            lo, hi = self.bounds()
            axis = int(np.argmax(hi - lo))
        a, b, c = self.triangle_corners()
        centers = (a[:, axis] + b[:, axis] + c[:, axis]) / 3.0
        order = np.argsort(centers, kind="stable")
        pieces: list[Mesh] = []
        splits = np.array_split(order, n_parts)
        for idx in splits:
            mask = np.zeros(self.n_triangles, dtype=bool)
            mask[idx] = True
            pieces.append(self.submesh(mask))
        return pieces

    def __repr__(self) -> str:
        return (
            f"Mesh(name={self.name!r}, vertices={self.n_vertices}, "
            f"triangles={self.n_triangles})"
        )


def merge_meshes(meshes: list[Mesh], name: str = "merged") -> Mesh:
    """Concatenate meshes into one, offsetting face indices.

    Per-vertex colors survive (missing ones default to grey).  UVs and the
    texture survive only when every input shares the *same* texture object
    and all carry UVs — a merge across different textures would need an
    atlas, which is out of scope, so it degrades to untextured.
    """
    if not meshes:
        return Mesh(np.zeros((0, 3), np.float32), np.zeros((0, 3), np.int32),
                    name=name)
    verts, faces, colors, uvs = [], [], [], []
    any_colors = any(m.colors is not None for m in meshes)
    shared_texture = meshes[0].texture
    keep_texture = (shared_texture is not None
                    and all(m.texture is shared_texture and m.uv is not None
                            for m in meshes))
    offset = 0
    for m in meshes:
        verts.append(m.vertices)
        faces.append(m.faces + offset)
        if any_colors:
            if m.colors is not None:
                colors.append(m.colors)
            else:
                colors.append(np.full_like(m.vertices, 0.7))
        if keep_texture:
            uvs.append(m.uv)
        offset += m.n_vertices
    return Mesh(
        np.concatenate(verts),
        np.concatenate(faces),
        np.concatenate(colors) if any_colors else None,
        name=name,
        uv=np.concatenate(uvs) if keep_texture else None,
        texture=shared_texture if keep_texture else None,
    )
