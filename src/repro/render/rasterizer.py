"""Z-buffered triangle rasterization, vectorized over triangle batches.

Strategy (per the HPC guides: vectorize the inner loops, mind memory):

1. project every vertex once (one matrix multiply for the whole mesh);
2. cull faces behind the near plane, zero-area faces, and (optionally)
   backfaces;
3. give each survivor its *span*: the pixels whose centre lies inside its
   bounding box, intersected with the framebuffer and the optional
   ``clip`` tile.  Faces whose span is empty (most of a dense model:
   sub-pixel triangles that straddle no pixel centre) stop here.  The
   remaining spans are laid end to end, in ascending face order, as one
   flat candidate sequence (``np.repeat`` of per-face rows), cut every
   ``max_fragments`` candidates -- through a face if it is a large one --
   and each chunk evaluates the three edge functions for all its
   candidates at once;
4. depth-test with a two-pass scatter: ``np.minimum.at`` builds the winning
   depth per pixel, then the fragments equal to the winner write color.
   Where several tie, **the highest face index wins** -- stated, and
   enforced with ``np.maximum.at``, not left to the order numpy happens
   to assign duplicate indices in.  A fragment that ties with what an
   earlier call left in the z-buffer overwrites it.

The chunk size comes from a byte budget (``_CHUNK_BYTES``) small enough
that a chunk's scratch stays in cache, so peak memory is bounded whatever
the triangle count, and neither it nor ``clip`` can change a pixel: a
pixel's colour and depth depend only on the fragments that land on it.
Perspective-correct depth uses the linear interpolation of ``1/w`` in
screen space.

Near-plane behaviour: faces with any vertex closer than ``camera.near`` are
*dropped*, not clipped — the standard simplification for a z-buffer
renderer whose cameras orbit outside the model (every paper scenario).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.data.meshes import Mesh
from repro.errors import RenderError
from repro.render.camera import Camera
from repro.render.framebuffer import FrameBuffer, Tile
from repro.render.shading import flat_intensity, gouraud_intensity

#: scratch a chunk of candidate pixels may hold at once, and what one
#: candidate costs at the widest point of the span pass (4 int64 and 13
#: float64 repeated face constants, 7 position arrays, 6 edge values and
#: barycentrics, a few expression temporaries)
_CHUNK_BYTES = 2 << 20
_CANDIDATE_BYTES = 256


@dataclass(frozen=True)
class RasterStats:
    """What one rasterization pass did — feeds the engine's timing model."""

    faces_in: int
    faces_culled_near: int
    faces_culled_backface: int
    faces_culled_offscreen: int
    faces_rasterized: int
    fragments: int

    @property
    def visible_fraction(self) -> float:
        return self.faces_rasterized / self.faces_in if self.faces_in else 0.0


def _face_colors(mesh: Mesh, idx: np.ndarray, base_color, shading: str,
                 light_direction
                 ) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Returns (RGB float of faces ``idx``, per-vertex RGB float); one is
    None.  Per-face modes shade only the faces asked for."""
    base = np.asarray(base_color, dtype=np.float64)
    if base.shape != (3,):
        raise RenderError(f"base_color must be RGB; got {base!r}")
    if shading == "gouraud":
        intensity = gouraud_intensity(mesh, light_direction)
        if mesh.colors is not None:
            rgb = mesh.colors.astype(np.float64) * 255.0
        else:
            rgb = np.broadcast_to(base, (mesh.n_vertices, 3))
        return None, intensity[:, None] * rgb
    if shading not in ("flat", "none"):
        raise RenderError(f"unknown shading mode {shading!r}")
    faces = mesh.faces[idx]
    if mesh.colors is not None:
        rgb = mesh.colors[faces].mean(axis=1) * 255.0
    else:
        rgb = np.broadcast_to(base, (len(idx), 3))
    if shading == "flat":
        lit = flat_intensity(Mesh(mesh.vertices, faces), light_direction)
        rgb = lit[:, None] * rgb
    return rgb, None


def rasterize_mesh(mesh: Mesh, camera: Camera, fb: FrameBuffer,
                   base_color=(200, 200, 210), shading: str = "flat",
                   light_direction=None, cull_backfaces: bool = False,
                   max_fragments: int = _CHUNK_BYTES // _CANDIDATE_BYTES,
                   clip: Tile | None = None) -> RasterStats:
    """Rasterize a mesh into ``fb`` (accumulating against its z-buffer).

    ``clip`` scissors the fill to one tile of ``fb``: every face is still
    projected and culled (the counts in ``RasterStats`` do not depend on
    it), but only pixels inside the tile are tested and written, and
    ``fragments`` counts those alone.  ``max_fragments`` caps the candidate
    pixels evaluated at once; neither changes a pixel that is drawn.
    """
    n_in = mesh.n_triangles
    if n_in == 0:
        return RasterStats(0, 0, 0, 0, 0, 0)

    width, height = fb.width, fb.height
    screen, _ = camera.project_vertices(mesh.vertices, width, height)
    tri = np.take(screen, mesh.faces, axis=0)    # (face, corner, x/y/w)
    x0, x1, x2 = tri[:, 0, 0], tri[:, 1, 0], tri[:, 2, 0]
    y0, y1, y2 = tri[:, 0, 1], tri[:, 1, 1], tri[:, 2, 1]

    # -- cull: near plane ------------------------------------------------------
    w0, w1, w2 = tri[:, 0, 2], tri[:, 1, 2], tri[:, 2, 2]
    in_front = (w0 > camera.near) & (w1 > camera.near) & (w2 > camera.near)
    n_near = int((~in_front).sum())

    # -- cull: degenerate / backface --------------------------------------------
    area = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
    if cull_backfaces:
        facing = area < -1e-12  # CCW in y-down screen space
    else:
        facing = np.abs(area) > 1e-12
    n_back = int((in_front & ~facing).sum())
    keep = in_front & facing

    # -- cull: boxes that, rounded out to whole pixels, miss the framebuffer ---------
    xmin = np.minimum(np.minimum(x0, x1), x2)
    xmax = np.maximum(np.maximum(x0, x1), x2)
    ymin = np.minimum(np.minimum(y0, y1), y2)
    ymax = np.maximum(np.maximum(y0, y1), y2)
    on_screen = (xmax > -1) & (xmin < width) & (ymax > -1) & (ymin < height)
    n_off = int((keep & ~on_screen).sum())
    keep &= on_screen
    n_kept = int(keep.sum())

    # -- spans: the pixels whose centre lies in the box, scissored --------------------
    sx0, sy0, sx1, sy1 = fb.scissor(clip)
    x_lo = np.maximum(np.ceil(xmin - 0.5), sx0)
    y_lo = np.maximum(np.ceil(ymin - 0.5), sy0)
    nx = np.minimum(np.floor(xmax - 0.5) + 1, sx1) - x_lo
    ny = np.minimum(np.floor(ymax - 0.5) + 1, sy1) - y_lo
    idx = np.nonzero(keep & (nx >= 1) & (ny >= 1))[0]   # ascending face order
    stats = partial(RasterStats, n_in, n_near, n_back, n_off, n_kept)
    if not len(idx):
        return stats(0)
    nx = nx[idx].astype(np.int64)
    counts = nx * ny[idx].astype(np.int64)
    ends = np.cumsum(counts)          # candidates up to and including a face
    starts = ends - counts

    # -- per-face rows the span pass repeats once per candidate pixel ------------------
    span = np.stack([x_lo[idx].astype(np.int64), y_lo[idx].astype(np.int64),
                     nx, starts], axis=1)
    x0, x1, x2, y0, y1, y2 = (v[idx] for v in (x0, x1, x2, y0, y1, y2))
    edge = np.stack([x1 - x0, y1 - y0, x0, y0,
                     x2 - x1, y2 - y1, x1, y1,
                     x0 - x2, y0 - y2, x2, y2, 1.0 / area[idx]], axis=1)
    inv_w = 1.0 / tri[idx, :, 2]

    face_rgb = vert_rgb = None
    textured = mesh.texture is not None and mesh.uv is not None
    if textured:
        # texture modulated by Gouraud intensity; uv interpolated like
        # vertex colors (screen-space barycentric, same approximation)
        vert_uv = mesh.uv.astype(np.float64)
        vert_intensity = gouraud_intensity(mesh, light_direction)
    else:
        face_rgb, vert_rgb = _face_colors(mesh, idx, base_color, shading,
                                          light_direction)

    depth_flat = fb.depth.reshape(-1)
    color_flat = fb.color.reshape(-1, 3)
    last = np.empty(width * height, dtype=np.int64)   # scratch of the tie rule
    fragments = 0
    total, step = int(ends[-1]), max(1, max_fragments)
    for c0 in range(0, total, step):
        # candidates [c0, c1) of the sequence, whichever faces they belong to
        c1 = min(c0 + step, total)
        lo = int(np.searchsorted(ends, c0, side="right"))
        hi = int(np.searchsorted(starts, c1, side="left"))
        n = np.minimum(ends[lo:hi], c1) - np.maximum(starts[lo:hi], c0)
        g = np.repeat(span[lo:hi], n, axis=0)
        e = np.repeat(edge[lo:hi], n, axis=0)
        face_of = np.repeat(np.arange(lo, hi), n)
        local = np.arange(c0, c1) - g[:, 3]
        row = local // g[:, 2]
        px = g[:, 0] + (local - row * g[:, 2])
        py = g[:, 1] + row
        cx = px + 0.5
        cy = py + 0.5
        l0 = e[:, 0] * (cy - e[:, 3]) - e[:, 1] * (cx - e[:, 2])
        l1 = e[:, 4] * (cy - e[:, 7]) - e[:, 5] * (cx - e[:, 6])
        l2 = e[:, 8] * (cy - e[:, 11]) - e[:, 9] * (cx - e[:, 10])
        # normalized barycentric (l1 is opposite vertex 0, etc.)
        b0 = l1 * e[:, 12]
        b1 = l2 * e[:, 12]
        b2 = l0 * e[:, 12]
        hit = np.nonzero((b0 >= 0) & (b1 >= 0) & (b2 >= 0))[0]
        if not len(hit):
            continue
        fragments += len(hit)
        b0, b1, b2, face_of = b0[hit], b1[hit], b2[hit], face_of[hit]
        pix = py[hit] * width + px[hit]
        # perspective-correct depth: interpolate 1/w linearly
        iw = inv_w[face_of]
        inv_depth = b0 * iw[:, 0] + b1 * iw[:, 1] + b2 * iw[:, 2]
        z = (1.0 / inv_depth).astype(np.float32)
        # pass 1: winning depth per pixel
        np.minimum.at(depth_flat, pix, z)
        # pass 2: of the fragments that won, the highest face index writes
        # color -- fragments are in ascending face order, so the last one
        won = np.nonzero(depth_flat[pix] == z)[0]
        pix, order = pix[won], np.arange(len(won))
        last[pix] = 0
        np.maximum.at(last, pix, order)
        top = last[pix] == order
        pix, won = pix[top], won[top]
        fw = face_of[won]
        if face_rgb is not None:
            rgb = face_rgb[fw]
        else:
            corner = mesh.faces[idx[fw]]                  # (n, 3) vertex ids
            bb0, bb1, bb2 = b0[won], b1[won], b2[won]
            if textured:
                vu, vi = vert_uv[corner], vert_intensity[corner]
                u = bb0 * vu[:, 0, 0] + bb1 * vu[:, 1, 0] + bb2 * vu[:, 2, 0]
                v_coord = (bb0 * vu[:, 0, 1] + bb1 * vu[:, 1, 1]
                           + bb2 * vu[:, 2, 1])
                intensity = bb0 * vi[:, 0] + bb1 * vi[:, 1] + bb2 * vi[:, 2]
                rgb = mesh.texture.sample(u % 1.0, v_coord % 1.0) \
                    * intensity[:, None]
            else:
                vr = vert_rgb[corner]                     # (n, 3, 3)
                rgb = (bb0[:, None] * vr[:, 0] + bb1[:, None] * vr[:, 1]
                       + bb2[:, None] * vr[:, 2])
        color_flat[pix] = np.clip(rgb, 0.0, 255.0).astype(np.uint8)

    return stats(fragments)
