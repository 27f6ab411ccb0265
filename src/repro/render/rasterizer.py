"""Z-buffered triangle rasterization, vectorized over triangle batches.

Strategy (per the HPC guides: vectorize the inner loops, mind memory).
Every per-vertex and per-face quantity is its own contiguous 1-D array from
projection to the span loop (structure of arrays: no ``(F, 3, 3)`` block,
no strided column reads), and whatever no camera can change is prepared
once per mesh and kept on it (``Mesh.kept``; a ``Mesh`` is immutable):

1. *per mesh, once:* the corner-index arrays ``f0, f1, f2`` ``(F,)``, the
   homogeneous float64 vertices ``(V, 4)``, the unit face normals, and --
   keyed by ``(base_color, shading, light_direction)`` -- the final
   ``uint8`` colour of every face (``flat`` / ``none``) or the lit float
   colour / intensity of every vertex (Gouraud, textured);
   *per frame:* one matrix multiply projects the homogeneous vertices to
   ``x_px, y_px, w`` ``(V,)`` and nine gathers (``x_px[f0]`` ...) give the
   corner coordinates ``(F,)``;
2. cull faces behind the near plane (a per-vertex test, gathered per
   face), zero-area faces, and (optionally) backfaces;
3. give each survivor its *span*: the pixels whose centre lies inside its
   bounding box, intersected with the framebuffer's window onto the
   frame (``FrameBuffer.scissor``).  Faces whose span is empty (most of a
   dense model: sub-pixel triangles that straddle no pixel centre) stop
   here.  Pixels are indexed relative to the window's origin.  The
   remaining ``k`` spans are laid end to end, in ascending face order, as
   one flat candidate sequence, cut every ``max_fragments`` candidates --
   through a face if it is a large one.  Their per-face constants are the
   rows of a ``(4, k)`` span table and a ``(13, k)`` edge table, so a
   chunk's ``np.repeat(..., axis=1)`` hands every constant to every
   candidate as a contiguous row, and each chunk evaluates the three edge
   functions for all its candidates at once;
4. depth-test with a two-pass scatter: ``np.minimum.at`` builds the winning
   depth per pixel, then the fragments equal to the winner write color.
   Where several tie, **the highest face index wins** -- stated, and
   enforced with ``np.maximum.at``, not left to the order numpy happens
   to assign duplicate indices in.  A fragment that ties with what an
   earlier call left in the z-buffer overwrites it.  Per-face modes end
   in one table lookup per winner; Gouraud and textured meshes run the
   same pass and interpolate for the winners only.

The chunk size comes from a byte budget (``_CHUNK_BYTES``) small enough
that a chunk's scratch stays in cache, so peak memory is bounded whatever
the triangle count, and neither it nor the window can change a pixel: a
pixel's colour and depth depend only on the fragments that land on it.
The budget bounds the peak; keeping those pages between calls is the
heap's job.  Importing :mod:`repro.render` pins glibc's mmap and trim
thresholds, so freed scratch is reused by the next chunk, tile and frame
instead of being unmapped and faulted in again.  The trade: a process's
resident set stays at its high-water mark, since freed memory is not
handed back to the kernel.
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
from repro.render.framebuffer import FrameBuffer
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


def _key(*parts) -> tuple:
    """What a kept table was built from, in a form ``==`` can compare."""
    return tuple(None if part is None
                 else np.asarray(part, dtype=np.float64).tobytes()
                 for part in parts)


def _face_palette(mesh: Mesh, base_color, shading: str, light_direction
                  ) -> np.ndarray:
    """The final ``uint8`` RGB of every face under a per-face mode, kept
    with the mesh for as long as colour, mode and light stay the same."""
    def build():
        if mesh.colors is not None:
            rgb = mesh.colors[mesh.faces].mean(axis=1) * 255.0
        else:
            rgb = np.broadcast_to(np.asarray(base_color, dtype=np.float64),
                                  (mesh.n_triangles, 3))
        if shading == "flat":
            rgb = flat_intensity(mesh, light_direction)[:, None] * rgb
        return np.clip(rgb, 0.0, 255.0).astype(np.uint8)
    return mesh.kept("face_palette", build,
                     (shading, *_key(base_color, light_direction)))


def _vertex_intensity(mesh: Mesh, light_direction) -> np.ndarray:
    """Gouraud intensity of every vertex, kept while the light stays."""
    return mesh.kept("vertex_intensity",
                     lambda: gouraud_intensity(mesh, light_direction),
                     _key(light_direction))


def _vertex_rgb(mesh: Mesh, base_color, light_direction) -> np.ndarray:
    """Lit float RGB of every vertex (Gouraud), kept like the palette."""
    def build():
        if mesh.colors is not None:
            rgb = mesh.colors.astype(np.float64) * 255.0
        else:
            rgb = np.broadcast_to(np.asarray(base_color, dtype=np.float64),
                                  (mesh.n_vertices, 3))
        return _vertex_intensity(mesh, light_direction)[:, None] * rgb
    return mesh.kept("vertex_rgb", build, _key(base_color, light_direction))


def rasterize_mesh(mesh: Mesh, camera: Camera, fb: FrameBuffer,
                   base_color=(200, 200, 210), shading: str = "flat",
                   light_direction=None, cull_backfaces: bool = False,
                   max_fragments: int = _CHUNK_BYTES // _CANDIDATE_BYTES
                   ) -> RasterStats:
    """Rasterize a mesh into ``fb`` (accumulating against its z-buffer).

    Every face is projected and culled against ``fb``'s whole frame (the
    counts in ``RasterStats`` do not depend on the window), but only
    pixels inside the window are tested and written, and ``fragments``
    counts those alone.  ``max_fragments`` caps the candidate pixels
    evaluated at once; neither changes a pixel that is drawn.
    """
    n_in = mesh.n_triangles
    if n_in == 0:
        return RasterStats(0, 0, 0, 0, 0, 0)

    width, height = fb.frame_width, fb.frame_height
    f0, f1, f2 = mesh.corner_indices()
    sx, sy, w = camera.project_homogeneous(mesh.homogeneous(), width, height)
    x0, x1, x2 = sx[f0], sx[f1], sx[f2]
    y0, y1, y2 = sy[f0], sy[f1], sy[f2]

    # -- cull: near plane ------------------------------------------------------
    front = w > camera.near
    in_front = front[f0] & front[f1] & front[f2]
    n_near = n_in - int(np.count_nonzero(in_front))

    # -- cull: degenerate / backface --------------------------------------------
    area = (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0)
    if cull_backfaces:
        facing = area < -1e-12  # CCW in y-down screen space
    else:
        facing = np.abs(area) > 1e-12
    keep = in_front & facing
    n_back = n_in - n_near - int(np.count_nonzero(keep))

    # -- cull: boxes that, rounded out to whole pixels, miss the framebuffer ---------
    xmin = np.minimum(np.minimum(x0, x1), x2)
    xmax = np.maximum(np.maximum(x0, x1), x2)
    ymin = np.minimum(np.minimum(y0, y1), y2)
    ymax = np.maximum(np.maximum(y0, y1), y2)
    keep &= (xmax > -1) & (xmin < width) & (ymax > -1) & (ymin < height)
    n_kept = int(np.count_nonzero(keep))
    n_off = n_in - n_near - n_back - n_kept

    # -- spans: the pixels whose centre lies in the box, scissored --------------------
    sx0, sy0, sx1, sy1 = fb.scissor()
    x_lo = np.maximum(np.ceil(xmin - 0.5), sx0)
    y_lo = np.maximum(np.ceil(ymin - 0.5), sy0)
    nx = np.minimum(np.floor(xmax - 0.5) + 1, sx1) - x_lo
    ny = np.minimum(np.floor(ymax - 0.5) + 1, sy1) - y_lo
    idx = np.flatnonzero(keep & (nx >= 1) & (ny >= 1))   # ascending face order
    stats = partial(RasterStats, n_in, n_near, n_back, n_off, n_kept)
    if not len(idx):
        return stats(0)
    nx = nx[idx].astype(np.int64)
    counts = nx * ny[idx].astype(np.int64)
    ends = np.cumsum(counts)          # candidates up to and including a face
    starts = ends - counts

    # -- per-face constants, a table row each, repeated once per candidate pixel --------
    span = np.stack([x_lo[idx].astype(np.int64), y_lo[idx].astype(np.int64),
                     nx, starts])
    f0, f1, f2 = f0[idx], f1[idx], f2[idx]
    x0, x1, x2, y0, y1, y2 = (v[idx] for v in (x0, x1, x2, y0, y1, y2))
    edge = np.stack([x1 - x0, y1 - y0, x0, y0,
                     x2 - x1, y2 - y1, x1, y1,
                     x0 - x2, y0 - y2, x2, y2, 1.0 / area[idx]])
    inv_w0, inv_w1, inv_w2 = 1.0 / w[f0], 1.0 / w[f1], 1.0 / w[f2]

    palette = vert_rgb = None
    textured = mesh.texture is not None and mesh.uv is not None
    if textured:
        # texture modulated by Gouraud intensity; uv interpolated like
        # vertex colors (screen-space barycentric, same approximation)
        vert_uv = mesh.kept("uv64", lambda: mesh.uv.astype(np.float64))
        vert_intensity = _vertex_intensity(mesh, light_direction)
    else:
        if np.shape(base_color) != (3,):
            raise RenderError(f"base_color must be RGB; got {base_color!r}")
        if shading == "gouraud":
            vert_rgb = _vertex_rgb(mesh, base_color, light_direction)
        elif shading in ("flat", "none"):
            palette = _face_palette(mesh, base_color, shading,
                                    light_direction)
        else:
            raise RenderError(f"unknown shading mode {shading!r}")

    # frame pixel (px, py) is window pixel py * stride + px - offset
    stride, offset = fb.width, sy0 * fb.width + sx0
    depth_flat = fb.depth.reshape(-1)
    color_flat = fb.color.reshape(-1, 3)
    last = np.empty(fb.pixels, dtype=np.int64)   # scratch of the tie rule
    fragments = 0
    total, step = int(ends[-1]), max(1, max_fragments)
    for c0 in range(0, total, step):
        # candidates [c0, c1) of the sequence, whichever faces they belong to
        c1 = min(c0 + step, total)
        lo = int(np.searchsorted(ends, c0, side="right"))
        hi = int(np.searchsorted(starts, c1, side="left"))
        n = np.minimum(ends[lo:hi], c1) - np.maximum(starts[lo:hi], c0)
        g_x, g_y, g_nx, g_start = np.repeat(span[:, lo:hi], n, axis=1)
        (ex0, ey0, vx0, vy0, ex1, ey1, vx1, vy1, ex2, ey2, vx2, vy2,
         inv_area) = np.repeat(edge[:, lo:hi], n, axis=1)
        face_of = np.repeat(np.arange(lo, hi), n)
        row, col = np.divmod(np.arange(c0, c1) - g_start, g_nx)
        px = g_x + col
        py = g_y + row
        cx = px + 0.5
        cy = py + 0.5
        l0 = ex0 * (cy - vy0) - ey0 * (cx - vx0)
        l1 = ex1 * (cy - vy1) - ey1 * (cx - vx1)
        l2 = ex2 * (cy - vy2) - ey2 * (cx - vx2)
        # normalized barycentric (l1 is opposite vertex 0, etc.)
        b0 = l1 * inv_area
        b1 = l2 * inv_area
        b2 = l0 * inv_area
        hit = np.nonzero((b0 >= 0) & (b1 >= 0) & (b2 >= 0))[0]
        if not len(hit):
            continue
        fragments += len(hit)
        b0, b1, b2, face_of = b0[hit], b1[hit], b2[hit], face_of[hit]
        pix = py[hit] * stride + px[hit] - offset
        # perspective-correct depth: interpolate 1/w linearly
        inv_depth = (b0 * inv_w0[face_of] + b1 * inv_w1[face_of]
                     + b2 * inv_w2[face_of])
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
        if palette is not None:
            color_flat[pix] = palette[idx[fw]]
            continue
        v0, v1, v2 = f0[fw], f1[fw], f2[fw]
        bb0, bb1, bb2 = b0[won], b1[won], b2[won]
        if textured:
            u = (bb0 * vert_uv[v0, 0] + bb1 * vert_uv[v1, 0]
                 + bb2 * vert_uv[v2, 0])
            v_coord = (bb0 * vert_uv[v0, 1] + bb1 * vert_uv[v1, 1]
                       + bb2 * vert_uv[v2, 1])
            intensity = (bb0 * vert_intensity[v0] + bb1 * vert_intensity[v1]
                         + bb2 * vert_intensity[v2])
            rgb = mesh.texture.sample(u % 1.0, v_coord % 1.0) \
                * intensity[:, None]
        else:
            rgb = (bb0[:, None] * vert_rgb[v0] + bb1[:, None] * vert_rgb[v1]
                   + bb2[:, None] * vert_rgb[v2])
        color_flat[pix] = np.clip(rgb, 0.0, 255.0).astype(np.uint8)

    return stats(fragments)
