"""Point-cloud splatting.

Paper future work ("we will extend our support and rendering services to
include voxel and point based methods"), implemented: each point projects
to a square splat of ``point_size`` pixels, z-tested against the shared
depth buffer so point clouds composite correctly with meshes and volume
slabs.  Vectorized over all points; the splat footprint is a small loop
over ``size^2`` offsets, each a full-array scatter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import RenderError
from repro.render.camera import Camera
from repro.render.framebuffer import FrameBuffer


@dataclass(frozen=True)
class PointStats:
    points_in: int
    points_drawn: int
    fragments: int


def rasterize_points(points: np.ndarray, camera: Camera, fb: FrameBuffer,
                     colors: np.ndarray | None = None,
                     base_color=(230, 220, 180),
                     point_size: int = 1,
                     depth_fade: bool = True) -> PointStats:
    """Splat a point cloud into ``fb``.

    ``depth_fade`` dims distant points slightly, a cheap depth cue matching
    what Java3D point rendering looked like.  As in :func:`rasterize_mesh`,
    every point is projected and faded against ``fb``'s whole frame, and
    only pixels inside its window are written and counted in
    ``fragments``.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise RenderError(f"points must be (n, 3); got {points.shape}")
    if point_size < 1 or point_size > 64:
        raise RenderError(f"point_size must be in [1, 64]; got {point_size}")
    n_in = len(points)
    if n_in == 0:
        return PointStats(0, 0, 0)

    width, height = fb.frame_width, fb.frame_height
    screen, w = camera.project_vertices(points, width, height)
    visible = (w > camera.near)
    px = np.floor(screen[:, 0]).astype(np.int64)
    py = np.floor(screen[:, 1]).astype(np.int64)
    pad = point_size  # allow partially-visible splats at the border
    visible &= (px >= -pad) & (px < width + pad)
    visible &= (py >= -pad) & (py < height + pad)
    sel = np.nonzero(visible)[0]
    if not len(sel):
        return PointStats(n_in, 0, 0)

    px = px[sel]
    py = py[sel]
    z = screen[sel, 2].astype(np.float32)

    if colors is not None:
        colors = np.asarray(colors, dtype=np.float64)
        if colors.shape != (n_in, 3):
            raise RenderError(
                f"colors must be ({n_in}, 3); got {colors.shape}")
        rgb = colors[sel] * 255.0
    else:
        rgb = np.broadcast_to(np.asarray(base_color, dtype=np.float64),
                              (len(sel), 3)).copy()
    if depth_fade:
        zmin, zmax = float(z.min()), float(z.max())
        if zmax > zmin:
            fade = 1.0 - 0.4 * (z - zmin) / (zmax - zmin)
            rgb = rgb * fade[:, None].astype(np.float64)
    rgb8 = np.clip(rgb, 0.0, 255.0).astype(np.uint8)

    depth_flat = fb.depth.reshape(-1)
    color_flat = fb.color.reshape(-1, 3)
    half = (point_size - 1) // 2
    x_lo, y_lo, x_hi, y_hi = fb.scissor()
    # frame pixel (qx, qy) is window pixel qy * stride + qx - offset
    stride, offset = fb.width, y_lo * fb.width + x_lo
    fragments = 0
    for dy in range(point_size):
        for dx in range(point_size):
            qx = px + dx - half
            qy = py + dy - half
            ok = (qx >= x_lo) & (qx < x_hi) & (qy >= y_lo) & (qy < y_hi)
            if not ok.any():
                continue
            pix = qy[ok] * stride + qx[ok] - offset
            zz = z[ok]
            np.minimum.at(depth_flat, pix, zz)
            winners = depth_flat[pix] == zz
            color_flat[pix[winners]] = rgb8[ok][winners]
            fragments += int(ok.sum())
    return PointStats(points_in=n_in, points_drawn=len(sel),
                      fragments=fragments)
