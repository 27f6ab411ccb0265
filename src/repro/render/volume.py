"""Volume ray-marching (emission-absorption), with slab support.

Implements the Visapult-style distributed volume rendering the paper's
future work adopts: a :class:`~repro.data.volumes.VoxelVolume` (or one of
its slabs) renders to an RGBA image + a representative depth, and slabs
rendered on different services blend back-to-front by their distance from
the viewer (:func:`repro.render.compositor.blend_slabs`).

Rays are generated for every pixel at once; marching is a fixed-step loop
whose body is fully vectorized: one trilinear interpolation per step over
all rays, in NumPy alone.  The sampler gathers the 8 corners by flat
index and sums ``v * wx * wy * wz`` in C order; a sample counts only when
every coordinate lies in ``[0, size - 1]`` (0 elsewhere), and the upper
neighbour on the last plane is clamped, its weight being 0.  That is
``scipy.ndimage.map_coordinates(order=1, mode="constant", cval=0.0)`` bit
for bit; the comparison lives in ``tests/test_volume_sampler.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.volumes import VoxelVolume
from repro.errors import RenderError
from repro.render.camera import Camera
from repro.scenegraph.nodes import look_at_basis


@dataclass
class VolumeImage:
    """RGBA float image + alpha-weighted depth, the slab-blending unit."""

    rgba: np.ndarray          # (h, w, 4) float32, premultiplied alpha
    depth: np.ndarray         # (h, w) float32, mean contribution distance
    #: distance from the camera to the slab centroid (the blending key)
    view_distance: float

    @property
    def coverage(self) -> float:
        return float((self.rgba[..., 3] > 1e-3).mean())


#: simple grayscale-to-warm transfer function
def default_transfer(density: np.ndarray, opacity_scale: float
                     ) -> tuple[np.ndarray, np.ndarray]:
    """density → (rgb emission (n,3), alpha (n,))"""
    d = np.clip(density, 0.0, 1.0)
    alpha = np.clip(d * opacity_scale, 0.0, 1.0)
    rgb = np.stack([
        np.clip(0.4 + 0.8 * d, 0, 1),
        np.clip(0.3 + 0.7 * d, 0, 1),
        np.clip(0.25 + 0.5 * d, 0, 1),
    ], axis=-1)
    return rgb, alpha


def _sample_trilinear(values: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Trilinear samples of a C-contiguous 3-D ``values`` at ``coords``
    (3, n), in voxel index units; 0 wherever a coordinate leaves
    ``[0, size - 1]``."""
    last = np.array(values.shape)[:, None] - 1
    inside = ((coords >= 0) & (coords <= last)).all(axis=0)
    c = coords[:, inside]
    base = np.floor(c)
    w_lo = 1.0 - (c - base)
    lo = base.astype(np.intp)
    # the upper neighbour on the last plane has weight 0: clamp its index
    hi = np.minimum(lo + 1, last)
    pitch = np.array([values.shape[1] * values.shape[2], values.shape[2], 1])
    offsets = [(lo[a] * pitch[a], hi[a] * pitch[a]) for a in range(3)]
    # the upper weight is 1 minus the lower one, not the fraction itself:
    # the two differ in the last bit, and spline weights are built so
    weights = [(w_lo[a], 1.0 - w_lo[a]) for a in range(3)]
    flat = values.reshape(-1)
    acc = np.zeros(c.shape[1])
    for i in (0, 1):
        for j in (0, 1):
            for k in (0, 1):
                corner = flat[offsets[0][i] + offsets[1][j] + offsets[2][k]]
                acc += corner * weights[0][i] * weights[1][j] * weights[2][k]
    out = np.zeros(coords.shape[1], dtype=values.dtype)
    out[inside] = acc
    return out


def raymarch_volume(volume: VoxelVolume, camera: Camera, width: int,
                    height: int, n_steps: int = 64,
                    opacity_scale: float = 0.08,
                    density_floor: float = 0.02) -> VolumeImage:
    """Front-to-back emission-absorption ray-march of a volume.

    Returns premultiplied RGBA so slabs blend with the standard *over*
    operator.  ``density_floor`` skips empty space (no emission below it).
    """
    if n_steps < 2:
        raise RenderError("n_steps must be >= 2")
    h, w_pix = height, width
    # Ray directions through each pixel center (same math as picking).
    fwd = camera.target - camera.position
    fwd = fwd / np.linalg.norm(fwd)
    right, true_up = look_at_basis(fwd, camera.up)
    aspect = w_pix / h
    tan_half = np.tan(np.radians(camera.fov_degrees) / 2.0)
    xs = (2.0 * (np.arange(w_pix) + 0.5) / w_pix - 1.0) * tan_half * aspect
    ys = (1.0 - 2.0 * (np.arange(h) + 0.5) / h) * tan_half
    dirs = (fwd[None, None, :]
            + xs[None, :, None] * right[None, None, :]
            + ys[:, None, None] * true_up[None, None, :])
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)

    # Slab entry/exit: intersect rays with the volume's AABB.
    origin = np.asarray(volume.origin)
    spacing = np.asarray(volume.spacing)
    vmax = origin + spacing * (np.asarray(volume.shape) - 1)
    eye = camera.position
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_d = 1.0 / dirs
        t0 = (origin[None, None, :] - eye[None, None, :]) * inv_d
        t1 = (vmax[None, None, :] - eye[None, None, :]) * inv_d
    lo = np.minimum(t0, t1)
    hi = np.maximum(t0, t1)
    # NaN = ray parallel to a slab while starting on its plane: that axis
    # imposes no constraint, so its interval is (-inf, inf).
    lo = np.where(np.isnan(lo), -np.inf, lo)
    hi = np.where(np.isnan(hi), np.inf, hi)
    t_near = lo.max(axis=-1)
    t_far = hi.min(axis=-1)
    t_near = np.maximum(t_near, camera.near)
    hit = t_far > t_near

    rgba = np.zeros((h, w_pix, 4), dtype=np.float32)
    depth_sum = np.zeros((h, w_pix), dtype=np.float64)
    alpha_sum = np.zeros((h, w_pix), dtype=np.float64)
    if hit.any():
        hy, hx = np.nonzero(hit)
        d = dirs[hy, hx]                          # (r, 3)
        tn = t_near[hy, hx]
        tf = t_far[hy, hx]
        dt = (tf - tn) / n_steps
        acc_rgb = np.zeros((len(hy), 3), dtype=np.float64)
        acc_a = np.zeros(len(hy), dtype=np.float64)
        for step in range(n_steps):
            t = tn + (step + 0.5) * dt
            pos = eye[None, :] + t[:, None] * d
            coords = ((pos - origin[None, :]) / spacing[None, :]).T
            density = _sample_trilinear(volume.values, coords)
            emit = density > density_floor
            if emit.any():
                rgb, alpha = default_transfer(density, opacity_scale)
                # opacity correction for the step length
                a_step = 1.0 - np.power(1.0 - alpha, dt * n_steps / 2.0)
                a_step = np.where(emit, a_step, 0.0)
                weight = (1.0 - acc_a) * a_step
                acc_rgb += weight[:, None] * rgb
                acc_a += weight
                depth_sum[hy, hx] += weight * t
                alpha_sum[hy, hx] += weight
            if (acc_a > 0.995).all():
                break
        rgba[hy, hx, :3] = acc_rgb
        rgba[hy, hx, 3] = acc_a

    depth = np.where(alpha_sum > 1e-9, depth_sum / np.maximum(alpha_sum, 1e-9),
                     np.inf).astype(np.float32)
    centroid = origin + 0.5 * spacing * (np.asarray(volume.shape) - 1)
    view_distance = float(np.linalg.norm(centroid - eye))
    return VolumeImage(rgba=rgba, depth=depth, view_distance=view_distance)
