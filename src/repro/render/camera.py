"""Camera transforms: world → view → clip → screen.

Right-handed look-at view matrix, OpenGL-style perspective projection, and
a viewport mapping to pixel coordinates with y down (image convention).
The projection keeps ``w = -z_view`` so depth interpolation can be done
perspective-correctly in the rasterizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.meshes import homogeneous_rows
from repro.errors import RenderError
from repro.scenegraph.nodes import CameraNode, look_at_basis


@dataclass
class Camera:
    """A look-at camera: position, target, up, field of view, clip planes.

    A plain mutable record — callers assign its fields — so nothing is
    kept between calls: :meth:`view_matrix` and
    :meth:`projection_matrix` build their matrix from the current
    fields every time they are asked.
    """

    position: np.ndarray
    target: np.ndarray
    up: np.ndarray
    fov_degrees: float
    near: float = 0.05
    far: float = 1000.0

    @classmethod
    def from_node(cls, node: CameraNode, near: float = 0.05,
                  far: float = 1000.0) -> Camera:
        return cls(position=np.asarray(node.position, dtype=np.float64),
                   target=np.asarray(node.target, dtype=np.float64),
                   up=np.asarray(node.up, dtype=np.float64),
                   fov_degrees=float(node.fov_degrees), near=near, far=far)

    @classmethod
    def looking_at(cls, position, target=(0.0, 0.0, 0.0),
                   up=(0.0, 0.0, 1.0), fov_degrees: float = 45.0,
                   **kw) -> Camera:
        return cls(position=np.asarray(position, dtype=np.float64),
                   target=np.asarray(target, dtype=np.float64),
                   up=np.asarray(up, dtype=np.float64),
                   fov_degrees=float(fov_degrees), **kw)

    # -- matrices -------------------------------------------------------------

    def view_matrix(self) -> np.ndarray:
        fwd = self.target - self.position
        norm = np.linalg.norm(fwd)
        if norm == 0:
            raise RenderError("camera position and target coincide")
        fwd = fwd / norm
        right, true_up = look_at_basis(fwd, self.up)
        m = np.eye(4)
        m[0, :3] = right
        m[1, :3] = true_up
        m[2, :3] = -fwd
        m[:3, 3] = -m[:3, :3] @ self.position
        return m

    def projection_matrix(self, aspect: float) -> np.ndarray:
        if self.near <= 0 or self.far <= self.near:
            raise RenderError(
                f"bad clip planes near={self.near}, far={self.far}")
        f = 1.0 / np.tan(np.radians(self.fov_degrees) / 2.0)
        m = np.zeros((4, 4))
        m[0, 0] = f / aspect
        m[1, 1] = f
        m[2, 2] = (self.far + self.near) / (self.near - self.far)
        m[2, 3] = 2 * self.far * self.near / (self.near - self.far)
        m[3, 2] = -1.0
        return m

    # -- vertex pipeline --------------------------------------------------------

    def project_homogeneous(self, vh: np.ndarray, width: int, height: int
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Homogeneous world-space ``(n, 4)`` float64 rows → contiguous
        ``x_px``, ``y_px`` and clip-space ``w``, one ``(n,)`` array each.

        Screen y grows downward.  ``w`` is the view-space distance
        (positive in front of the camera) — what the z-buffer compares and
        what depth compositing exchanges between render services.
        """
        view = self.view_matrix()
        clip = vh @ (self.projection_matrix(width / height) @ view).T
        w = np.ascontiguousarray(clip[:, 3])   # = -z_view
        safe_w = np.where(np.abs(w) < 1e-12, 1e-12, w)
        x_px = (clip[:, 0] / safe_w + 1.0) * 0.5 * width
        y_px = (1.0 - clip[:, 1] / safe_w) * 0.5 * height
        return x_px, y_px, w

    def project_vertices(self, vertices: np.ndarray, width: int, height: int
                         ) -> tuple[np.ndarray, np.ndarray]:
        """World-space ``(n, 3)`` → screen ``(n, 3)`` of (x_px, y_px, depth)
        plus the clip-space w (camera distance) for culling/interpolation;
        :meth:`project_homogeneous` stacked.
        """
        v = np.asarray(vertices, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != 3:
            raise RenderError(f"vertices must be (n, 3); got {v.shape}")
        x_px, y_px, w = self.project_homogeneous(homogeneous_rows(v), width,
                                                 height)
        return np.stack([x_px, y_px, w], axis=1), w
