"""Ray picking: click-to-select against scene geometry.

"All interactions are based on clicking to select/deselect an object, and
dragging" (paper §5.2).  The GUI turns a click into a :class:`Ray` through
the camera, and these functions return the nearest hit.  Intersection is
Möller–Trumbore, vectorized over all triangles of a mesh at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.meshes import Mesh
from repro.scenegraph.nodes import (
    CameraNode,
    MeshNode,
    SceneNode,
    look_at_basis,
)
from repro.scenegraph.tree import SceneTree


@dataclass(frozen=True)
class Ray:
    origin: np.ndarray
    direction: np.ndarray  # unit length

    @classmethod
    def through_pixel(cls, camera: CameraNode, px: float, py: float,
                      width: int, height: int) -> Ray:
        """Ray from the camera through pixel (px, py) of a width x height view."""
        fwd = camera.view_direction()
        right, true_up = look_at_basis(fwd, camera.up)
        aspect = width / height
        tan_half = np.tan(np.radians(camera.fov_degrees) / 2.0)
        # NDC in [-1, 1], y up
        x = (2.0 * (px + 0.5) / width - 1.0) * tan_half * aspect
        y = (1.0 - 2.0 * (py + 0.5) / height) * tan_half
        d = fwd + x * right + y * true_up
        d = d / np.linalg.norm(d)
        return cls(origin=camera.position.copy(), direction=d)


@dataclass(frozen=True)
class PickHit:
    node: SceneNode | None
    triangle: int
    distance: float
    point: np.ndarray


def intersect_mesh(ray: Ray, mesh: Mesh, eps: float = 1e-9
                   ) -> tuple[int, float] | None:
    """Nearest triangle hit as ``(face_index, distance)`` or ``None``.

    Vectorized Möller–Trumbore over the whole face array.
    """
    if mesh.n_triangles == 0:
        return None
    v0, v1, v2 = mesh.triangle_corners()
    v0 = v0.astype(np.float64)
    e1 = v1.astype(np.float64) - v0
    e2 = v2.astype(np.float64) - v0
    d = ray.direction
    h = np.cross(d[None, :], e2)
    a = np.einsum("ij,ij->i", e1, h)
    parallel = np.abs(a) < eps
    f = np.where(parallel, 0.0, 1.0 / np.where(parallel, 1.0, a))
    s = ray.origin[None, :] - v0
    u = f * np.einsum("ij,ij->i", s, h)
    q = np.cross(s, e1)
    v = f * (q @ d)
    t = f * np.einsum("ij,ij->i", q, e2)
    hit = (~parallel & (u >= 0) & (v >= 0) & (u + v <= 1) & (t > eps))
    if not hit.any():
        return None
    t = np.where(hit, t, np.inf)
    idx = int(np.argmin(t))
    return idx, float(t[idx])


def pick_mesh(ray: Ray, mesh: Mesh) -> PickHit | None:
    res = intersect_mesh(ray, mesh)
    if res is None:
        return None
    idx, dist = res
    return PickHit(node=None, triangle=idx, distance=dist,
                   point=ray.origin + dist * ray.direction)


def pick_tree(ray: Ray, tree: SceneTree) -> PickHit | None:
    """Nearest hit across all mesh nodes, honouring world transforms."""
    best: PickHit | None = None
    for node in tree:
        if not isinstance(node, MeshNode):
            continue
        world = tree.placement(node)
        mesh = node.mesh if world is None else node.mesh.transformed(world)
        res = intersect_mesh(ray, mesh)
        if res is None:
            continue
        idx, dist = res
        if best is None or dist < best.distance:
            best = PickHit(node=node, triangle=idx, distance=dist,
                           point=ray.origin + dist * ray.direction)
    return best
