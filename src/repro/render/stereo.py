"""Stereo rendering for immersive displays.

The paper's testbed drives "large-scale stereo, tracked displays" — an
Immersadesk R2 and a FakeSpace Portico Workwall ("rear-projection active
stereo").  A stereo frame is two renders from eye positions offset along
the camera's right axis; active-stereo hardware alternates them, and for
file output we also provide a red/cyan anaglyph composite.

Head tracking enters as ``head_offset``: the tracked user's head position
relative to the screen center shifts both eyes (the paper's "tracked"
qualifier) so the perspective follows the viewer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import RenderError
from repro.render.camera import Camera
from repro.render.framebuffer import BACKGROUND, FrameBuffer
from repro.scenegraph.nodes import look_at_basis

#: human interpupillary distance in scene units (meters-scaled scenes)
DEFAULT_EYE_SEPARATION = 0.065


@dataclass
class StereoPair:
    """Left/right eye framebuffers plus the geometry that produced them."""

    left: FrameBuffer
    right: FrameBuffer
    eye_separation: float

    @property
    def width(self) -> int:
        return self.left.width

    @property
    def height(self) -> int:
        return self.left.height

    def anaglyph(self) -> FrameBuffer:
        """Red/cyan composite (left eye = red channel, right = green+blue)."""
        out = FrameBuffer(self.width, self.height)
        out.color[..., 0] = self.left.color.mean(axis=2).astype(np.uint8)
        right_l = self.right.color.mean(axis=2).astype(np.uint8)
        out.color[..., 1] = right_l
        out.color[..., 2] = right_l
        out.depth[:] = np.minimum(self.left.depth, self.right.depth)
        return out

    def disparity_stats(self) -> tuple[float, float]:
        """(mean, max) horizontal disparity in pixels over covered pixels.

        A cheap sanity metric: nearer geometry must shift more between the
        eyes than distant geometry.
        """
        lcov = np.isfinite(self.left.depth)
        rcov = np.isfinite(self.right.depth)
        if not (lcov.any() and rcov.any()):
            return 0.0, 0.0
        # per-row covered-column centroids as a robust shift estimate
        shifts = []
        for row in range(self.height):
            lcols = np.nonzero(lcov[row])[0]
            rcols = np.nonzero(rcov[row])[0]
            if len(lcols) and len(rcols):
                shifts.append(float(lcols.mean() - rcols.mean()))
        if not shifts:
            return 0.0, 0.0
        arr = np.abs(np.asarray(shifts))
        return float(arr.mean()), float(arr.max())


def stereo_cameras(camera: Camera,
                   eye_separation: float = DEFAULT_EYE_SEPARATION,
                   head_offset=(0.0, 0.0, 0.0)) -> tuple[Camera, Camera]:
    """Left/right eye cameras from a cyclopean camera + tracked head."""
    if eye_separation <= 0:
        raise RenderError("eye separation must be positive")
    fwd = camera.target - camera.position
    norm = np.linalg.norm(fwd)
    if norm == 0:
        raise RenderError("camera position and target coincide")
    fwd = fwd / norm
    right, true_up = look_at_basis(fwd, camera.up)
    head = (np.asarray(head_offset, dtype=np.float64)[0] * right
            + np.asarray(head_offset, dtype=np.float64)[1] * true_up
            + np.asarray(head_offset, dtype=np.float64)[2] * fwd)
    base = camera.position + head
    half = eye_separation / 2.0
    left = Camera(position=base - half * right, target=camera.target,
                  up=camera.up, fov_degrees=camera.fov_degrees,
                  near=camera.near, far=camera.far)
    right_cam = Camera(position=base + half * right, target=camera.target,
                       up=camera.up, fov_degrees=camera.fov_degrees,
                       near=camera.near, far=camera.far)
    return left, right_cam


def render_stereo(draw, camera: Camera, width: int, height: int,
                  eye_separation: float = DEFAULT_EYE_SEPARATION,
                  head_offset=(0.0, 0.0, 0.0),
                  background=BACKGROUND) -> StereoPair:
    """Render a stereo pair.

    ``draw(camera, framebuffer)`` is the scene-drawing callback (typically
    a closure over a mesh or scene tree); it runs once per eye.
    """
    left_cam, right_cam = stereo_cameras(camera, eye_separation,
                                         head_offset)
    left = FrameBuffer(width, height, background=background)
    right = FrameBuffer(width, height, background=background)
    draw(left_cam, left)
    draw(right_cam, right)
    return StereoPair(left=left, right=right,
                      eye_separation=eye_separation)
