"""Software rendering substrate.

The paper renders with Java3D on 2004 GPUs; we render for real with a
NumPy-vectorized software rasterizer and model the 2004 timing behaviour
separately (:mod:`repro.render.engine`).  The code path is the paper's:
scene → camera transform → rasterize (or splat / ray-march) → framebuffer
(+ depth) → tile/depth compositing → client.

- :mod:`repro.render.camera` — look-at / perspective / viewport transforms;
- :mod:`repro.render.framebuffer` — RGB+depth buffers, tiling, PPM export;
- :mod:`repro.render.rasterizer` — z-buffered triangle rasterization,
  vectorized over triangle batches (no per-pixel Python);
- :mod:`repro.render.shading` — flat and Gouraud Lambert shading;
- :mod:`repro.render.points` — point-cloud splatting;
- :mod:`repro.render.volume` — emission-absorption volume ray-marching;
- :mod:`repro.render.compositor` — depth compositing of distributed
  framebuffers, tile assembly, tearing detection, frame synchronization,
  back-to-front blending of volume slabs;
- :mod:`repro.render.engine` — the per-machine timing model reproducing
  Tables 2-4 (on-screen vs off-screen, sequential vs interleaved).

Importing the package pins glibc's heap thresholds (:func:`_keep_heap`),
so a process keeps the rasterizer's scratch pages from one tile to the
next.
"""

import ctypes

from repro.render.camera import Camera
from repro.render.framebuffer import FrameBuffer, Tile, split_tiles
from repro.render.rasterizer import rasterize_mesh, RasterStats
from repro.render.shading import flat_intensity, gouraud_intensity
from repro.render.points import rasterize_points
from repro.render.volume import raymarch_volume
from repro.render.compositor import (
    FrameSynchronizer,
    assemble_tiles,
    blend_slabs,
    depth_composite,
    seam_discontinuity,
)
from repro.render.engine import RenderEngine, RenderTiming

__all__ = [
    "Camera",
    "FrameBuffer",
    "Tile",
    "split_tiles",
    "rasterize_mesh",
    "RasterStats",
    "flat_intensity",
    "gouraud_intensity",
    "rasterize_points",
    "raymarch_volume",
    "depth_composite",
    "assemble_tiles",
    "blend_slabs",
    "seam_discontinuity",
    "FrameSynchronizer",
    "RenderEngine",
    "RenderTiming",
]


def _keep_heap() -> None:
    """Pin glibc's mmap and trim thresholds where its dynamic rule tops out.

    glibc starts a process at a 128 KiB mmap threshold.  Each time it frees
    a mapped block larger than that, it raises the threshold to the block's
    size and the trim threshold to twice it, up to 32 MiB on 64-bit.  So
    which blocks a process happened to free first decides whether each
    chunk of rasterizer scratch is mapped, faulted in and handed back to
    the kernel, tile after tile, or kept.  Both values are set, because
    setting either one turns the dynamic rule off for both.  The price:
    freed memory stays in the process, up to its peak.  Where libc has no
    ``mallopt`` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(-3, 32 << 20)       # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)       # M_TRIM_THRESHOLD


_keep_heap()
