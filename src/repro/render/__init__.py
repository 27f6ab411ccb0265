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
next.  Importing any module here imports the package first, so the pin
runs before the first rasterize, though each re-exported name is
imported only on first use.
"""

import ctypes

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.render.camera": ("Camera",),
    "repro.render.framebuffer": ("FrameBuffer", "Tile", "split_tiles"),
    "repro.render.rasterizer": ("rasterize_mesh", "RasterStats"),
    "repro.render.shading": ("flat_intensity", "gouraud_intensity"),
    "repro.render.points": ("rasterize_points",),
    "repro.render.volume": ("raymarch_volume",),
    "repro.render.compositor": ("FrameSynchronizer", "assemble_tiles",
                                "blend_slabs", "depth_composite",
                                "seam_discontinuity"),
    "repro.render.engine": ("RenderEngine", "RenderTiming"),
})


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
