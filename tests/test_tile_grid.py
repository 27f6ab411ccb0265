"""The 2D tile grid: grid tiles reassemble like column strips."""

import numpy as np

from repro.render.camera import Camera
from repro.render.compositor import assemble_tiles
from repro.render.framebuffer import FrameBuffer, split_tiles
from repro.render.rasterizer import rasterize_mesh


class TestGridRendering:
    def test_grid_assembles_to_monolithic(self, small_galleon):
        """Grid tiles reassemble pixel-exactly, like column strips."""
        cam = Camera.looking_at((2.2, 1.4, 1.2))
        mono = FrameBuffer(96, 96)
        rasterize_mesh(small_galleon, cam, mono)

        target = FrameBuffer(96, 96)
        assemble_tiles(target, [(tile, mono.extract(tile))
                                for tile in split_tiles(96, 96, 2, 2)])
        assert np.array_equal(target.color, mono.color)
