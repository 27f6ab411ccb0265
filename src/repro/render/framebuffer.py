"""Frame and depth buffers, and the tiling used by framebuffer distribution.

A :class:`FrameBuffer` is exactly what RAVE services exchange: an RGB byte
image plus a float depth buffer ("sends the resulting frame (and depth)
buffer").  A framebuffer is a window onto a frame: a tile-sized buffer
placed at its tile's origin is what an assisting render service draws into
and ships.  :class:`Tile` describes a rectangular region for tiled
distribution; :func:`split_tiles` produces the grid a render service divides
its target framebuffer into.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import RenderError

#: depth value meaning "nothing rendered here"
EMPTY_DEPTH = np.float32(np.inf)

#: the clear colour of every view a render service draws
BACKGROUND = (12, 12, 24)


@dataclass(frozen=True)
class Tile:
    """A rectangle [x0, x0+width) x [y0, y0+height) in pixel coordinates."""

    x0: int
    y0: int
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise RenderError(f"degenerate tile {self!r}")
        if self.x0 < 0 or self.y0 < 0:
            raise RenderError(f"negative tile origin {self!r}")

    @property
    def pixels(self) -> int:
        return self.width * self.height

    @property
    def slices(self) -> tuple[slice, slice]:
        """(row slice, column slice) for indexing image arrays."""
        return (slice(self.y0, self.y0 + self.height),
                slice(self.x0, self.x0 + self.width))

    def contains(self, x: int, y: int) -> bool:
        return (self.x0 <= x < self.x0 + self.width
                and self.y0 <= y < self.y0 + self.height)


class FrameBuffer:
    """RGB color + float32 depth, image convention (row 0 at the top).

    The buffer is a window onto a frame of ``frame`` = ``(width, height)``
    pixels, its top-left pixel at ``origin`` in that frame.  Drawing
    projects with the frame's size and writes only the window's pixels.
    The default is the window at (0, 0) that covers its own frame.
    """

    __slots__ = ("color", "depth", "x0", "y0", "frame_width", "frame_height")

    def __init__(self, width: int, height: int,
                 background=(0, 0, 0), origin: tuple[int, int] = (0, 0),
                 frame: tuple[int, int] | None = None) -> None:
        if width <= 0 or height <= 0:
            raise RenderError(f"bad framebuffer size {width}x{height}")
        self.x0, self.y0 = origin
        self.frame_width, self.frame_height = (
            (width, height) if frame is None else frame)
        if (self.x0 < 0 or self.y0 < 0
                or self.x0 + width > self.frame_width
                or self.y0 + height > self.frame_height):
            raise RenderError(
                f"{width}x{height} window at {origin} exceeds the "
                f"{self.frame_width}x{self.frame_height} frame")
        self.color = np.empty((height, width, 3), dtype=np.uint8)
        self.depth = np.empty((height, width), dtype=np.float32)
        self.clear(background)

    @property
    def width(self) -> int:
        return self.color.shape[1]

    @property
    def height(self) -> int:
        return self.color.shape[0]

    @property
    def pixels(self) -> int:
        return self.width * self.height

    @property
    def nbytes_color(self) -> int:
        """Wire size of the raw RGB payload (the 120 kB of a 200x200 frame)."""
        return self.color.nbytes

    @property
    def nbytes_with_depth(self) -> int:
        """Wire size when the depth buffer rides along (tile assistance)."""
        return self.color.nbytes + self.depth.nbytes

    def clear(self, background=(0, 0, 0)) -> None:
        # fill one row, then broadcast that row down the image: numpy copies
        # it as one 3*w-byte run per row, where a 3-byte colour broadcast
        # over (h, w, 3) runs a 3-byte inner loop (~25x slower at 200x200)
        self.color[0] = background
        self.color[1:] = self.color[0]
        self.depth[:] = EMPTY_DEPTH

    def copy(self) -> FrameBuffer:
        out = FrameBuffer(self.width, self.height, origin=(self.x0, self.y0),
                          frame=(self.frame_width, self.frame_height))
        out.color[:] = self.color
        out.depth[:] = self.depth
        return out

    def coverage(self) -> float:
        """Fraction of pixels something was rendered into."""
        return float(np.isfinite(self.depth).mean())

    def scissor(self) -> tuple[int, int, int, int]:
        """Frame pixel bounds ``(x0, y0, x1, y1)``, upper ones exclusive,
        a draw into this window may touch."""
        return (self.x0, self.y0, self.x0 + self.width,
                self.y0 + self.height)

    def extract(self, tile: Tile) -> FrameBuffer:
        """Copy out a tile-sized sub-framebuffer."""
        if (tile.x0 + tile.width > self.width
                or tile.y0 + tile.height > self.height):
            raise RenderError(f"{tile!r} exceeds {self.width}x{self.height}")
        out = FrameBuffer(tile.width, tile.height)
        rows, cols = tile.slices
        out.color[:] = self.color[rows, cols]
        out.depth[:] = self.depth[rows, cols]
        return out

    def paste(self, tile: Tile, src: FrameBuffer) -> None:
        """Overwrite a tile region with another framebuffer's content."""
        if (src.width, src.height) != (tile.width, tile.height):
            raise RenderError(
                f"tile {tile.width}x{tile.height} != src "
                f"{src.width}x{src.height}")
        rows, cols = tile.slices
        self.color[rows, cols] = src.color
        self.depth[rows, cols] = src.depth

    def mean_abs_diff(self, other: FrameBuffer) -> float:
        """Mean absolute per-channel color difference (tearing metric input)."""
        if (self.width, self.height) != (other.width, other.height):
            raise RenderError("framebuffer sizes differ")
        return float(np.abs(self.color.astype(np.int16)
                            - other.color.astype(np.int16)).mean())

    # -- export -------------------------------------------------------------------

    def to_ppm(self) -> bytes:
        """Binary PPM (P6) for figure output — viewable anywhere."""
        header = f"P6\n{self.width} {self.height}\n255\n".encode("ascii")
        return header + self.color.tobytes()

    def save_ppm(self, path) -> int:
        from pathlib import Path

        data = self.to_ppm()
        Path(path).write_bytes(data)
        return len(data)


def split_tiles(width: int, height: int, nx: int, ny: int) -> list[Tile]:
    """Divide a width x height target into an ``nx`` x ``ny`` tile grid.

    Remainder pixels go to the last row/column, so the tiles exactly cover
    the framebuffer (the compositor asserts this).
    """
    if nx <= 0 or ny <= 0:
        raise RenderError("tile grid must be at least 1x1")
    if nx > width or ny > height:
        raise RenderError(f"more tiles than pixels: {nx}x{ny} over "
                          f"{width}x{height}")
    xs = np.linspace(0, width, nx + 1).astype(int)
    ys = np.linspace(0, height, ny + 1).astype(int)
    return [
        Tile(x0=int(xs[i]), y0=int(ys[j]),
             width=int(xs[i + 1] - xs[i]), height=int(ys[j + 1] - ys[j]))
        for j in range(ny) for i in range(nx)
    ]
