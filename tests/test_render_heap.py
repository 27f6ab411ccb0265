"""A process keeps its rasterizer scratch from one tile to the next.

Importing :mod:`repro.render` pins glibc's mmap and trim thresholds
(``_keep_heap``).  Left to glibc's dynamic rule, a process may hand every
chunk of scratch back to the kernel after a tile and fault it in again on
the next one: ~1 000 minor faults per frame of five tiles.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro.render

SRC = Path(__file__).resolve().parents[1] / "src"
GLIBC = platform.libc_ver()[0] == "glibc"

#: runs in a fresh interpreter, whose heap has only what the import left
FIVE_TILE_FRAMES = textwrap.dedent("""
    import resource

    import repro
    from repro.data.generators import galleon
    from repro.render import Camera, FrameBuffer, rasterize_mesh, split_tiles

    mesh = galleon(5500)
    camera = Camera.looking_at((4.95, 0.0, 2.51), target=(0.25, 0.0, 0.8))
    tiles = split_tiles(160, 120, 5, 1)

    def frame():
        for tile in tiles:
            fb = FrameBuffer(tile.width, tile.height, origin=(tile.x0, tile.y0),
                             frame=(160, 120))
            rasterize_mesh(mesh, camera, fb, shading="flat")

    for _ in range(2):
        frame()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        frame()
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    print((after - before) / 20)
""")


@pytest.mark.skipif(not GLIBC, reason="the thresholds are glibc's")
def test_a_tiled_frame_faults_in_no_pages():
    assert hasattr(ctypes.CDLL(None), "mallopt")
    done = subprocess.run(
        [sys.executable, "-c", FIVE_TILE_FRAMES],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 50      # minor faults per five-tile frame


class RecordingLibc:
    def __init__(self, mallopt=None) -> None:
        self.calls: list[tuple[int, int]] = []
        self.returned: list[int] = []
        self.real = mallopt

    def mallopt(self, param: int, value: int) -> int:
        self.calls.append((param, value))
        result = self.real(param, value) if self.real else 1
        self.returned.append(result)
        return result


def test_sets_both_thresholds_at_their_ceiling(monkeypatch):
    libc = RecordingLibc()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    repro.render._keep_heap()
    assert libc.calls == [(-3, 32 << 20), (-1, 64 << 20)]


def no_libc(name):
    raise OSError("no C library to load")


@pytest.mark.parametrize("cdll", [no_libc, lambda name: object()],
                         ids=["no-libc", "no-mallopt"])
def test_without_mallopt_it_does_nothing(monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    repro.render._keep_heap()       # returns quietly, raises nothing


@pytest.mark.skipif(not GLIBC, reason="the thresholds are glibc's")
def test_glibc_accepts_both(monkeypatch):
    libc = RecordingLibc(ctypes.CDLL(None).mallopt)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    repro.render._keep_heap()
    assert libc.returned == [1, 1]
