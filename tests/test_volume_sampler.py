"""The ray-march's trilinear sampler equals ``scipy.ndimage`` bit for bit.

``raymarch_volume`` samples with its own NumPy ``_sample_trilinear``.
Every volume pixel comes from those samples, so they must be the exact
float32 values ``map_coordinates(order=1, mode="constant", cval=0.0)``
returns — edges, size-1 axes and the last plane included.  scipy is a
test-only reference here (the ``dev`` extra); the runtime never imports
it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.data.volumes import visible_human_phantom
from repro.render import volume as volume_mod
from repro.render.camera import Camera
from repro.render.volume import _sample_trilinear, raymarch_volume

ndimage = pytest.importorskip("scipy.ndimage")


def reference_sample(values: np.ndarray, coords: np.ndarray) -> np.ndarray:
    return ndimage.map_coordinates(values, coords, order=1,
                                   mode="constant", cval=0.0)


def assert_bits_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    as_int = np.dtype(f"i{got.dtype.itemsize}")
    assert np.array_equal(got.view(as_int), want.view(as_int))


def axis_coordinate(size: int):
    """One coordinate along an axis of ``size`` voxels, weighted towards
    the places where an interpolator's edge handling differs."""
    last = float(size - 1)
    return st.one_of(
        st.integers(0, size - 1).map(float),
        st.sampled_from([last, -1e-12, 1e-12, last - 1e-12, last + 1e-12,
                         -0.0, -1.0, float(size)]),
        st.floats(-1.5, size + 0.5, allow_nan=False),
    )


@st.composite
def volumes_and_coords(draw):
    shape = draw(st.tuples(*[st.integers(1, 5)] * 3))
    if draw(st.booleans()):              # force a size-1 axis half the time
        axis = draw(st.integers(0, 2))
        shape = shape[:axis] + (1,) + shape[axis + 1:]
    values = draw(arrays(np.float32, shape, elements=st.floats(
        -1e3, 1e3, allow_nan=False, width=32)))
    n = draw(st.integers(1, 12))
    coords = np.array([draw(st.lists(axis_coordinate(size), min_size=n,
                                     max_size=n)) for size in shape])
    return values, coords


class TestSamplerMatchesMapCoordinates:
    @settings(max_examples=200, deadline=None)
    @given(volumes_and_coords())
    def test_random_volumes(self, case):
        values, coords = case
        assert_bits_equal(_sample_trilinear(values, coords),
                          reference_sample(values, coords))

    @pytest.mark.parametrize("shape", [(1, 4, 5), (1, 1, 1), (2, 2, 2),
                                       (16, 16, 16)])
    def test_dense_random_coordinates(self, shape):
        rng = np.random.default_rng(2004)
        values = rng.standard_normal(shape).astype(np.float32)
        size = np.array(shape)[:, None]
        coords = rng.uniform(-0.25, 1.25, (3, 20_000)) * (size - 1)
        # a third of them land exactly on voxel planes
        exact = rng.integers(0, size, (3, 20_000)).astype(np.float64)
        coords = np.where(rng.random((3, 20_000)) < 0.3, exact, coords)
        assert_bits_equal(_sample_trilinear(values, coords),
                          reference_sample(values, coords))


CAMERAS = [
    Camera.looking_at((0.0, 0.0, 3.5), target=(0, 0, 0), up=(0, 1, 0)),
    Camera.looking_at((2.5, 1.5, 2.0), target=(0, 0, 0), up=(0, 0, 1)),
    Camera.looking_at((-3.0, 0.2, -0.4), target=(0.1, 0, 0), up=(0, 1, 0)),
    Camera.looking_at((0.0, -0.9, 0.0), target=(0, 1, 0), up=(0, 0, 1)),
]


def phantom_pieces():
    vol = visible_human_phantom(16)
    return [vol, *vol.split_slabs(3)]


class TestRaymarchMatchesMapCoordinates:
    @pytest.mark.parametrize("camera", range(len(CAMERAS)))
    def test_phantom_and_slabs(self, camera, monkeypatch):
        cam = CAMERAS[camera]
        ours = [raymarch_volume(v, cam, 32, 24) for v in phantom_pieces()]
        monkeypatch.setattr(volume_mod, "_sample_trilinear", reference_sample)
        theirs = [raymarch_volume(v, cam, 32, 24) for v in phantom_pieces()]
        assert any(img.coverage > 0 for img in ours)
        for got, want in zip(ours, theirs):
            assert_bits_equal(got.rgba, want.rgba)
            assert_bits_equal(got.depth, want.depth)
            assert got.view_distance == want.view_distance
