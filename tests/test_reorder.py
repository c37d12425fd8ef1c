import time

import numpy as np
import pytest

from fastpoisson import reorder
from fastpoisson.reorder import gather_lines, scatter_lines


def test_gather_is_transpose_for_2d():
    field = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(gather_lines(field, 0), field.T)


# every axis of each shape; the names are stable test ids (shape0 was a 1D
# field, which the solver never reorders)
_SHAPES = {"shape1": (17, 19), "shape2": (17, 19, 23), "shape3": (5, 64, 3)}


@pytest.mark.parametrize("shape,axis", [
    pytest.param(shape, axis, id=f"{axis}-{name}")
    for name, shape in _SHAPES.items() for axis in range(len(shape))
])
def test_gather_scatter_identity(shape, axis, rng):
    field = rng.standard_normal(shape)
    original = field.copy()
    buf = gather_lines(field, axis)
    np.testing.assert_array_equal(field, original)  # gather does not modify
    assert buf.flags.c_contiguous
    assert buf.shape == np.moveaxis(field, axis, -1).shape
    field[...] = 0.0
    scatter_lines(buf, field, axis)
    assert np.array_equal(field, original)  # bit-exact


@pytest.mark.parametrize("tile", [1, 4, 16, 64])
def test_tile_size_does_not_change_result(tile, rng, monkeypatch):
    # the tile is a module constant now; patch it to exercise other block edges
    monkeypatch.setattr(reorder, "_TILE", tile)
    shape = (9, 13, 11)
    field = rng.standard_normal(shape)
    reference = np.moveaxis(field, 1, -1).copy()
    buf = gather_lines(field, 1)
    np.testing.assert_array_equal(buf, reference)
    field[...] = 0.0
    scatter_lines(buf, field, 1)
    np.testing.assert_array_equal(np.moveaxis(field, 1, -1), reference)


def test_gather_layout_across_partial_tiles(rng):
    # 3 * 70 lines of 150: several 64-wide blocks, the last ones partial;
    # the copy keeps single precision
    field = rng.standard_normal((3, 150, 70)).astype(np.float32)
    buf = gather_lines(field, 1)
    assert buf.dtype == np.float32 and buf.flags.c_contiguous
    np.testing.assert_array_equal(buf, np.moveaxis(field, 1, -1))


def test_strided_subblock_matches_tight_array(rng):
    parent = rng.standard_normal((12, 14, 9))
    view = parent[2:8, 3:10, 1:6]
    tight = np.ascontiguousarray(view)
    np.testing.assert_array_equal(gather_lines(view, 1), gather_lines(tight, 1))


def test_linear_time_growth(rng):
    # pure data movement: a 16x larger field must not cost more than ~2x per element
    small, large = (256, 256), (1024, 1024)
    fields = [rng.standard_normal(shape) for shape in (small, large)]
    for field in fields:
        gather_lines(field, 0)  # warm

    # samples of the two sizes alternate, so a slow phase of the machine
    # lands on both sides of the ratio instead of on one
    times = ([], [])
    for _ in range(7):
        for field, samples in zip(fields, times):
            t0 = time.perf_counter()
            gather_lines(field, 0)
            samples.append(time.perf_counter() - t0)

    def median(samples):
        return sorted(samples)[len(samples) // 2]

    ratio = median(times[1]) / median(times[0])
    assert ratio <= 32.0, f"gather slowed superlinearly: 16x elements took {ratio:.1f}x time"
