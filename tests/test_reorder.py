import time

import numpy as np
import pytest

from fastpoisson import reorder
from fastpoisson.reorder import ReorderPlan, gather_lines, make_buffer, scatter_lines


def test_gather_is_transpose_for_2d():
    field = np.arange(6.0).reshape(2, 3)
    plan = ReorderPlan((2, 3), axis=0)
    buf = make_buffer(plan)
    gather_lines(plan, field, buf)
    np.testing.assert_array_equal(buf, field.T)


@pytest.mark.parametrize("shape", [(17,), (17, 19), (17, 19, 23), (5, 64, 3)])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_gather_scatter_identity(shape, axis, rng):
    if axis >= len(shape):
        pytest.skip("axis beyond rank")
    plan = ReorderPlan(shape, axis)
    field = rng.standard_normal(shape)
    original = field.copy()
    buf = make_buffer(plan)
    gather_lines(plan, field, buf)
    np.testing.assert_array_equal(field, original)  # gather does not modify
    field[...] = 0.0
    scatter_lines(plan, buf, field)
    assert np.array_equal(field, original)  # bit-exact


@pytest.mark.parametrize("tile", [1, 4, 16, 64])
def test_tile_size_does_not_change_result(tile, rng, monkeypatch):
    # the tile is a module constant now; patch it to exercise other block edges
    monkeypatch.setattr(reorder, "_TILE", tile)
    shape = (9, 13, 11)
    field = rng.standard_normal(shape)
    reference = np.moveaxis(field, 1, -1).reshape(-1, 13)
    plan = ReorderPlan(shape, 1)
    buf = make_buffer(plan)
    gather_lines(plan, field, buf)
    np.testing.assert_array_equal(buf, reference)
    field[...] = 0.0
    scatter_lines(plan, buf, field)
    np.testing.assert_array_equal(np.moveaxis(field, 1, -1).reshape(-1, 13), reference)


def test_gather_layout_across_partial_tiles(rng):
    # 3 * 70 lines of 150: several 64-wide blocks, the last ones partial
    shape = (3, 150, 70)
    field = rng.standard_normal(shape)
    reference = np.moveaxis(field, 1, -1).reshape(-1, 150)
    plan = ReorderPlan(shape, 1)
    buf = make_buffer(plan)
    gather_lines(plan, field, buf)
    np.testing.assert_array_equal(buf, reference)


def test_strided_subblock_matches_tight_array(rng):
    parent = rng.standard_normal((12, 14, 9))
    view = parent[2:8, 3:10, 1:6]
    tight = np.ascontiguousarray(view)
    plan = ReorderPlan(view.shape, axis=1)
    buf_view, buf_tight = make_buffer(plan), make_buffer(plan)
    gather_lines(plan, view, buf_view)
    gather_lines(plan, tight, buf_tight)
    np.testing.assert_array_equal(buf_view, buf_tight)


def test_shape_validation():
    plan = ReorderPlan((4, 5), 1)
    with pytest.raises(ValueError):
        gather_lines(plan, np.zeros((4, 6)), make_buffer(plan))
    with pytest.raises(ValueError):
        gather_lines(plan, np.zeros((4, 5)), np.zeros((3, 5)))
    with pytest.raises(ValueError):
        scatter_lines(plan, np.zeros((20, 5))[:, ::1].T, np.zeros((4, 5)))


def test_bad_plan_parameters():
    with pytest.raises(ValueError):
        ReorderPlan((2, 2, 2, 2), 0)


def test_linear_time_growth(rng):
    # pure data movement: a 16x larger field must not cost more than ~2x per element
    small, large = (256, 256), (1024, 1024)
    cases = []
    for shape in (small, large):
        plan = ReorderPlan(shape, 0)
        field = rng.standard_normal(shape)
        buf = make_buffer(plan)
        gather_lines(plan, field, buf)  # warm
        cases.append((plan, field, buf))

    # samples of the two sizes alternate, so a slow phase of the machine
    # lands on both sides of the ratio instead of on one
    times = ([], [])
    for _ in range(7):
        for (plan, field, buf), samples in zip(cases, times):
            t0 = time.perf_counter()
            gather_lines(plan, field, buf)
            samples.append(time.perf_counter() - t0)

    def median(samples):
        return sorted(samples)[len(samples) // 2]

    ratio = median(times[1]) / median(times[0])
    assert ratio <= 32.0, f"gather slowed superlinearly: 16x elements took {ratio:.1f}x time"
