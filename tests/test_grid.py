import numpy as np
import pytest

from fastpoisson.grid import (
    BoundaryCondition as BC,
    ConfigurationError,
    GridKind as GK,
    GridSpec,
)

from conftest import ROWS, ROW_IDS


def test_dx_periodic():
    assert GridSpec(4, 1.0, BC.PERIODIC).dx == 0.25


def test_dx_dirichlet_regular():
    assert GridSpec(3, 1.0, BC.DIRICHLET, GK.REGULAR).dx == 0.25


def test_dx_neumann_staggered():
    assert GridSpec(8, 2.0, BC.NEUMANN, GK.STAGGERED).dx == 0.25


def test_dx_neumann_regular():
    assert GridSpec(5, 2.0, BC.NEUMANN, GK.REGULAR).dx == 0.5


def test_points_dirichlet_regular():
    np.testing.assert_allclose(GridSpec(2, 3.0, BC.DIRICHLET).points(), [1.0, 2.0])


def test_points_dirichlet_staggered():
    np.testing.assert_allclose(
        GridSpec(2, 1.0, BC.DIRICHLET, GK.STAGGERED).points(), [0.25, 0.75]
    )


def test_points_neumann_regular_includes_boundaries():
    np.testing.assert_allclose(
        GridSpec(3, 2.0, BC.NEUMANN, GK.REGULAR).points(), [0.0, 1.0, 2.0]
    )


def test_points_periodic():
    np.testing.assert_allclose(GridSpec(4, 2.0, BC.PERIODIC).points(), [0.0, 0.5, 1.0, 1.5])


@pytest.mark.parametrize("bc,kind", ROWS, ids=ROW_IDS)
@pytest.mark.parametrize("n", [2, 3, 7, 16])
def test_spacing_matches_dx(bc, kind, n):
    spec = GridSpec(n, 1.7, bc, kind)
    pts = spec.points()
    assert pts.size == n
    assert np.all(pts >= 0.0) and np.all(pts <= spec.length)
    if n > 1:
        np.testing.assert_allclose(np.diff(pts), spec.dx, rtol=1e-14)


def test_neumann_regular_needs_two_points():
    with pytest.raises(ConfigurationError):
        GridSpec(1, 1.0, BC.NEUMANN, GK.REGULAR)


def test_periodic_staggered_rejected():
    with pytest.raises(ConfigurationError):
        GridSpec(4, 1.0, BC.PERIODIC, GK.STAGGERED)


@pytest.mark.parametrize(
    "bc,kind",
    [(BC.PERIODIC, GK.REGULAR), (BC.DIRICHLET, GK.STAGGERED), (BC.NEUMANN, GK.STAGGERED),
     (BC.DIRICHLET, GK.REGULAR)],
)
def test_degenerate_single_point_accepted(bc, kind):
    spec = GridSpec(1, 1.0, bc, kind)
    assert spec.dx > 0
    assert spec.points().size == 1


@pytest.mark.parametrize("n,length", [(0, 1.0), (-2, 1.0), (4, 0.0), (4, -1.0)])
def test_invalid_sizes_rejected(n, length):
    with pytest.raises(ConfigurationError):
        GridSpec(n, length, BC.PERIODIC)


@pytest.mark.parametrize("n,bc,kind,message", [
    (2.5, BC.PERIODIC, GK.REGULAR, "integer"),
    (8.0, BC.PERIODIC, GK.REGULAR, "integer"),
    (True, BC.PERIODIC, GK.REGULAR, "integer"),
    ("8", BC.PERIODIC, GK.REGULAR, "integer"),
    (8, "dirichlet", GK.REGULAR, "BoundaryCondition"),
    (8, BC.DIRICHLET, "staggered", "GridKind"),
], ids=["float-n", "integral-float-n", "bool-n", "str-n", "str-bc", "str-kind"])
def test_wrong_types_refused_at_construction(n, bc, kind, message):
    with pytest.raises(ConfigurationError, match=message):
        GridSpec(n, 1.0, bc, kind)


@pytest.mark.parametrize("n", [np.int64(6), np.int32(6), np.uint8(6)])
def test_numpy_integer_point_count_accepted(n):
    spec = GridSpec(n, 1.0, BC.PERIODIC)
    assert spec.dx == 1.0 / 6 and spec.points().size == 6


@pytest.mark.parametrize("bc,kind", ROWS, ids=ROW_IDS)
@pytest.mark.parametrize("length,message", [
    (np.inf, "finite"), (np.nan, "positive"), (1e300, "square"), (1e-170, "square"),
], ids=["inf", "nan", "overflow", "underflow"])
def test_length_out_of_float64_range_rejected(bc, kind, length, message):
    # an infinite length, or a spacing whose square overflows or underflows,
    # would make the FD2 operator's 1/dx**2 meaningless
    with pytest.raises(ConfigurationError, match=message):
        GridSpec(4, length, bc, kind)


@pytest.mark.parametrize("bc,kind", ROWS, ids=ROW_IDS)
def test_extreme_finite_lengths_accepted(bc, kind):
    # spacings whose square stays a normal float64 are fine
    for length in (1e150, 1e-150):
        spec = GridSpec(4, length, bc, kind)
        assert np.isfinite(spec.dx * spec.dx) and spec.dx * spec.dx > 0
