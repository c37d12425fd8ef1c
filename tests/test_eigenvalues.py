import itertools

import numpy as np
import pytest

from fastpoisson.eigenvalues import combine_eigenvalues, eigenvalue_table
from fastpoisson.grid import (
    Approximation as AP,
    BoundaryCondition as BC,
    ConfigurationError,
    GridKind as GK,
    GridSpec,
)
from fastpoisson.verify import basis_vector, stencil_matrix_1d

from conftest import ROWS, ROW_IDS


# -- spectral table -----------------------------------------------------------


@pytest.mark.parametrize("kind", [GK.REGULAR, GK.STAGGERED])
def test_spectral_neumann_null_mode(kind):
    table = eigenvalue_table(GridSpec(6, 1.0, BC.NEUMANN, kind), AP.PSEUDO_SPECTRAL)
    assert table[0] == 0.0


def test_spectral_dirichlet_regular_first():
    table = eigenvalue_table(GridSpec(5, 1.0, BC.DIRICHLET, GK.REGULAR), AP.PSEUDO_SPECTRAL)
    assert table[0] == pytest.approx(-np.pi ** 2, rel=1e-15)


def test_spectral_periodic_folding():
    # index 7 of n=8 aliases to wavenumber 1: the sampled mode exp(2 pi i 7 j/8)
    # equals exp(-2 pi i j/8) on the grid, so its second derivative gives (2 pi)^2
    table = eigenvalue_table(GridSpec(8, 1.0, BC.PERIODIC), AP.PSEUDO_SPECTRAL)
    assert table[7] == pytest.approx(-((2 * np.pi) ** 2), rel=1e-15)
    # aliasing oracle: differentiate the continuous representative of the
    # sampled mode twice and compare against lambda_k * mode
    n, L = 8, 1.0
    x = np.arange(n) * L / n
    for k in range(n):
        m = min(k, n - k)
        mode = np.exp(2j * np.pi * m * x / L) if m != k else np.exp(2j * np.pi * k * x / L)
        second = -((2 * np.pi * m / L) ** 2) * mode
        np.testing.assert_allclose(table[k] * mode, second, atol=1e-10)


def test_spectral_periodic_nyquist_even_n():
    n = 8
    table = eigenvalue_table(GridSpec(n, 1.0, BC.PERIODIC), AP.PSEUDO_SPECTRAL)
    assert table[n // 2] == pytest.approx(-((2 * np.pi * (n // 2)) ** 2), rel=1e-15)


# -- finite-difference table ----------------------------------------------------


def test_fd2_dirichlet_regular_single_point():
    # the 1x1 stencil matrix is [-2/dx^2]
    spec = GridSpec(1, 2.0, BC.DIRICHLET, GK.REGULAR)
    table = eigenvalue_table(spec, AP.FINITE_DIFFERENCE_2)
    assert spec.dx == 1.0
    assert table[0] == pytest.approx(-2.0, rel=1e-15)
    assert stencil_matrix_1d(spec)[0, 0] == -2.0


def test_fd2_neumann_staggered_null():
    table = eigenvalue_table(GridSpec(7, 1.0, BC.NEUMANN, GK.STAGGERED),
                             AP.FINITE_DIFFERENCE_2)
    assert table[0] == 0.0


def test_fd2_periodic_nyquist():
    spec = GridSpec(4, 4.0, BC.PERIODIC)  # dx = 1
    table = eigenvalue_table(spec, AP.FINITE_DIFFERENCE_2)
    assert table[2] == pytest.approx(-4.0, rel=1e-15)
    # dense circulant oracle
    mat = stencil_matrix_1d(spec)
    eig = np.sort(np.linalg.eigvalsh(mat))
    assert eig[0] == pytest.approx(-4.0, rel=1e-12)


@pytest.mark.parametrize("bc,kind", ROWS, ids=ROW_IDS)
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 16])
def test_fd2_matches_dense_matrix(bc, kind, n):
    if bc is BC.NEUMANN and kind is GK.REGULAR and n < 2:
        pytest.skip("needs two points")
    spec = GridSpec(n, 1.3, bc, kind)
    mat = stencil_matrix_1d(spec)
    table = eigenvalue_table(spec, AP.FINITE_DIFFERENCE_2)
    scale = 4.0 / spec.dx ** 2
    for k in range(n):
        v = basis_vector(spec, k)
        resid = np.abs(mat @ v - table[k] * v).max()
        assert resid <= 1e-10 * scale * np.abs(v).max(), (bc, kind, n, k)


@pytest.mark.parametrize("bc,kind", ROWS, ids=ROW_IDS)
def test_all_values_nonpositive_and_monotone(bc, kind):
    spec = GridSpec(16, 1.0, bc, kind)
    for table in (eigenvalue_table(spec, AP.PSEUDO_SPECTRAL),
                  eigenvalue_table(spec, AP.FINITE_DIFFERENCE_2)):
        assert np.all(table <= 0.0)
        mag = np.abs(table)
        if bc is BC.PERIODIC:
            k = np.arange(16)
            order = np.argsort(np.minimum(k, 16 - k), kind="stable")
            mag = mag[order]
        assert np.all(np.diff(mag) >= -1e-12)


def test_fd2_approaches_spectral_for_small_angles():
    # fixed k, refine: the finite-difference value converges to the spectral one
    spec = GridSpec(512, 1.0, BC.DIRICHLET, GK.REGULAR)
    ratio = (eigenvalue_table(spec, AP.FINITE_DIFFERENCE_2)[1]
             / eigenvalue_table(spec, AP.PSEUDO_SPECTRAL)[1])
    assert 0.99 <= ratio <= 1.0


def test_null_indices_by_condition():
    # the solver takes the null mode of a grid without a Dirichlet axis to be
    # the one at index (0, .., 0): each such axis vanishes at k = 0 only
    for (bc, kind), n, approx in itertools.product(ROWS, (1, 2, 3, 8, 9), AP):
        if bc is BC.NEUMANN and kind is GK.REGULAR and n < 2:
            continue  # needs two points
        table = eigenvalue_table(GridSpec(n, 1.3, bc, kind), approx)
        case = (bc.value, kind.value, n, approx.value)
        assert (table.dtype, table.shape) == (np.float64, (n,)), case
        expected = [] if bc is BC.DIRICHLET else [0]
        assert np.flatnonzero(table == 0.0).tolist() == expected, case


# -- combination ----------------------------------------------------------------


def test_combine_all_neumann_3d():
    t = eigenvalue_table(GridSpec(4, 1.0, BC.NEUMANN, GK.STAGGERED),
                         AP.FINITE_DIFFERENCE_2)
    combined = combine_eigenvalues([t, t, t])
    assert combined[0, 0, 0] == 0.0
    mask = np.ones((4, 4, 4), bool)
    mask[0, 0, 0] = False
    assert np.all(combined[mask] < 0.0)


def test_combine_dirichlet_has_no_null():
    t = eigenvalue_table(GridSpec(3, 1.0, BC.DIRICHLET, GK.REGULAR), AP.FINITE_DIFFERENCE_2)
    combined = combine_eigenvalues([t, t])
    assert np.all(combined < 0.0)


def test_combine_periodic_fd2_value():
    spec = GridSpec(4, 4.0, BC.PERIODIC)  # dx = 1
    t = eigenvalue_table(spec, AP.FINITE_DIFFERENCE_2)
    combined = combine_eigenvalues([t, t])
    assert combined[2, 2] == pytest.approx(-8.0, rel=1e-14)
    # dense circulant oracle for the sum
    mat = stencil_matrix_1d(spec)
    full = np.kron(mat, np.eye(4)) + np.kron(np.eye(4), mat)
    assert np.min(np.linalg.eigvalsh(full)) == pytest.approx(-8.0, rel=1e-12)


def test_combine_rank_limits():
    t = eigenvalue_table(GridSpec(3, 1.0, BC.DIRICHLET, GK.REGULAR), AP.FINITE_DIFFERENCE_2)
    with pytest.raises(ValueError):
        combine_eigenvalues([t] * 4)



# -- one wavenumber per row -------------------------------------------------------


@pytest.mark.parametrize("n", [6, 64, 1000, 1024])
def test_periodic_fd2_table_exactly_symmetric(n):
    # indices k and n-k sample the same folded wavenumber
    table = eigenvalue_table(GridSpec(n, 1.7, BC.PERIODIC), AP.FINITE_DIFFERENCE_2)
    assert np.array_equal(table[1:], table[1:][::-1])


@pytest.mark.parametrize("bc,kind", ROWS, ids=ROW_IDS)
@pytest.mark.parametrize("n", [2, 7, 64, 1000])
def test_fd2_matches_stencil_angles(bc, kind, n):
    # the stencil matrix's eigenvalues in closed form, -(2 sin(theta_k) / dx)^2,
    # with each row's angle written out on its own
    spec = GridSpec(n, 1.3, bc, kind)
    k = np.arange(n)
    if bc is BC.PERIODIC:
        theta = np.pi * np.minimum(k, n - k) / n
    elif bc is BC.DIRICHLET:
        theta = np.pi * (k + 1) / (2 * (n + 1 if kind is GK.REGULAR else n))
    else:
        theta = np.pi * k / (2 * (n - 1 if kind is GK.REGULAR else n))
    expected = -((2.0 * np.sin(theta) / spec.dx) ** 2)
    np.testing.assert_allclose(eigenvalue_table(spec, AP.FINITE_DIFFERENCE_2), expected,
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("approximation", ["fd2", "spectral", None])
def test_table_refuses_a_non_member_approximation(approximation):
    with pytest.raises(ConfigurationError, match="approximation"):
        eigenvalue_table(GridSpec(4, 1.0, BC.PERIODIC), approximation)
