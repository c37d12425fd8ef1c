import numpy as np
import pytest

from fastpoisson.grid import (
    Approximation as AP,
    BoundaryCondition as BC,
    ConfigurationError,
    GridKind as GK,
    GridSpec,
)
from fastpoisson.solver import SolverConfig, SolverPlan
from fastpoisson.verify import (
    ManufacturedCase,
    apply_discrete_laplacian,
    convergence_order,
    dense_oracle_solve,
    laplacian_matrix,
    mms_error,
    standard_case,
    stencil_matrix_1d,
)

from conftest import ROWS, ROW_IDS


# -- dense oracle -----------------------------------------------------------------


def test_dense_oracle_hand_eliminated_tridiagonal():
    # 1D Dirichlet regular, n=3, dx=1: tridiag{1,-2,1} phi = (1,0,0)
    config = SolverConfig((GridSpec(3, 4.0, BC.DIRICHLET, GK.REGULAR),), AP.FINITE_DIFFERENCE_2)
    assert config.grids[0].dx == 1.0
    sol = dense_oracle_solve(config, np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(sol, [-0.75, -0.5, -0.25], atol=1e-14)


def test_dense_oracle_zero_rhs():
    config = SolverConfig(
        (GridSpec(4, 1.0, BC.NEUMANN, GK.STAGGERED), GridSpec(4, 1.0, BC.NEUMANN, GK.STAGGERED)),
        AP.FINITE_DIFFERENCE_2,
    )
    assert np.all(dense_oracle_solve(config, np.zeros((4, 4))) == 0.0)


def test_dense_oracle_periodic_residual(rng):
    config = SolverConfig((GridSpec(4, 1.0, BC.PERIODIC),), AP.FINITE_DIFFERENCE_2)
    rhs = rng.standard_normal(4)
    rhs -= rhs.mean()
    sol = dense_oracle_solve(config, rhs)
    resid = apply_discrete_laplacian(config, sol) - rhs
    assert np.abs(resid).max() <= 1e-12


def test_dense_oracle_size_guard():
    config = SolverConfig(
        (GridSpec(65, 1.0, BC.PERIODIC), GridSpec(65, 1.0, BC.PERIODIC)),
        AP.FINITE_DIFFERENCE_2,
    )
    with pytest.raises(ValueError):
        dense_oracle_solve(config, np.zeros((65, 65)))


def test_stencil_matrix_row_shapes():
    # staggered Dirichlet carries -3 on boundary rows, staggered Neumann -1,
    # regular Neumann a doubled off-diagonal
    sd = stencil_matrix_1d(GridSpec(4, 4.0, BC.DIRICHLET, GK.STAGGERED))
    assert sd[0, 0] == -3.0 and sd[-1, -1] == -3.0
    sn = stencil_matrix_1d(GridSpec(4, 4.0, BC.NEUMANN, GK.STAGGERED))
    assert sn[0, 0] == -1.0 and sn[-1, -1] == -1.0
    rn = stencil_matrix_1d(GridSpec(4, 3.0, BC.NEUMANN, GK.REGULAR))
    assert rn[0, 1] == 2.0 and rn[-1, -2] == 2.0


def test_laplacian_matrix_matches_operator(rng):
    config = SolverConfig(
        (GridSpec(5, 1.0, BC.PERIODIC), GridSpec(4, 2.0, BC.NEUMANN, GK.STAGGERED)),
        AP.FINITE_DIFFERENCE_2,
    )
    mat = laplacian_matrix(config)
    x = rng.standard_normal((5, 4))
    np.testing.assert_allclose(
        (mat @ x.ravel()).reshape(5, 4), apply_discrete_laplacian(config, x), atol=1e-11
    )


# -- manufactured solutions ---------------------------------------------------------


def test_mms_spectral_eigenmode_exact():
    L = 1.0
    case = ManufacturedCase(
        solution=lambda x: np.sin(3 * np.pi * x / L),
        rhs=lambda x: -((3 * np.pi / L) ** 2) * np.sin(3 * np.pi * x / L),
        bcs=((BC.DIRICHLET, GK.REGULAR),),
        lengths=(L,),
    )
    plan = SolverPlan(case.config(24, AP.PSEUDO_SPECTRAL))
    norms = mms_error(plan, case)
    assert norms.max <= 1e-12


def test_mms_fd2_second_order_ratio():
    case = standard_case(BC.DIRICHLET, GK.REGULAR, dims=1)
    e32 = mms_error(SolverPlan(case.config(32, AP.FINITE_DIFFERENCE_2)), case).max
    e64 = mms_error(SolverPlan(case.config(64, AP.FINITE_DIFFERENCE_2)), case).max
    assert 3.6 <= e32 / e64 <= 4.4


def test_mms_constant_under_all_neumann():
    case = ManufacturedCase(
        solution=lambda x: np.full_like(x, 5.0),
        rhs=lambda x: np.zeros_like(x),
        bcs=((BC.NEUMANN, GK.STAGGERED),),
        lengths=(1.0,),
    )
    plan = SolverPlan(case.config(16, AP.FINITE_DIFFERENCE_2))
    norms = mms_error(plan, case)
    assert norms.max <= 1e-13  # zero after mean removal


def test_mms_pattern_mismatch_rejected():
    case = standard_case(BC.DIRICHLET, GK.REGULAR, dims=1)
    plan = SolverPlan(
        SolverConfig((GridSpec(8, 1.0, BC.NEUMANN, GK.STAGGERED),), AP.FINITE_DIFFERENCE_2)
    )
    with pytest.raises(ConfigurationError):
        mms_error(plan, case)


# -- convergence orders ----------------------------------------------------------


@pytest.mark.parametrize("bc,kind", ROWS, ids=ROW_IDS)
def test_fd2_convergence_second_order_1d(bc, kind):
    case = standard_case(bc, kind, dims=1, length=1.0)
    report = convergence_order(case, (16, 32, 64, 128), AP.FINITE_DIFFERENCE_2)
    assert report.finest_order == pytest.approx(2.0, abs=0.1)


def test_fd2_convergence_second_order_2d_neumann_staggered():
    case = standard_case(BC.NEUMANN, GK.STAGGERED, dims=2)
    report = convergence_order(case, (16, 32, 64, 128), AP.FINITE_DIFFERENCE_2)
    assert report.finest_order == pytest.approx(2.0, abs=0.1)


def test_spectral_band_limited_flagged_exact():
    case = standard_case(BC.PERIODIC, GK.REGULAR, dims=1)
    report = convergence_order(case, (16, 32, 64), AP.PSEUDO_SPECTRAL)
    assert all(report.spectral_exact)
    assert all(p is None for p in report.orders)


def test_fd2_discrete_eigenvector_solved_exactly():
    # rhs built from the discrete operator itself: the FD2 solve reproduces the
    # field at roundoff for every size (no order to fit)
    for n in (8, 16, 32):
        spec = GridSpec(n, 1.0, BC.DIRICHLET, GK.REGULAR)
        config = SolverConfig((spec,), AP.FINITE_DIFFERENCE_2)
        from fastpoisson.verify import basis_vector

        v = basis_vector(spec, 2)
        rhs = apply_discrete_laplacian(config, v)
        sol, _ = SolverPlan(config).solve(rhs)
        assert np.abs(sol - v).max() <= 1e-12


def test_convergence_order_sorts_sizes():
    case = standard_case(BC.DIRICHLET, GK.STAGGERED, dims=1)
    a = convergence_order(case, (64, 16, 32), AP.FINITE_DIFFERENCE_2)
    b = convergence_order(case, (16, 32, 64), AP.FINITE_DIFFERENCE_2)
    assert a.sizes == b.sizes == (16, 32, 64)
    assert a.l2_errors == b.l2_errors


def test_convergence_order_needs_three_sizes():
    case = standard_case(BC.PERIODIC, GK.REGULAR, dims=1)
    with pytest.raises(ValueError):
        convergence_order(case, (16, 32), AP.FINITE_DIFFERENCE_2)
