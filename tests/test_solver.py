import dataclasses
import json
import math
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from fastpoisson.eigenvalues import combine_eigenvalues, eigenvalue_table
from fastpoisson.grid import (
    Approximation as AP,
    BoundaryCondition as BC,
    ConfigurationError,
    GridKind as GK,
    GridSpec,
)
from fastpoisson.solver import SolverConfig, SolverPlan
from fastpoisson.transforms import TransformPlan, transform_pair_for
from fastpoisson.verify import (
    apply_discrete_laplacian,
    basis_vector,
    dense_oracle_solve,
    laplacian_matrix,
)

from conftest import ROWS, ROW_IDS



def periodic(n, length=1.0):
    return GridSpec(n, length, BC.PERIODIC, GK.REGULAR)


def uniform_config(bc, kind, shape, approx=AP.FINITE_DIFFERENCE_2, lengths=None):
    lengths = lengths or tuple(1.0 + 0.5 * i for i in range(len(shape)))
    grids = tuple(GridSpec(n, L, bc, kind) for n, L in zip(shape, lengths))
    return SolverConfig(grids, approx)


# -- configuration validation ---------------------------------------------------


# non-periodic axes take any rows: each axis's transform pair follows from its
# own row, so these patterns run through the same pipeline as any other
def test_config_accepts_differing_nonperiodic_rows(rng):
    grids = (
        GridSpec(4, 1.0, BC.DIRICHLET, GK.REGULAR),
        GridSpec(5, 1.5, BC.NEUMANN, GK.STAGGERED),
    )
    config = SolverConfig(grids, AP.FINITE_DIFFERENCE_2)
    assert config.periodic_axes == () and not config.singular
    plan = SolverPlan(config)
    assert [(a.bc, a.grid, a.forward) for a in plan.describe().axes] == [
        ("dirichlet", "regular", "dst1"), ("neumann", "staggered", "dct2")]
    rhs = rng.standard_normal(config.shape)
    ref = dense_oracle_solve(config, rhs)
    assert np.abs(plan.solve(rhs)[0] - ref).max() <= 1e-12 * np.abs(ref).max()


def test_config_accepts_mixed_kind_same_bc(rng):
    grids = (
        GridSpec(4, 1.0, BC.DIRICHLET, GK.REGULAR),
        GridSpec(5, 1.5, BC.DIRICHLET, GK.STAGGERED),
    )
    config = SolverConfig(grids, AP.FINITE_DIFFERENCE_2)
    plan = SolverPlan(config)
    assert [(a.grid, a.forward) for a in plan.describe().axes] == [
        ("regular", "dst1"), ("staggered", "dst2")]
    rhs = rng.standard_normal(config.shape)
    ref = dense_oracle_solve(config, rhs)
    assert np.abs(plan.solve(rhs)[0] - ref).max() <= 1e-12 * np.abs(ref).max()


def test_config_accepts_periodic_anywhere():
    # periodic on the second axis is accepted (axis roles are free)
    grids = (
        GridSpec(4, 1.0, BC.DIRICHLET, GK.STAGGERED),
        GridSpec(6, 1.0, BC.PERIODIC, GK.REGULAR),
    )
    config = SolverConfig(grids, AP.FINITE_DIFFERENCE_2)
    assert config.periodic_axes == (1,)


def test_config_three_axis_patterns():
    per = GridSpec(4, 1.0, BC.PERIODIC, GK.REGULAR)
    neu = GridSpec(4, 1.0, BC.NEUMANN, GK.STAGGERED)
    dirichlet = GridSpec(4, 1.0, BC.DIRICHLET, GK.REGULAR)
    for grids, periodic_axes in [((per, per, neu), (0, 1)), ((per, neu, neu), (0,)),
                                 ((per, per, per), (0, 1, 2)), ((neu, per, dirichlet), (1,)),
                                 ((dirichlet, neu, neu), ())]:
        assert SolverConfig(grids, AP.FINITE_DIFFERENCE_2).periodic_axes == periodic_axes


def test_config_dimension_limits():
    g = GridSpec(4, 1.0, BC.PERIODIC)
    with pytest.raises(ConfigurationError):
        SolverConfig((g,) * 4, AP.FINITE_DIFFERENCE_2)
    with pytest.raises(ConfigurationError):
        SolverConfig((), AP.FINITE_DIFFERENCE_2)


@pytest.mark.parametrize("approximation", ["spectral", "fd2", None])
def test_config_refuses_a_non_member_approximation(approximation):
    # a string once built a plan that silently solved FD2
    g = GridSpec(4, 1.0, BC.PERIODIC)
    with pytest.raises(ConfigurationError, match="approximation"):
        SolverConfig((g,), approximation)


def test_config_precision_values():
    g = GridSpec(4, 1.0, BC.PERIODIC)
    assert SolverConfig((g,), AP.FINITE_DIFFERENCE_2).dtype == np.float64
    assert SolverConfig((g,), AP.FINITE_DIFFERENCE_2, precision="single").dtype == np.float32
    with pytest.raises(ConfigurationError):
        SolverConfig((g,), AP.FINITE_DIFFERENCE_2, precision="half")


def test_plan_create_populates_tables():
    config = uniform_config(BC.PERIODIC, GK.REGULAR, (4, 4, 4), AP.PSEUDO_SPECTRAL)
    plan = SolverPlan(config)
    # the inverse eigenvalues on the half spectrum of the last periodic axis,
    # with the one null mode at the origin set to zero
    assert plan._inv_lam.shape == (4, 4, 3)
    lam = eigenvalue_table(config.grids[0], AP.PSEUDO_SPECTRAL)
    np.testing.assert_allclose(plan._inv_lam[1:, 0, 0], 1.0 / lam[1:], rtol=1e-15)
    assert plan._inv_lam[0, 0, 0] == 0.0 and np.count_nonzero(plan._inv_lam == 0.0) == 1


# -- solve basics ----------------------------------------------------------------


def test_solve_zero_rhs_gives_zero():
    plan = SolverPlan(uniform_config(BC.DIRICHLET, GK.REGULAR, (8, 8)))
    sol, report = plan.solve(np.zeros((8, 8)))
    assert np.all(sol == 0.0)
    assert report.removed_mean == 0.0


@pytest.mark.parametrize("approx", [AP.PSEUDO_SPECTRAL, AP.FINITE_DIFFERENCE_2])
def test_solve_eigenvector_in_eigenvector_out(approx):
    # Dirichlet regular, k = 2, n = 8: rhs = lambda_k * v_k must return v_k
    spec = GridSpec(8, 1.0, BC.DIRICHLET, GK.REGULAR)
    config = SolverConfig((spec,), approx)
    plan = SolverPlan(config)
    lam = eigenvalue_table(spec, approx)[2]
    v = basis_vector(spec, 2)
    sol, _ = plan.solve(lam * v)
    assert np.abs(sol - v).max() <= 1e-12


_CONSTANT_RHS_LAYOUTS = {
    "all-periodic-2d": (periodic(8), periodic(6, 1.5)),
    "periodic-neumann-stag-3d": (periodic(8), GridSpec(5, 1.5, BC.NEUMANN, GK.STAGGERED),
                                 GridSpec(4, 2.0, BC.NEUMANN, GK.STAGGERED)),
    "all-neumann": (GridSpec(6, 1.0, BC.NEUMANN, GK.STAGGERED),
                    GridSpec(5, 1.5, BC.NEUMANN, GK.STAGGERED)),
    "periodic-neumann-reg": (periodic(8), GridSpec(9, 1.5, BC.NEUMANN, GK.REGULAR)),
    # DCT-I of length 193 runs through pocketfft, not the matrix product
    "all-neumann-reg-pocketfft": (GridSpec(11, 1.0, BC.NEUMANN, GK.REGULAR),
                                  GridSpec(193, 1.5, BC.NEUMANN, GK.REGULAR)),
}


@pytest.mark.parametrize(
    "grids,precision",
    [(grids, p) for grids in _CONSTANT_RHS_LAYOUTS.values() for p in ("double", "single")],
    ids=[name + suffix for name in _CONSTANT_RHS_LAYOUTS for suffix in ("", "-single")],
)
def test_constant_rhs_removed_mean(grids, precision):
    # the removed mean is the null coefficient times the backward
    # normalization and 1/N per periodic axis, whatever the transform kinds
    plan = SolverPlan(SolverConfig(grids, AP.FINITE_DIFFERENCE_2, precision=precision))
    tol = 64 * np.finfo(plan.dtype).eps
    c = -2.75
    sol, report = plan.solve(np.full(plan.shape, c))
    assert np.abs(sol).max() <= tol * abs(c)
    assert report.removed_mean == pytest.approx(c, rel=tol)


def test_removed_mean_zero_with_dirichlet_axis():
    config = SolverConfig(
        (GridSpec(6, 1.0, BC.PERIODIC), GridSpec(5, 1.0, BC.DIRICHLET, GK.REGULAR)),
        AP.FINITE_DIFFERENCE_2,
    )
    plan = SolverPlan(config)
    sol, report = plan.solve(np.ones((6, 5)))
    assert report.removed_mean == 0.0
    assert np.abs(sol).max() > 0.0


def test_solve_validates_extents_and_finiteness():
    plan = SolverPlan(uniform_config(BC.PERIODIC, GK.REGULAR, (4, 4)))
    with pytest.raises(ValueError):
        plan.solve(np.zeros((4, 5)))
    bad = np.zeros((4, 4))
    bad[1, 2] = np.nan
    with pytest.raises(ValueError):
        plan.solve(bad)
    with pytest.raises(ValueError):
        plan.solve(np.zeros((4, 4)), out=np.zeros((5, 4)))
    # a complex or string rhs and an integer out would be cast silently
    for rhs, out, dtype in ((np.full((4, 4), 1j), None, "complex128"),
                            (np.full((4, 4), "a"), None, "<U1"),
                            (np.ones((4, 4)), np.zeros((4, 4), np.int64), "int64")):
        with pytest.raises(TypeError, match=dtype):
            plan.solve(rhs, out=out)


def test_solve_refuses_read_only_out_before_any_pass(monkeypatch):
    plan = SolverPlan(uniform_config(BC.DIRICHLET, GK.REGULAR, (4, 5)))
    passes = []
    monkeypatch.setattr(plan, "_real_transform", lambda *args, **kw: passes.append(args))
    out = np.zeros((4, 5))
    out.flags.writeable = False
    with pytest.raises(ValueError, match="out"):
        plan.solve(np.ones((4, 5)), out=out)
    assert passes == []


# -- the central oracle-equivalence property ------------------------------------


@pytest.mark.parametrize("bc,kind", ROWS, ids=ROW_IDS)
@pytest.mark.parametrize("shape", [(7,), (8,), (5, 4), (8, 8), (4, 7)])
def test_matches_dense_oracle(bc, kind, shape, rng):
    config = uniform_config(bc, kind, shape)
    plan = SolverPlan(config)
    mat = laplacian_matrix(config)
    # compatible by construction for singular patterns
    rhs = (mat @ rng.standard_normal(shape).ravel()).reshape(shape)
    sol, _ = plan.solve(rhs)
    ref = dense_oracle_solve(config, rhs)
    assert np.abs(sol - ref).max() <= 1e-9 * max(np.abs(ref).max(), 1e-30)


@pytest.mark.parametrize("bc,kind", ROWS, ids=ROW_IDS)
def test_fd2_residual(bc, kind, rng):
    config = uniform_config(bc, kind, (12, 9))
    plan = SolverPlan(config)
    rhs = rng.standard_normal((12, 9))
    sol, report = plan.solve(rhs)
    effective = rhs - report.removed_mean
    resid = apply_discrete_laplacian(config, sol) - effective
    assert np.abs(resid).max() <= 1e-10 * np.abs(rhs).max()


def test_solve_linearity(rng):
    plan = SolverPlan(uniform_config(BC.DIRICHLET, GK.STAGGERED, (9, 6)))
    f = rng.standard_normal((9, 6))
    g = rng.standard_normal((9, 6))
    a, b = 0.6, -2.2
    combined, _ = plan.solve(a * f + b * g)
    fa, _ = plan.solve(f)
    gb, _ = plan.solve(g)
    np.testing.assert_allclose(combined, a * fa + b * gb, atol=1e-12 * np.abs(combined).max())


def test_translation_equivariance_periodic(rng):
    plan = SolverPlan(uniform_config(BC.PERIODIC, GK.REGULAR, (8, 8)))
    rhs = rng.standard_normal((8, 8))
    rhs -= rhs.mean()
    base, _ = plan.solve(rhs)
    shifted, _ = plan.solve(np.roll(rhs, (3, 5), axis=(0, 1)))
    np.testing.assert_allclose(shifted, np.roll(base, (3, 5), axis=(0, 1)), atol=1e-12)


# -- sub-array and aliasing semantics --------------------------------------------


def test_subblock_transparency(rng):
    config = uniform_config(BC.NEUMANN, GK.STAGGERED, (6, 7))
    plan = SolverPlan(config)
    rhs_tight = rng.standard_normal((6, 7))

    rhs_parent = np.full((10, 11), 123.0)
    rhs_view = rhs_parent[2:8, 2:9]
    rhs_view[...] = rhs_tight
    sol_parent = np.full((9, 13), -9.0)
    sol_view = sol_parent[1:7, 3:10]

    tight, _ = plan.solve(rhs_tight)
    plan.solve(rhs_view, out=sol_view)
    assert np.abs(sol_view - tight).max() <= 1e-14
    # ghost entries untouched
    mask = np.ones((9, 13), bool)
    mask[1:7, 3:10] = False
    assert np.all(sol_parent[mask] == -9.0)
    mask = np.ones((10, 11), bool)
    mask[2:8, 2:9] = False
    assert np.all(rhs_parent[mask] == 123.0)
    np.testing.assert_array_equal(rhs_view, rhs_tight)  # rhs preserved


def test_in_place_aliasing(rng):
    plan = SolverPlan(uniform_config(BC.DIRICHLET, GK.REGULAR, (8, 5)))
    rhs = rng.standard_normal((8, 5))
    expected, _ = plan.solve(rhs)
    buf = rhs.copy()
    plan.solve(buf, out=buf)
    np.testing.assert_array_equal(buf, expected)


def test_plan_state_not_mutated_by_solve(rng):
    plan = SolverPlan(uniform_config(BC.PERIODIC, GK.REGULAR, (8, 8), AP.PSEUDO_SPECTRAL))
    snapshot = plan._inv_lam.copy()
    for _ in range(3):
        plan.solve(rng.standard_normal((8, 8)))
    np.testing.assert_array_equal(plan._inv_lam, snapshot)


def test_concurrent_solves_on_shared_plan(rng):
    plan = SolverPlan(uniform_config(BC.DIRICHLET, GK.REGULAR, (16, 16)))
    inputs = [rng.standard_normal((16, 16)) for _ in range(8)]
    expected = [plan.solve(r)[0] for r in inputs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda r: plan.solve(r)[0], inputs))
    for got, want in zip(results, expected):
        np.testing.assert_array_equal(got, want)


def test_matrix_plan_repeated_and_concurrent_solves_bit_identical(rng):
    # the benchmark's dirbox3d configuration, whose DST-I axes take the matrix;
    # more threads than cores, with a short switch interval
    config = uniform_config(BC.DIRICHLET, GK.REGULAR, (52, 52, 52), AP.PSEUDO_SPECTRAL)
    plan = SolverPlan(config)
    assert {axis.method for axis in plan.describe().axes} == {"matrix"}
    inputs = [rng.standard_normal(plan.shape) for _ in range(4)]
    expected = [plan.solve(r)[0] for r in inputs]
    for r, want in zip(inputs, expected):
        np.testing.assert_array_equal(plan.solve(r)[0], want)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(plan.solve, r) for r in inputs * 2]
            results = [f.result(timeout=120)[0] for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(results, expected * 2):
        np.testing.assert_array_equal(got, want)


_MATRIX_LAYOUTS = {
    # DST-I n = 12: FFT length 26 = 2 * 13
    "dirichlet-2d": uniform_config(BC.DIRICHLET, GK.REGULAR, (12, 7)).grids,
    # DCT-II/III n = 13 on a strided (reordered) axis and on the last axis
    "neumann-stag-strided": (GridSpec(13, 1.0, BC.NEUMANN, GK.STAGGERED), periodic(4),
                             GridSpec(13, 2.0, BC.NEUMANN, GK.STAGGERED)),
    # DCT-I n = 14: FFT length 26
    "neumann-reg-first": (GridSpec(14, 1.5, BC.NEUMANN, GK.REGULAR), periodic(6)),
}


@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("grids", list(_MATRIX_LAYOUTS.values()), ids=list(_MATRIX_LAYOUTS))
def test_matrix_axes_match_dense_oracle(grids, precision, rng):
    config = SolverConfig(grids, AP.FINITE_DIFFERENCE_2, precision=precision)
    plan = SolverPlan(config)
    assert "matrix" in {axis.method for axis in plan.describe().axes}
    mat = laplacian_matrix(config)
    rhs = (mat @ rng.standard_normal(config.shape).ravel()).reshape(config.shape)
    sol, _ = plan.solve(rhs.astype(config.dtype))
    assert sol.dtype == config.dtype
    ref = dense_oracle_solve(config, rhs)
    tol = 1e-9 if precision == "double" else 1e-4
    assert np.abs(sol - ref).max() <= tol * np.abs(ref).max()


def test_describe_is_frozen_and_json_ready():
    grids = (periodic(8), GridSpec(52, 1.0, BC.DIRICHLET, GK.REGULAR),
             GridSpec(255, 1.0, BC.DIRICHLET, GK.REGULAR))
    described = SolverPlan(SolverConfig(grids, AP.FINITE_DIFFERENCE_2, precision="single")).describe()
    with pytest.raises(dataclasses.FrozenInstanceError):
        described.dtype = "float64"

    def axis(bc, n, fwd, bwd, length, prime, method):
        return {"bc": bc, "grid": "regular", "n": n, "forward": fwd, "backward": bwd,
                "fft_length": length, "largest_prime": prime, "method": method}

    assert json.loads(json.dumps(dataclasses.asdict(described))) == {
        "dtype": "float32",
        "axes": [
            axis("periodic", 8, "dft", "idft", 8, 2, "fft"),
            axis("dirichlet", 52, "dst1", "dst1", 106, 53, "matrix"),
            axis("dirichlet", 255, "dst1", "dst1", 512, 2, "fft"),
        ],
        # float32: the half spectrum keeps 8 // 2 + 1 = 5 rows of complex64;
        # the 52-point axis is reordered, so its 128-line chunk is 128 x 52
        "workspace": {"working_copy": 8 * 52 * 255 * 4, "half_spectrum": 5 * 52 * 255 * 8,
                      "line_buffer": 8 * 52 * 255 * 4, "matrix_temporary": 128 * 52 * 4},
        # the inverse eigenvalues, in float32 on the same half spectrum
        "resident_bytes": 5 * 52 * 255 * 4,
    }


# -- mixed-boundary paths ---------------------------------------------------------


_WALL_ROWS = {"dir-reg": (BC.DIRICHLET, GK.REGULAR), "dir-stag": (BC.DIRICHLET, GK.STAGGERED),
              "neu-reg": (BC.NEUMANN, GK.REGULAR), "neu-stag": (BC.NEUMANN, GK.STAGGERED)}
# a periodic x with each wall row in z (ids: the z row), then every pair of
# two different wall rows (ids: x row, then z row)
_PRODUCT_ROWS = {
    **{zid: ((BC.PERIODIC, GK.REGULAR), zrow) for zid, zrow in _WALL_ROWS.items()},
    **{f"{xid}-x-{zid}": (xrow, zrow) for xid, xrow in _WALL_ROWS.items()
       for zid, zrow in _WALL_ROWS.items() if xid != zid},
}


@pytest.mark.parametrize("rows", list(_PRODUCT_ROWS.values()), ids=list(_PRODUCT_ROWS))
@pytest.mark.parametrize("approx", [AP.PSEUDO_SPECTRAL, AP.FINITE_DIFFERENCE_2])
def test_mixed_product_mode(rows, approx):
    (xbc, xkind), (zbc, zkind) = rows
    gx = GridSpec(8, 2.0, xbc, xkind)
    gz = GridSpec(6, 1.0, zbc, zkind)
    plan = SolverPlan(SolverConfig((gx, gz), approx))
    lx = eigenvalue_table(gx, approx)
    lz = eigenvalue_table(gz, approx)
    kx, kz = 2, 3
    vx = basis_vector(gx, kx).real
    vz = basis_vector(gz, kz)
    mode = vx[:, None] * vz[None, :]
    rhs = (lx[kx] + lz[kz]) * mode
    sol, _ = plan.solve(rhs)
    assert np.abs(sol - mode).max() <= 1e-12 * np.abs(mode).max()


def test_mixed_dimensional_reduction(rng):
    # rhs independent of the periodic axis reduces to the pure-1D solve
    gx = GridSpec(10, 2.0, BC.PERIODIC, GK.REGULAR)
    gz = GridSpec(7, 1.0, BC.DIRICHLET, GK.STAGGERED)
    plan2 = SolverPlan(SolverConfig((gx, gz), AP.FINITE_DIFFERENCE_2))
    plan1 = SolverPlan(SolverConfig((gz,), AP.FINITE_DIFFERENCE_2))
    line = rng.standard_normal(7)
    sol2, _ = plan2.solve(np.tile(line, (10, 1)))
    sol1, _ = plan1.solve(line)
    assert np.abs(sol2 - sol1[None, :]).max() <= 1e-12 * np.abs(sol1).max()


def test_mixed_3d_exercises_reorder_pass(rng):
    # periodic x with identical walls in y and z: the y transform runs through
    # the gather/scatter reorder seam
    gx = GridSpec(6, 1.0, BC.PERIODIC, GK.REGULAR)
    gy = GridSpec(5, 1.5, BC.NEUMANN, GK.STAGGERED)
    gz = GridSpec(4, 2.0, BC.NEUMANN, GK.STAGGERED)
    config = SolverConfig((gx, gy, gz), AP.FINITE_DIFFERENCE_2)
    plan = SolverPlan(config)
    # y is gathered into a line buffer of the field's size
    workspace = plan.describe().workspace
    assert workspace.line_buffer == workspace.working_copy == 6 * 5 * 4 * 8
    mat = laplacian_matrix(config)
    rhs = (mat @ rng.standard_normal(config.shape).ravel()).reshape(config.shape)
    sol, _ = plan.solve(rhs)
    ref = dense_oracle_solve(config, rhs)
    assert np.abs(sol - ref).max() <= 1e-9 * np.abs(ref).max()


def test_mixed_permuted_axis_roles(rng):
    # periodic on the LAST axis: the wall axis is non-contiguous and runs
    # through the reorder seam; answers still match the dense oracle
    gx = GridSpec(5, 1.0, BC.DIRICHLET, GK.STAGGERED)
    gy = GridSpec(6, 2.0, BC.PERIODIC, GK.REGULAR)
    config = SolverConfig((gx, gy), AP.FINITE_DIFFERENCE_2)
    plan = SolverPlan(config)
    workspace = plan.describe().workspace
    assert workspace.line_buffer == workspace.working_copy == 5 * 6 * 8
    rhs = rng.standard_normal((5, 6))
    sol, _ = plan.solve(rhs)
    ref = dense_oracle_solve(config, rhs)
    assert np.abs(sol - ref).max() <= 1e-9 * np.abs(ref).max()


def test_thread_count_does_not_change_results(rng):
    config = uniform_config(BC.NEUMANN, GK.STAGGERED, (32, 24))
    rhs = rng.standard_normal((32, 24))
    sol1, _ = SolverPlan(config, threads=1).solve(rhs)
    sol2, _ = SolverPlan(config, threads=4).solve(rhs)
    np.testing.assert_allclose(sol2, sol1, atol=1e-13 * np.abs(sol1).max())


def test_plan_rejects_threads_below_one():
    config = uniform_config(BC.PERIODIC, GK.REGULAR, (8,))
    for threads in (0, -3):
        with pytest.raises(ConfigurationError, match="threads must be at least 1"):
            SolverPlan(config, threads=threads)


@pytest.mark.parametrize("length", [1e25, 1e-25], ids=["overflow", "underflow"])
def test_plan_rejects_inverse_eigenvalues_outside_precision(length):
    # in float32 the inverse eigenvalues (about L^2) leave the range; float64
    # still holds them, and its plan solves the problem
    grids = (GridSpec(8, length, BC.DIRICHLET, GK.REGULAR),) * 2
    with pytest.raises(ConfigurationError, match="single precision"):
        SolverPlan(SolverConfig(grids, AP.FINITE_DIFFERENCE_2, precision="single"))
    config = SolverConfig(grids, AP.FINITE_DIFFERENCE_2)
    rhs = np.ones(config.shape)
    sol, _ = SolverPlan(config).solve(rhs)
    assert np.all(np.isfinite(sol)) and np.all(sol != 0.0)
    assert np.abs(apply_discrete_laplacian(config, sol) - rhs).max() <= 1e-12


# -- discrete Laplacian aid -------------------------------------------------------


def test_laplacian_requires_fd2():
    config = uniform_config(BC.PERIODIC, GK.REGULAR, (4,), AP.PSEUDO_SPECTRAL)
    with pytest.raises(ConfigurationError):
        apply_discrete_laplacian(config, np.zeros(4))


def test_laplacian_eigenvector():
    spec = GridSpec(9, 1.0, BC.DIRICHLET, GK.STAGGERED)
    config = SolverConfig((spec,), AP.FINITE_DIFFERENCE_2)
    lam = eigenvalue_table(spec, AP.FINITE_DIFFERENCE_2)[4]
    v = basis_vector(spec, 4)
    np.testing.assert_allclose(
        apply_discrete_laplacian(config, v), lam * v, atol=1e-11 * abs(lam)
    )


def test_laplacian_constant_all_neumann():
    config = uniform_config(BC.NEUMANN, GK.STAGGERED, (5, 4))
    out = apply_discrete_laplacian(config, np.full((5, 4), 7.0))
    assert np.abs(out).max() == 0.0


def test_laplacian_constant_dirichlet_boundary_rows():
    # constant field: interior rows cancel, boundary-adjacent rows feel the wall
    spec = GridSpec(4, 5.0, BC.DIRICHLET, GK.REGULAR)  # dx = 1
    config = SolverConfig((spec,), AP.FINITE_DIFFERENCE_2)
    c = 3.0
    out = apply_discrete_laplacian(config, np.full(4, c))
    np.testing.assert_allclose(out, [-c, 0.0, 0.0, -c], atol=1e-14)


def test_laplacian_extent_mismatch():
    config = uniform_config(BC.PERIODIC, GK.REGULAR, (4, 4))
    with pytest.raises(ValueError):
        apply_discrete_laplacian(config, np.zeros((4, 5)))


# -- precision --------------------------------------------------------------------


def test_single_precision_solve(rng):
    # Dirichlet (real transforms only), all periodic (complex FFT only) and
    # mixed periodic + Neumann staggered (both, with a null mode)
    for grids in (
        uniform_config(BC.DIRICHLET, GK.REGULAR, (16, 16)).grids,
        uniform_config(BC.PERIODIC, GK.REGULAR, (16, 12)).grids,
        (GridSpec(12, 2.0, BC.PERIODIC), GridSpec(10, 1.0, BC.NEUMANN, GK.STAGGERED)),
    ):
        config = SolverConfig(grids, AP.FINITE_DIFFERENCE_2, precision="single")
        plan = SolverPlan(config)
        rhs = rng.standard_normal(config.shape).astype(np.float32)
        sol, _ = plan.solve(rhs)
        assert sol.dtype == np.float32
        ref = dense_oracle_solve(SolverConfig(config.grids, AP.FINITE_DIFFERENCE_2), rhs.astype(np.float64))
        assert np.abs(sol - ref).max() <= 1e-4 * np.abs(ref).max(), grids


# -- real-to-complex pipeline: half spectrum, in-place transforms, owned output --


# the last periodic axis is the one rfftn halves
_PIPELINE_LAYOUTS = {
    **{f"halved-odd-{n}": (GridSpec(4, 1.5, BC.DIRICHLET, GK.STAGGERED), periodic(n, 2.0))
       for n in (1, 3, 7)},
    **{f"periodic-2d-odd-{n}": (periodic(6), periodic(n, 1.5)) for n in (1, 3, 7)},
    "periodic-not-last": (periodic(7), GridSpec(5, 1.5, BC.NEUMANN, GK.STAGGERED)),
    "periodic-middle-odd": (
        GridSpec(4, 1.0, BC.NEUMANN, GK.REGULAR), periodic(5, 2.0),
        GridSpec(3, 1.5, BC.NEUMANN, GK.REGULAR)),
    "two-periodic-wall-last": (periodic(6), periodic(5, 1.5), GridSpec(4, 2.0, BC.DIRICHLET, GK.REGULAR)),
    "two-periodic-wall-middle": (
        periodic(4), GridSpec(5, 1.5, BC.NEUMANN, GK.STAGGERED), periodic(3, 2.0)),
}


@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("grids", list(_PIPELINE_LAYOUTS.values()), ids=list(_PIPELINE_LAYOUTS))
def test_rfft_pipeline_matches_dense_oracle(grids, precision, rng):
    config = SolverConfig(grids, AP.FINITE_DIFFERENCE_2, precision=precision)
    plan = SolverPlan(config)
    mat = laplacian_matrix(config)
    rhs = (mat @ rng.standard_normal(config.shape).ravel()).reshape(config.shape)
    sol, _ = plan.solve(rhs.astype(config.dtype))
    assert sol.dtype == config.dtype
    ref = dense_oracle_solve(config, rhs)
    tol = 1e-9 if precision == "double" else 1e-4
    assert np.abs(sol - ref).max() <= tol * max(np.abs(ref).max(), 1e-30)


@pytest.mark.parametrize("grids", [
    uniform_config(BC.DIRICHLET, GK.REGULAR, (6, 5)).grids,
    uniform_config(BC.PERIODIC, GK.REGULAR, (6, 5)).grids,
    (periodic(6), GridSpec(5, 1.0, BC.NEUMANN, GK.STAGGERED)),
    (GridSpec(5, 1.0, BC.NEUMANN, GK.STAGGERED), periodic(6)),
], ids=["dirichlet", "periodic", "periodic-neumann", "neumann-periodic"])
@pytest.mark.parametrize("precision", ["double", "single"])
def test_solution_without_out_is_fresh(grids, precision, rng):
    plan = SolverPlan(SolverConfig(grids, AP.FINITE_DIFFERENCE_2, precision=precision))
    rhs = rng.standard_normal(plan.shape).astype(plan.dtype)
    before = rhs.copy()
    sol, _ = plan.solve(rhs)
    assert not np.shares_memory(sol, rhs)
    np.testing.assert_array_equal(rhs, before)
    assert sol.dtype == plan.dtype and sol.flags.c_contiguous
    again, _ = plan.solve(rhs)
    assert not np.shares_memory(sol, again)
    np.testing.assert_array_equal(sol, again)


# -- the zero-mean contract of singular solves -------------------------------


# every singular pattern: zeroing the null coefficient leaves a zero
# arithmetic mean on the periodic and Neumann-staggered rows, while a
# Neumann-regular axis (DCT-I) needs the mean subtracted after the backward pass
_SINGULAR_LAYOUTS = {
    "all-periodic-2d": (periodic(12), periodic(10, 1.5)),
    "all-periodic-64x64": (periodic(64, 2 * np.pi), periodic(64, 2 * np.pi)),
    "all-periodic-3d": (periodic(6), periodic(5, 1.5), periodic(7, 2.0)),
    "periodic-neumann-stag": (periodic(12), GridSpec(9, 1.5, BC.NEUMANN, GK.STAGGERED)),
    "periodic-neumann-stag-3d": (periodic(8, 2.0), GridSpec(64, 1.0, BC.NEUMANN, GK.STAGGERED),
                                 GridSpec(6, 1.0, BC.NEUMANN, GK.STAGGERED)),
    "periodic-neumann-reg": (periodic(12), GridSpec(9, 1.5, BC.NEUMANN, GK.REGULAR)),
    "neumann-reg-periodic-3d": (GridSpec(5, 1.0, BC.NEUMANN, GK.REGULAR), periodic(7, 2.0),
                                GridSpec(4, 1.5, BC.NEUMANN, GK.REGULAR)),
    "all-neumann-reg": (GridSpec(11, 1.0, BC.NEUMANN, GK.REGULAR),
                        GridSpec(193, 1.5, BC.NEUMANN, GK.REGULAR)),
    "all-neumann-stag": (GridSpec(11, 1.0, BC.NEUMANN, GK.STAGGERED),
                         GridSpec(9, 1.5, BC.NEUMANN, GK.STAGGERED)),
}


@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("grids", list(_SINGULAR_LAYOUTS.values()), ids=list(_SINGULAR_LAYOUTS))
def test_singular_solution_has_zero_mean(grids, precision, rng):
    plan = SolverPlan(SolverConfig(grids, AP.FINITE_DIFFERENCE_2, precision=precision))
    assert plan.config.singular
    for offset in (0.0, 3.5):  # an incompatible rhs has its mean removed
        rhs = (rng.standard_normal(plan.shape) + offset).astype(plan.dtype)
        sol, _ = plan.solve(rhs)
        bound = 8 * np.finfo(plan.dtype).eps * np.abs(sol).max(initial=0.0)
        assert abs(sol.mean(dtype=np.float64)) <= bound, (offset, sol.mean(dtype=np.float64), bound)


@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("shape", [(16,), (8, 6), (16, 12), (6, 5, 7)], ids=str)
def test_all_periodic_solve_reads_rhs_without_writing_it(shape, precision, rng):
    # a read-only rhs, a read-only strided view and an out that aliases the
    # rhs all give the dense oracle's answer, and only the aliasing out
    # changes the input
    grids = tuple(periodic(n, 1.0 + 0.5 * ax) for ax, n in enumerate(shape))
    config = SolverConfig(grids, AP.FINITE_DIFFERENCE_2, precision=precision)
    plan = SolverPlan(config)
    rhs = rng.standard_normal(shape)
    ref = dense_oracle_solve(SolverConfig(grids, AP.FINITE_DIFFERENCE_2), rhs)
    tol = (1e-9 if precision == "double" else 1e-4) * np.abs(ref).max()

    frozen = rhs.astype(plan.dtype)
    kept = frozen.copy()
    frozen.setflags(write=False)
    sol, _ = plan.solve(frozen)
    assert np.abs(sol - ref).max() <= tol
    assert not np.shares_memory(sol, frozen) and sol.flags.c_contiguous
    assert frozen.tobytes() == kept.tobytes()

    parent = np.zeros(tuple(2 * n + 1 for n in shape), plan.dtype)
    block = tuple(slice(1, 1 + 2 * n, 2) for n in shape)
    parent[block] = kept
    parent.setflags(write=False)
    view = parent[block]  # read-only, as its parent is
    strided, _ = plan.solve(view)
    assert strided.tobytes() == sol.tobytes()
    assert view.tobytes() == kept.tobytes()

    aliased = kept.copy()
    got, _ = plan.solve(aliased, out=aliased)
    assert got is aliased
    assert aliased.tobytes() == sol.tobytes()


# wall lengths that the method rule sends to pocketfft rather than to the
# matrix product: DST-I, DST-II/III, DCT-I and DCT-II/III
POCKETFFT_LENGTHS = {
    (BC.DIRICHLET, GK.REGULAR): (255,),
    (BC.DIRICHLET, GK.STAGGERED): (64, 72, 128),
    (BC.NEUMANN, GK.REGULAR): (193,),
    (BC.NEUMANN, GK.STAGGERED): (64, 72, 128),
}


@pytest.mark.parametrize("bc,kind", ROWS[1:], ids=ROW_IDS[1:])
def test_pocketfft_lengths_take_pocketfft(bc, kind):
    pair = transform_pair_for(bc, kind)
    for n in POCKETFFT_LENGTHS[bc, kind]:
        assert TransformPlan(pair.forward, n).method == "fft"
        assert TransformPlan(pair.backward, n).method == "fft"


@st.composite
def fd2_configs(draw, approximations=(AP.FINITE_DIFFERENCE_2,), precisions=("double",)):
    """1-3D configs whose axes each draw one of the five rows, in any
    combination and order, with lengths 1, 2 and primes among them; FD2 in
    double precision unless other approximations or precisions are given to
    draw from.  One wall axis may take a length from ``POCKETFFT_LENGTHS``
    instead; the other axes then keep the grid at 1000 points or fewer, and a
    Neumann-regular axis that no longer fits turns periodic."""
    dims = draw(st.integers(1, 3))
    rows = [draw(st.sampled_from(ROWS)) for _ in range(dims)]
    walls = [ax for ax, (bc, _) in enumerate(rows) if bc is not BC.PERIODIC]
    pocket_axis, budget = None, 13 ** 3  # points the other axes may multiply to
    if walls and draw(st.booleans()):
        pocket_axis = draw(st.sampled_from(walls))
        pocket_n = draw(st.sampled_from(POCKETFFT_LENGTHS[rows[pocket_axis]]))
        budget = 1000 // pocket_n
    grids = []
    for ax, (bc, kind) in enumerate(rows):
        length = draw(st.floats(0.5, 3.0))
        if ax == pocket_axis:
            grids.append(GridSpec(pocket_n, length, bc, kind))
            continue
        if (bc, kind) == (BC.NEUMANN, GK.REGULAR) and budget < 2:  # DCT-I needs two points
            bc, kind = BC.PERIODIC, GK.REGULAR
        fewest = 2 if (bc, kind) == (BC.NEUMANN, GK.REGULAR) else 1
        n = draw(st.sampled_from([n for n in (1, 2, 3, 4, 5, 7, 8, 11, 13)
                                  if fewest <= n <= budget]))
        budget //= n
        grids.append(GridSpec(n, length, bc, kind))
    return SolverConfig(tuple(grids), draw(st.sampled_from(approximations)),
                        precision=draw(st.sampled_from(precisions)))


@settings(max_examples=80, deadline=None)
@given(config=fd2_configs(), seed=st.integers(0, 2**32 - 1))
def test_property_laplacian_of_solution_is_rhs_minus_mean(config, seed):
    plan = SolverPlan(config)
    f = np.random.default_rng(seed).standard_normal(config.shape)
    sol, report = plan.solve(f)
    resid = apply_discrete_laplacian(config, sol) - (f - report.removed_mean)
    assert np.abs(resid).max() <= 1e-9 * np.abs(f).max()
    if not config.singular:
        assert report.removed_mean == 0.0
        return
    assert abs(sol.mean()) <= 1e-12 * max(np.abs(sol).max(), 1.0)
    if all(g.kind is GK.STAGGERED or g.bc is BC.PERIODIC for g in config.grids):
        # the left null vector is constant, so the removed part is the plain mean
        assert report.removed_mean == pytest.approx(f.mean(), rel=1e-9, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(config=fd2_configs(), seed=st.integers(0, 2**32 - 1),
       offsets=st.lists(st.integers(0, 2), min_size=3, max_size=3),
       steps=st.lists(st.integers(1, 2), min_size=3, max_size=3))
def test_property_out_fresh_subblock_and_aliased_bit_identical(config, seed, offsets, steps):
    plan = SolverPlan(config)
    rhs = np.random.default_rng(seed).standard_normal(config.shape)
    kept = rhs.copy()
    expected, _ = plan.solve(rhs)

    fresh = np.empty(config.shape)
    sol, _ = plan.solve(rhs, out=fresh)
    assert sol is fresh and fresh.tobytes() == expected.tobytes()

    # a strided sub-block of a larger array, whose other entries stay put
    parent = np.full(tuple(o + s * n + 1 for o, s, n in zip(offsets, steps, config.shape)), -7.0)
    block = tuple(slice(o, o + s * n, s) for o, s, n in zip(offsets, steps, config.shape))
    sol, _ = plan.solve(rhs, out=parent[block])
    assert parent[block].tobytes() == expected.tobytes()
    untouched = np.ones(parent.shape, bool)
    untouched[block] = False
    assert np.all(parent[untouched] == -7.0)

    aliased = rhs.copy()
    sol, _ = plan.solve(aliased, out=aliased)
    assert sol is aliased and aliased.tobytes() == expected.tobytes()
    assert rhs.tobytes() == kept.tobytes()

    # rhs and out overlap in part: two views of one parent, one index apart
    shared = np.empty((config.shape[0] + 1,) + config.shape[1:])
    shared[:-1] = rhs
    sol, _ = plan.solve(shared[:-1], out=shared[1:])
    assert sol.base is shared and shared[1:].tobytes() == expected.tobytes()


def spectral_operator_1d(spec):
    """The pseudo-spectral operator of one axis as a dense matrix,
    B diag(-kappa^2) B^-1: the columns of B are the sampled basis functions
    (``verify.basis_vector``), and kappa is each one's wavenumber, on a
    periodic axis the smallest one its samples alias to."""
    k = np.arange(spec.n)
    if spec.bc is BC.PERIODIC:
        kappa = 2.0 * np.pi * np.minimum(k, spec.n - k) / spec.length
    elif spec.bc is BC.DIRICHLET:
        kappa = np.pi * (k + 1) / spec.length
    else:
        kappa = np.pi * k / spec.length
    basis = np.column_stack([basis_vector(spec, j) for j in range(spec.n)])
    return ((basis * -kappa ** 2) @ np.linalg.inv(basis)).real


def dense_operator(config):
    """The solver's operator as a dense matrix: the FD2 stencils, or the
    Kronecker sum of the per-axis pseudo-spectral operators."""
    if config.approximation is AP.FINITE_DIFFERENCE_2:
        return laplacian_matrix(config)
    total = np.zeros((math.prod(config.shape),) * 2)
    for ax, g in enumerate(config.grids):
        term = np.ones((1, 1))
        for j, other in enumerate(config.grids):
            term = np.kron(term, spectral_operator_1d(g) if j == ax else np.eye(other.n))
        total += term
    return total


def dense_solve(mat, rhs, singular):
    """Solve by factorization, with the null-mode policy of
    ``verify.dense_oracle_solve``: on a singular grid the part of ``rhs``
    along the left null vector is removed as a constant, and the solution
    has zero mean."""
    g = rhs.ravel()
    if not singular:
        return np.linalg.solve(mat, g).reshape(rhs.shape)
    (w,) = scipy.linalg.null_space(mat.T).T
    sol, *_ = np.linalg.lstsq(mat, g - (w @ g) / w.sum(), rcond=None)
    return (sol - sol.mean()).reshape(rhs.shape)


@settings(max_examples=60, deadline=None)
@given(config=fd2_configs(approximations=tuple(AP), precisions=("double", "single")),
       seed=st.integers(0, 2**32 - 1))
def test_property_matches_dense_oracle_in_both_precisions(config, seed):
    # the oracle factorizes an N x N matrix; N <= 1000 keeps an example
    # within about a second
    assume(math.prod(config.shape) <= 1000)
    rhs = np.random.default_rng(seed).standard_normal(config.shape)
    sol, _ = SolverPlan(config, threads=1).solve(rhs)
    again, _ = SolverPlan(config, threads=2).solve(rhs)
    assert again.tobytes() == sol.tobytes()

    mat = dense_operator(config)
    ref = dense_solve(mat, rhs, config.singular)
    # condition number on the operator's range: a singular operator's one
    # null mode is projected out by both solvers
    sigma = np.linalg.svd(mat, compute_uv=False)
    if config.singular:
        sigma = sigma[:-1]
    cond = sigma[0] / sigma[-1] if sigma.size else 1.0
    tol = 64 * np.finfo(config.dtype).eps * cond * np.abs(ref).max()
    assert np.abs(sol - ref).max() <= tol


# the solve checks the null coefficient for non-finite values, not the rhs:
# on every row that coefficient sums all entries with positive weights.  The
# product method's BLAS call warns of the NaN that an infinite entry makes.
@pytest.mark.filterwarnings("ignore:invalid value encountered in matmul")
@settings(max_examples=150, deadline=None)
@given(config=fd2_configs(approximations=tuple(AP), precisions=("double", "single")),
       seed=st.integers(0, 2**32 - 1), bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_property_nonfinite_rhs_entry_raises_before_out_is_written(config, seed, bad):
    rng = np.random.default_rng(seed)
    rhs = rng.standard_normal(config.shape)
    rhs[tuple(int(rng.integers(n)) for n in config.shape)] = bad
    plan = SolverPlan(config)
    out = np.full(config.shape, 7.0, plan.dtype)
    with pytest.raises(ValueError, match="non-finite"):
        plan.solve(rhs, out=out)
    assert np.all(out == 7.0)


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul")  # the product method
@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("grids", [
    (periodic(4), periodic(4)),
    (GridSpec(5, 1.0, BC.DIRICHLET, GK.REGULAR), periodic(4)),  # the product method
    (GridSpec(64, 1.0, BC.NEUMANN, GK.STAGGERED),),  # pocketfft's DCT-II
], ids=["periodic", "dirichlet-product", "neumann-pocketfft"])
def test_finite_rhs_whose_transform_overflows_raises(grids, precision):
    # each entry is half the largest finite value; their sum is not finite
    plan = SolverPlan(SolverConfig(grids, AP.FINITE_DIFFERENCE_2, precision=precision))
    out = np.zeros(plan.shape, plan.dtype)
    with pytest.raises(ValueError, match="overflowed"):
        plan.solve(np.full(plan.shape, np.finfo(plan.dtype).max / 2, plan.dtype), out=out)
    assert np.all(out == 0.0)


@pytest.mark.parametrize("bc,kind", ROWS, ids=ROW_IDS)
def test_dense_oracles_agree(bc, kind, rng):
    # the dense spectral operator differentiates a sampled band-limited
    # function exactly, and the dense solve reproduces verify's FD2 oracle
    spec = GridSpec(9, 2.0, bc, kind)
    wavenumber = (6.0 if bc is BC.PERIODIC else 3.0) * np.pi / spec.length
    mode = np.sin if bc is BC.DIRICHLET else np.cos
    f = mode(wavenumber * spec.points())
    np.testing.assert_allclose(spectral_operator_1d(spec) @ f, -wavenumber ** 2 * f,
                               rtol=0, atol=1e-12 * wavenumber ** 2)
    config = SolverConfig((spec, GridSpec(4, 1.0, bc, kind)), AP.FINITE_DIFFERENCE_2)
    rhs = rng.standard_normal(config.shape)
    ref = dense_oracle_solve(config, rhs)
    np.testing.assert_allclose(dense_solve(laplacian_matrix(config), rhs, config.singular), ref,
                               rtol=0, atol=1e-12 * np.abs(ref).max())


def dense_inverse_eigenvalues(config):
    """The inverse-eigenvalue array built the direct way: the per-axis sums
    over the whole grid, starting from zeros, then the half spectrum of the
    last periodic axis, divided into a zeroed array except at the null mode
    of a singular grid, and cast to the plan's precision."""
    tables = [eigenvalue_table(g, config.approximation) for g in config.grids]
    lam = np.zeros(config.shape)
    for ax, table in enumerate(tables):
        lam += table.reshape([-1 if a == ax else 1 for a in range(config.dims)])
    dense = lam.copy()
    if config.periodic_axes:
        half = config.periodic_axes[-1]
        lam = lam[(slice(None),) * half + (slice(0, config.shape[half] // 2 + 1),)]
    scale = math.prod(transform_pair_for(g.bc, g.kind).backward_scale(g.n) for g in config.grids)
    divide = np.ones(lam.shape, dtype=bool)
    if config.singular:
        divide[(0,) * config.dims] = False
    inv = np.zeros_like(lam)
    np.divide(scale, lam, out=inv, where=divide)
    return dense, inv.astype(config.dtype, copy=False)


@settings(max_examples=150, deadline=None)
@given(config=fd2_configs(approximations=tuple(AP), precisions=("double", "single")))
def test_property_inverse_eigenvalues_byte_identical_to_dense_build(config):
    dense, expected = dense_inverse_eigenvalues(config)
    # the operator vanishes only at the origin, and only on a singular grid
    assert np.flatnonzero(dense == 0.0).tolist() == ([0] if config.singular else [])
    plan = SolverPlan(config)
    inv = plan._inv_lam
    assert (inv.dtype, inv.shape) == (expected.dtype, expected.shape)
    assert np.array_equal(inv.view(np.uint8), expected.view(np.uint8))
    combined = combine_eigenvalues([eigenvalue_table(g, config.approximation)
                                    for g in config.grids])
    assert combined.shape == dense.shape and np.all(combined == dense)


@pytest.mark.parametrize("grids", [
    (periodic(16), periodic(12)),
    (periodic(8), GridSpec(6, 1.0, BC.NEUMANN, GK.STAGGERED)),
    uniform_config(BC.DIRICHLET, GK.REGULAR, (52, 52)).grids,
], ids=["periodic", "mixed", "dirichlet-matrix"])
@pytest.mark.parametrize("with_out", [False, True], ids=["fresh", "out"])
def test_timing_phases_cover_the_call(grids, with_out, rng):
    plan = SolverPlan(SolverConfig(grids, AP.FINITE_DIFFERENCE_2))
    rhs = rng.standard_normal(plan.shape)
    out = np.empty(plan.shape) if with_out else None
    for _ in range(5):
        t0 = time.perf_counter()
        _, report = plan.solve(rhs, out=out)
        outside = time.perf_counter() - t0
        assert list(report.timing) == ["setup", "forward", "diagonal", "backward", "finish"]
        assert all(seconds >= 0.0 for seconds in report.timing.values())
        assert sum(report.timing.values()) <= outside


def warm_solve_peak(plan, rhs):
    """Allocation peak of a warm solve; tracemalloc counts every numpy array,
    so it is deterministic."""
    plan.solve(rhs)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        plan.solve(rhs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("grids,bound", [
    ((periodic(32), GridSpec(32, 1.0, BC.NEUMANN, GK.STAGGERED),
      GridSpec(32, 1.0, BC.NEUMANN, GK.STAGGERED)), 2.25),
    (uniform_config(BC.DIRICHLET, GK.REGULAR, (32, 32, 32)).grids, 1.25),
    (uniform_config(BC.DIRICHLET, GK.REGULAR, (52, 52, 52)).grids, 1.06),
], ids=["P-Ns-Ns", "dirichlet", "dirichlet-matrix"])
def test_solve_workspace_bound(grids, bound, rng):
    # a warm solve's allocation peak in units of the field: one working copy,
    # plus the half spectrum or the reorder line buffer when there is a
    # periodic axis, or the matrix method's 128-line temporary (at n = 52,
    # 128 x 52 x 8 B = 4.7 % of the field; the benchmark's dirbox3d workload
    # allows its peak 5 %)
    plan = SolverPlan(SolverConfig(grids, AP.FINITE_DIFFERENCE_2))
    rhs = rng.standard_normal(plan.shape)
    assert warm_solve_peak(plan, rhs) <= bound * rhs.nbytes


# Python objects a solve creates besides its arrays (the report, its timing
# dict, array headers and views); they are not workspace
OBJECT_BYTES = 4096


@pytest.mark.parametrize("grids,precision", [
    ((periodic(32), GridSpec(32, 1.0, BC.NEUMANN, GK.STAGGERED),
      GridSpec(32, 1.0, BC.NEUMANN, GK.STAGGERED)), "double"),
    (uniform_config(BC.DIRICHLET, GK.REGULAR, (52, 52, 52)).grids, "double"),
    (uniform_config(BC.DIRICHLET, GK.REGULAR, (52, 52, 52)).grids, "single"),
    ((GridSpec(40, 1.0, BC.NEUMANN, GK.REGULAR), periodic(24),
      GridSpec(13, 1.0, BC.NEUMANN, GK.REGULAR)), "single"),
    ((periodic(64), periodic(48)), "double"),
    (uniform_config(BC.NEUMANN, GK.STAGGERED, (64, 64, 64)).grids, "double"),
], ids=["P-Ns-Ns", "dirichlet-matrix", "dirichlet-matrix-single", "Nr-P-Nr-single",
        "periodic", "neumann-fft"])
def test_describe_workspace_bounds_the_solve_peak(grids, precision, rng):
    plan = SolverPlan(SolverConfig(grids, AP.FINITE_DIFFERENCE_2, precision=precision))
    workspace = plan.describe().workspace
    rhs = rng.standard_normal(plan.shape).astype(plan.dtype)
    assert workspace.working_copy == rhs.nbytes
    peak = warm_solve_peak(plan, rhs)
    parts = dataclasses.astuple(workspace)
    assert workspace.working_copy <= peak <= sum(parts) + OBJECT_BYTES, (peak, parts)


def test_plan_build_peak_is_about_the_array_it_keeps():
    # a build allocates its inverse-eigenvalue array, on the half spectrum,
    # and little beside it: the per-axis tables and the mask of the division.
    # The first build warms the transform caches, which plans share.
    cell = GridSpec(64, 1.0, BC.NEUMANN, GK.STAGGERED)
    config = SolverConfig((periodic(64), cell, cell), AP.FINITE_DIFFERENCE_2)
    SolverPlan(config)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        plan = SolverPlan(config)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    resident = plan.describe().resident_bytes
    assert resident == plan._inv_lam.nbytes == 33 * 64 * 64 * 8
    assert peak <= 1.25 * resident + 64 * 1024, (peak, resident)
