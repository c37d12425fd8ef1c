"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every expected value is either computed by an independent oracle
inside the test (dense factorization, direct summation, analytic solution) or
asserted directly where trivial.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from scipy import fft as sfft

from fastpoisson.eigenvalues import eigenvalue_table
from fastpoisson.flow import divergence, gradient, taylor_green
from fastpoisson.grid import (
    Approximation as AP,
    BoundaryCondition as BC,
    GridKind as GK,
    GridSpec,
)
from fastpoisson.solver import SolverConfig, SolverPlan
from fastpoisson.transforms import (
    TransformKind as TK,
    TransformPlan,
    naive_transform,
    transform_pair_for,
)
from fastpoisson.verify import (
    apply_discrete_laplacian,
    basis_vector,
    convergence_order,
    laplacian_matrix,
    standard_case,
    stencil_matrix_1d,
)

from conftest import ROWS

NONPERIODIC_ROWS = [r for r in ROWS if r[0] is not BC.PERIODIC]


def report(num, text):
    print(f"[acceptance] criterion {num:2d}: PASS — {text}")


def test_criterion_01_transform_round_trip(rng):
    sizes = (2, 3, 4, 5, 8, 16, 17, 64, 127, 128, 257)
    worst = 0.0
    for bc, kind in ROWS:
        pair = transform_pair_for(bc, kind)
        for n in sizes:
            f = rng.standard_normal(n)
            if pair.forward is TK.DFT:  # the solver's periodic legs
                back = sfft.irfft(sfft.rfft(f), n) * pair.backward_scale(n)
            else:
                fwd, bwd = TransformPlan(pair.forward, n), TransformPlan(pair.backward, n)
                back = bwd.execute_real(fwd.execute_real(f)) * pair.backward_scale(n)
            err = np.abs(back - f).max()
            assert err <= 1e-12 * n * np.abs(f).max(), (bc, kind, n, err)
            worst = max(worst, err / (n * np.abs(f).max()))
    report(1, f"round trip over 5 rows x {len(sizes)} lengths, worst scaled err {worst:.2e}")


def test_criterion_02_real_transform_oracle_equivalence(rng):
    kinds = [TK.DST1, TK.DST2, TK.DST3, TK.DCT1, TK.DCT2, TK.DCT3]
    worst = 0.0
    for kind in kinds:
        for n in range(2, 65):
            f = rng.standard_normal(n)
            fast = TransformPlan(kind, n).execute_real(f)
            ref = naive_transform(kind, f)
            err = np.abs(fast - ref).max()
            assert err <= 1e-11 * n * np.abs(f).max(), (kind, n, err)
            worst = max(worst, err / (n * np.abs(f).max()))
    report(2, f"six real kinds x n in [2,64] vs direct summation, worst {worst:.2e}")


def test_criterion_03_fd2_eigen_consistency():
    checked = 0
    for bc, kind in ROWS:
        n_values = [n for n in (1, 2, 3, 4, 7, 8, 15, 16) if n >= 2 or (bc, kind) != (BC.NEUMANN, GK.REGULAR)]
        for n in n_values:
            spec = GridSpec(n, 1.3, bc, kind)
            mat = stencil_matrix_1d(spec)
            lam = eigenvalue_table(spec, AP.FINITE_DIFFERENCE_2)
            scale = 4.0 / spec.dx ** 2
            for k in range(n):
                v = basis_vector(spec, k)
                resid = np.abs(mat @ v - lam[k] * v).max()
                tol = 1e-10 * max(abs(lam[k]), 1e-3 * scale) * np.abs(v).max()
                assert resid <= tol, (bc, kind, n, k, resid)
                checked += 1
    report(3, f"dense stencil matrix reproduces the eigenvalue table for {checked} (row, n, k) triples")


def test_criterion_04_solver_vs_dense_oracle(rng):
    checked = 0
    for bc, kind in ROWS:
        for shape in [(5,), (8,), (7,), (5, 4), (8, 8), (3, 7)]:
            grids = tuple(GridSpec(n, 1.0 + 0.3 * i, bc, kind) for i, n in enumerate(shape))
            config = SolverConfig(grids, AP.FINITE_DIFFERENCE_2)
            plan = SolverPlan(config)
            mat = laplacian_matrix(config)
            rhs = rng.standard_normal(shape)
            if config.singular:
                # mean adjustment: remove the incompatible constant component
                # (weighted by the left null vector for nonsymmetric closures)
                w = scipy.linalg.null_space(mat.T)[:, 0]
                rhs = rhs - (w @ rhs.ravel()) / w.sum()
            sol, _ = plan.solve(rhs)
            ref, *_ = np.linalg.lstsq(mat, rhs.ravel(), rcond=None)
            ref = ref.reshape(shape)
            if config.singular:
                ref -= ref.mean()
            err = np.abs(sol - ref).max()
            assert err <= 1e-9 * np.abs(ref).max(), (bc, kind, shape, err)
            checked += 1
    report(4, f"{checked} uniform FD2 configs (d=1,2) match dense factorization with mean pinning")


def test_criterion_05_spectral_exactness():
    checked = 0
    for bc, kind in ROWS:
        for n in (4, 5, 8, 16, 32):
            spec = GridSpec(n, 2.0, bc, kind)
            plan = SolverPlan(SolverConfig((spec,), AP.PSEUDO_SPECTRAL))
            lam = eigenvalue_table(spec, AP.PSEUDO_SPECTRAL)
            for k in range(n):
                if lam[k] == 0.0:
                    continue
                if bc is BC.PERIODIC:
                    # exact integer argument reduction keeps high modes accurate
                    m = (k * np.arange(n, dtype=np.int64)) % n
                    candidates = [np.cos(2 * np.pi * m / n), np.sin(2 * np.pi * m / n)]
                else:
                    candidates = [basis_vector(spec, k)]
                for v in candidates:
                    if np.abs(v).max() <= 1e-12:
                        continue  # sine of the Nyquist/zero mode samples to 0
                    sol, _ = plan.solve(lam[k] * v)
                    if plan.config.singular:
                        sol = sol - sol.mean()
                        v = v - v.mean()
                    err = np.abs(sol - v).max()
                    assert err <= 1e-12 * np.abs(v).max(), (bc, kind, n, k, err)
                    checked += 1
    report(5, f"pseudo-spectral solve exact on {checked} sampled eigenmodes (all rows, n <= 32)")


def test_criterion_06_fd2_convergence_order():
    sizes = (16, 32, 64, 128)
    fitted = {}
    for bc, kind in ROWS:
        for dims in (1, 2):
            case = standard_case(bc, kind, dims=dims, length=1.0)
            rep = convergence_order(case, sizes, AP.FINITE_DIFFERENCE_2)
            p = rep.finest_order
            assert p is not None and 1.9 <= p <= 2.1, (bc, kind, dims, p)
            fitted[(bc.value, kind.value, dims)] = round(p, 3)
    report(6, f"fitted orders on the finest pair all in [1.9, 2.1]: {sorted(fitted.values())}")


def test_criterion_07_mixed_bc_consistency(rng):
    # (a) product eigenmode relation for every non-periodic row and both approximations
    for zbc, zkind in NONPERIODIC_ROWS:
        for approx in (AP.PSEUDO_SPECTRAL, AP.FINITE_DIFFERENCE_2):
            gx = GridSpec(8, 2.0, BC.PERIODIC, GK.REGULAR)
            gz = GridSpec(6, 1.0, zbc, zkind)
            plan = SolverPlan(SolverConfig((gx, gz), approx))
            lx = eigenvalue_table(gx, approx)
            lz = eigenvalue_table(gz, approx)
            kx, kz = 3, 2
            vx = np.cos(2 * np.pi * kx * np.arange(8) / 8)
            vz = basis_vector(gz, kz)
            mode = vx[:, None] * vz[None, :]
            sol, rep = plan.solve((lx[kx] + lz[kz]) * mode)
            assert rep.mode == "mixed"
            err = np.abs(sol - mode).max()
            assert err <= 1e-12 * np.abs(mode).max(), (zbc, zkind, approx, err)
    # (b) x-independent rhs reduces to the pure-1D solve, 2D and 3D
    for zbc, zkind in NONPERIODIC_ROWS:
        gx = GridSpec(9, 2.0, BC.PERIODIC, GK.REGULAR)
        gz = GridSpec(7, 1.0, zbc, zkind)
        line = rng.standard_normal(7)
        if zbc is not BC.DIRICHLET:
            line -= naive_mean_adjustment(gz, line)
        plan2 = SolverPlan(SolverConfig((gx, gz), AP.FINITE_DIFFERENCE_2))
        plan1 = SolverPlan(SolverConfig((gz,), AP.FINITE_DIFFERENCE_2))
        sol2, _ = plan2.solve(np.tile(line, (9, 1)))
        sol1, _ = plan1.solve(line)
        err = np.abs(sol2 - sol1[None, :]).max()
        assert err <= 1e-12 * np.abs(sol1).max(), (zbc, zkind, err)
    # 3D with two identical wall axes (exercises the reorder seam)
    gx = GridSpec(6, 1.0, BC.PERIODIC, GK.REGULAR)
    gy = GridSpec(5, 1.0, BC.DIRICHLET, GK.STAGGERED)
    gz = GridSpec(4, 1.0, BC.DIRICHLET, GK.STAGGERED)
    plan3 = SolverPlan(SolverConfig((gx, gy, gz), AP.FINITE_DIFFERENCE_2))
    plane = rng.standard_normal((5, 4))
    plan_yz = SolverPlan(SolverConfig((gy, gz), AP.FINITE_DIFFERENCE_2))
    sol3, _ = plan3.solve(np.tile(plane, (6, 1, 1)))
    sol_yz, _ = plan_yz.solve(plane)
    err = np.abs(sol3 - sol_yz[None]).max()
    assert err <= 1e-12 * np.abs(sol_yz).max()
    report(7, "mixed path matches product-eigenmode relation and 1D/2D dimensional reduction")


def naive_mean_adjustment(spec, line):
    # constant whose removal makes the rhs compatible for one Neumann axis
    mat = stencil_matrix_1d(spec)
    w = scipy.linalg.null_space(mat.T)[:, 0]
    return (w @ line) / w.sum()


def test_criterion_08_desk_scale_nlogn_timing():
    cases = []
    for n in (256, 1024):
        g = GridSpec(n, 1.0, BC.PERIODIC, GK.REGULAR)
        plan = SolverPlan(SolverConfig((g, g), AP.PSEUDO_SPECTRAL))
        rhs = np.random.default_rng(3).standard_normal((n, n))
        plan.solve(rhs)  # warm the plan and backend caches
        cases.append((plan, rhs))

    # samples of the two sizes alternate, so a slow phase of the machine
    # lands on both sides of the ratio instead of on one
    times = ([], [])
    for _ in range(7):
        for (plan, rhs), samples in zip(cases, times):
            t0 = time.perf_counter()
            plan.solve(rhs)
            samples.append(time.perf_counter() - t0)

    def median(samples):
        return sorted(samples)[len(samples) // 2]

    ratio = median(times[1]) / median(times[0])
    assert 12.0 <= ratio <= 40.0, f"time(1024^2)/time(256^2) = {ratio:.1f} outside [12, 40]"
    report(8, f"2D periodic spectral solve ratio time(1024^2)/time(256^2) = {ratio:.1f} in [12, 40]")


def test_criterion_09_projection_property(rng, stage_divergences):
    # (a) div(grad(.)) composed through the staggered operators equals the
    # FD2 Laplacian the solver diagonalizes
    from fastpoisson.flow import StaggeredVelocity

    for z_walls in (False, True):
        vel = StaggeredVelocity.zeros((16, 12), (2.0, 1.5), nu=0.0, z_walls=z_walls)
        phi = rng.standard_normal((16, 12))
        gx, gz = gradient(vel, phi)
        lap_ops = divergence(StaggeredVelocity(gx, gz, vel.lengths, 0.0, z_walls))
        zspec = (
            GridSpec(12, 1.5, BC.NEUMANN, GK.STAGGERED)
            if z_walls
            else GridSpec(12, 1.5, BC.PERIODIC, GK.REGULAR)
        )
        config = SolverConfig(
            (GridSpec(16, 2.0, BC.PERIODIC, GK.REGULAR), zspec), AP.FINITE_DIFFERENCE_2
        )
        err = np.abs(lap_ops - apply_discrete_laplacian(config, phi)).max()
        assert err <= 1e-12, (z_walls, err)
    # (b) stage-by-stage divergence bound over a multi-step run
    flow = taylor_green(64, nu=0.01)
    bound = 1e-10 * flow.velocity_scale() / flow.velocity.spacing[0]
    worst = 0.0
    for _ in range(5):
        stages = stage_divergences(flow, 0.01)
        assert len(stages) == 3
        worst = max(worst, *stages)
    assert worst <= bound, f"stage divergence {worst:.2e} above {bound:.2e}"
    report(9, f"div∘grad == discrete Laplacian; stage divergence {worst:.2e} <= {bound:.2e}")


def test_criterion_10_taylor_green_decay():
    # band pinned by a prior resolution study (dt = 0.01, double precision):
    # relative KE error vs KE0*exp(-4 nu t) measured 5.1e-4 (16^2), 1.3e-4 (32^2),
    # 3.2e-5 (64^2), 8.0e-6 (128^2) — clean second-order decay-rate error.
    # At 64^2 the band is set to 1e-3: ~30x the measured error, well inside the
    # ~2% expectation for this resolution.
    nu, dt, steps = 0.01, 0.01, 100
    flow = taylor_green(64, nu=nu)
    ke0 = flow.kinetic_energy()
    for _ in range(steps):
        flow.rk3_step(dt)
    assert flow.time == pytest.approx(1.0)
    expected = ke0 * np.exp(-4.0 * nu * flow.time)
    rel = abs(flow.kinetic_energy() - expected) / expected
    assert rel <= 1e-3, f"KE decay off by {rel:.2e} (band 1e-3)"
    report(10, f"Taylor-Green 64^2 KE matches KE0*exp(-4 nu t) to {rel:.2e} (band 1e-3)")


def test_criterion_11_rk3_coefficient_identities():
    from fastpoisson.flow import RK3_ALPHA, RK3_GAMMA, RK3_ZETA

    assert sum(RK3_ALPHA) == Fraction(1)
    for k in range(3):
        assert RK3_GAMMA[k] + RK3_ZETA[k] == RK3_ALPHA[k]
    assert RK3_ALPHA == (Fraction(8, 15), Fraction(2, 15), Fraction(1, 3))
    report(11, "stage fractions sum to 1 and gamma_k + zeta_k = alpha_k exactly as rationals")
