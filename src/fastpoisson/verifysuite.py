"""Composable verification suites behind ``fastpoisson verify``.

Each supported boundary/grid row is checked under both approximations:
transform round trips, agreement of the fast transforms with the naive
direct-summation oracle (on the periodic row, the ``rfft``/``irfft`` the
solver runs), eigenvector consistency, eigenmode solve exactness,
agreement with the dense factorization oracle, and a small convergence study.
Results come back as a list of per-check dictionaries suitable for JSON.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as _sfft

from .eigenvalues import eigenvalue_table
from .grid import Approximation, GridSpec
from .solver import SolverConfig, SolverPlan
from .transforms import (
    _PAIR_TABLE,
    TransformKind,
    TransformPlan,
    naive_transform,
    transform_pair_for,
)
from .verify import (
    basis_vector,
    convergence_order,
    dense_oracle_solve,
    laplacian_matrix,
    standard_case,
    stencil_matrix_1d,
)


def run_suites(bc=None, kind=None, approximation=None, seed=0, threads=1):
    # the supported rows are those with a transform pair, in the table's order
    rows = [
        (b, k)
        for b, k in _PAIR_TABLE
        if (bc is None or b is bc) and (kind is None or k is kind)
    ]
    approximations = [a for a in Approximation if approximation is None or a is approximation]
    rng = np.random.default_rng(seed)
    results = []
    for b, k in rows:
        results.append(_check_round_trip(b, k, rng))
        results.append(_check_naive_oracle(b, k, rng))
        for approx in approximations:
            results.append(_check_eigenvectors(b, k, approx))
            results.append(_check_eigenmode_solve(b, k, approx, threads))
            if approx is Approximation.FINITE_DIFFERENCE_2:
                results.append(_check_dense_oracle(b, k, rng, threads))
            results.append(_check_convergence(b, k, approx, threads))
    return results


def _result(suite, b, k, approx, passed, detail):
    return {
        "suite": suite,
        "bc": b.value,
        "grid": k.value,
        "approximation": approx.value if approx else None,
        "passed": bool(passed),
        "detail": detail,
    }


def _fast_transform(kind, n, line):
    """``kind`` applied to ``line`` the way a solve applies it: a periodic
    leg runs ``rfft``, which keeps the Hermitian half of the spectrum, or
    ``irfft``, which reads that half; the other kinds run a plan."""
    if kind is TransformKind.DFT:
        return _sfft.rfft(line)
    if kind is TransformKind.IDFT:
        return _sfft.irfft(line[: n // 2 + 1], n)
    return TransformPlan(kind, n).execute_real(line)


def _check_round_trip(b, k, rng):
    pair = transform_pair_for(b, k)
    worst = 0.0
    for n in (4, 7, 16, 31):
        f = rng.standard_normal(n)
        spectrum = _fast_transform(pair.forward, n, f)
        back = _fast_transform(pair.backward, n, spectrum) * pair.backward_scale(n)
        worst = max(worst, float(np.abs(back - f).max() / (n * np.abs(f).max())))
    return _result("round_trip", b, k, None, worst <= 1e-12, {"worst_scaled_error": worst})


def _check_naive_oracle(b, k, rng):
    pair = transform_pair_for(b, k)
    kinds = {pair.forward, pair.backward}
    worst = 0.0
    for tk in sorted(kinds, key=lambda t: t.value):
        for n in (2, 3, 5, 8, 13, 32):
            f = rng.standard_normal(n)
            if tk is TransformKind.IDFT:
                f = naive_transform(TransformKind.DFT, f)  # a Hermitian spectrum
            fast = _fast_transform(tk, n, f)
            ref = naive_transform(tk, f)[: fast.size]
            worst = max(worst, float(np.abs(fast - ref).max() / (n * np.abs(f).max())))
    return _result("naive_oracle", b, k, None, worst <= 1e-11, {"worst_scaled_error": worst})


def _check_eigenvectors(b, k, approx):
    worst = 0.0
    for n in (4, 9, 12):
        spec = GridSpec(n, 1.5, b, k)
        table = eigenvalue_table(spec, approx)
        if approx is Approximation.FINITE_DIFFERENCE_2:
            mat = stencil_matrix_1d(spec)
            scale = 4.0 / spec.dx ** 2
            for kk in range(n):
                v = basis_vector(spec, kk)
                err = float(np.abs(mat @ v - table[kk] * v).max())
                worst = max(worst, err / (scale * np.abs(v).max()))
        else:
            # sampled continuous basis functions transform to a single index;
            # a periodic one is complex, so it takes ``fft``, whose real-input
            # half is the solver's ``rfft``
            pair = transform_pair_for(b, k)
            forward = (_sfft.fft if pair.forward is TransformKind.DFT
                       else TransformPlan(pair.forward, n).execute_real)
            for kk in range(n):
                coeffs = np.abs(forward(basis_vector(spec, kk)))
                peak = coeffs[kk]
                coeffs[kk] = 0.0
                worst = max(worst, float(coeffs.max() / max(peak, 1e-30)))
    return _result("eigenvector_consistency", b, k, approx, worst <= 1e-10,
                   {"worst_relative_error": worst})


def _check_eigenmode_solve(b, k, approx, threads):
    worst = 0.0
    for n in (8, 16):
        spec = GridSpec(n, 2.0, b, k)
        config = SolverConfig((spec,), approx)
        plan = SolverPlan(config, threads=threads)
        table = eigenvalue_table(spec, approx)
        for kk in (1, n // 2, n - 1):
            lam = table[kk]
            if lam == 0.0:
                continue
            v = basis_vector(spec, kk)
            v = v.real if np.iscomplexobj(v) else v
            if np.abs(v).max() < 1e-12:
                continue
            sol, _ = plan.solve(lam * v)
            if config.singular:
                sol = sol - sol.mean()
                v = v - v.mean()
            worst = max(worst, float(np.abs(sol - v).max() / np.abs(v).max()))
    return _result("eigenmode_solve", b, k, approx, worst <= 1e-12,
                   {"worst_relative_error": worst})


def _check_dense_oracle(b, k, rng, threads):
    worst = 0.0
    for shape in ((7,), (6, 5)):
        grids = tuple(GridSpec(n, 1.0 + 0.25 * i, b, k) for i, n in enumerate(shape))
        config = SolverConfig(grids, Approximation.FINITE_DIFFERENCE_2)
        plan = SolverPlan(config, threads=threads)
        mat = laplacian_matrix(config)
        rhs = (mat @ rng.standard_normal(shape).ravel()).reshape(shape)
        sol, _ = plan.solve(rhs)
        ref = dense_oracle_solve(config, rhs)
        worst = max(worst, float(np.abs(sol - ref).max() / np.abs(ref).max()))
    return _result("dense_oracle", b, k, Approximation.FINITE_DIFFERENCE_2,
                   worst <= 1e-9, {"worst_relative_error": worst})


def _check_convergence(b, k, approx, threads):
    case = standard_case(b, k, dims=1, length=1.0)
    report = convergence_order(case, (16, 32, 64), approx, threads=threads)
    if approx is Approximation.FINITE_DIFFERENCE_2:
        order = report.finest_order
        passed = order is not None and 1.9 <= order <= 2.1
        detail = {"orders": [None if p is None else float(p) for p in report.orders]}
    else:
        # band-limited case: the pseudo-spectral solve is exact
        passed = all(report.spectral_exact) and max(report.max_errors) <= 1e-11
        detail = {"max_errors": [float(e) for e in report.max_errors]}
    return _result("convergence", b, k, approx, passed, detail)
