"""Verification machinery: stencil Laplacian, dense oracle solver, manufactured solutions,
convergence orders.

Everything here is deliberately independent of the transform pipeline: the
dense oracle assembles the finite-difference system matrix explicitly and
factorizes it, so agreement between the two routes is meaningful evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .grid import (
    Approximation,
    BoundaryCondition,
    ConfigurationError,
    GridKind,
    GridSpec,
)
from .solver import SolverConfig, SolverPlan

DENSE_SIZE_LIMIT = 4096


def stencil_matrix_1d(spec: GridSpec) -> np.ndarray:
    """Dense n x n matrix of the 1D second-difference stencil with the
    boundary closure matching the solver's transform basis."""
    n = spec.n
    a = np.zeros((n, n), dtype=np.float64)
    idx = np.arange(n)
    a[idx, idx] = -2.0
    a[idx[:-1], idx[:-1] + 1] = 1.0
    a[idx[1:], idx[1:] - 1] = 1.0
    bc, kind = spec.bc, spec.kind
    if bc is BoundaryCondition.PERIODIC:
        if n == 1:
            a[0, 0] = 0.0
        else:
            a[0, -1] += 1.0
            a[-1, 0] += 1.0
    elif bc is BoundaryCondition.DIRICHLET:
        if kind is GridKind.STAGGERED:
            # mirrored ghost -phi_edge
            a[0, 0] = -3.0 if n > 1 else -4.0
            a[-1, -1] = -3.0 if n > 1 else -4.0
    else:
        if kind is GridKind.REGULAR:
            # reflected ghost phi_1
            a[0, 1] = 2.0
            a[-1, -2] = 2.0
        else:
            # copied ghost phi_edge
            a[0, 0] = -1.0 if n > 1 else 0.0
            a[-1, -1] = -1.0 if n > 1 else 0.0
    return a / spec.dx ** 2


def apply_discrete_laplacian(config: SolverConfig, field) -> np.ndarray:
    """Apply the second-order central-difference Laplacian with the plan's
    boundary closures (verification aid; finite-difference approximation only).

    Closures per axis: periodic wrap; Dirichlet regular ghost = 0; Dirichlet
    staggered ghost = -phi_edge; Neumann regular ghost = phi_second (reflected
    node); Neumann staggered ghost = phi_edge.
    """
    if config.approximation is not Approximation.FINITE_DIFFERENCE_2:
        raise ConfigurationError("discrete Laplacian is defined for the fd2 approximation")
    arr = np.asarray(field)
    if arr.shape != config.shape:
        raise ValueError(f"field extents {arr.shape} do not match config extents {config.shape}")
    result = np.zeros(arr.shape, dtype=np.result_type(arr.dtype, np.float64))
    for ax, spec in enumerate(config.grids):
        result += _second_difference(arr, ax, spec)
    return result


def _second_difference(arr, axis, spec: GridSpec):
    x = np.moveaxis(np.asarray(arr, dtype=np.float64), axis, 0)
    res = np.empty_like(x)
    n, bc, kind = spec.n, spec.bc, spec.kind
    if n == 1:
        if bc is BoundaryCondition.DIRICHLET:
            res[0] = -4.0 * x[0] if kind is GridKind.STAGGERED else -2.0 * x[0]
        else:
            res[0] = 0.0
    else:
        res[1:-1] = x[2:] - 2.0 * x[1:-1] + x[:-2]
        if bc is BoundaryCondition.PERIODIC:
            res[0] = x[1] - 2.0 * x[0] + x[-1]
            res[-1] = x[0] - 2.0 * x[-1] + x[-2]
        elif bc is BoundaryCondition.DIRICHLET:
            if kind is GridKind.REGULAR:
                res[0] = x[1] - 2.0 * x[0]
                res[-1] = x[-2] - 2.0 * x[-1]
            else:
                res[0] = x[1] - 3.0 * x[0]
                res[-1] = x[-2] - 3.0 * x[-1]
        else:
            if kind is GridKind.REGULAR:
                res[0] = 2.0 * x[1] - 2.0 * x[0]
                res[-1] = 2.0 * x[-2] - 2.0 * x[-1]
            else:
                res[0] = x[1] - x[0]
                res[-1] = x[-2] - x[-1]
    res /= spec.dx ** 2
    return np.moveaxis(res, 0, axis)


def laplacian_matrix(config: SolverConfig) -> np.ndarray:
    """Dense matrix of the d-dimensional FD2 Laplacian (Kronecker sum)."""
    if config.approximation is not Approximation.FINITE_DIFFERENCE_2:
        raise ConfigurationError("dense matrix assembly is defined for the fd2 approximation")
    total = math.prod(config.shape)
    if total > DENSE_SIZE_LIMIT:
        raise ValueError(f"dense assembly limited to {DENSE_SIZE_LIMIT} unknowns, got {total}")
    mats = [stencil_matrix_1d(g) for g in config.grids]
    eyes = [np.eye(g.n) for g in config.grids]
    result = np.zeros((total, total))
    for ax, mat in enumerate(mats):
        factors = [mat if j == ax else eyes[j] for j in range(len(mats))]
        term = factors[0]
        for f in factors[1:]:
            term = np.kron(term, f)
        result += term
    return result


def dense_oracle_solve(config: SolverConfig, rhs) -> np.ndarray:
    """Solve the assembled dense FD2 system by factorization.

    Singular systems (no Dirichlet axis) are handled consistently with the
    fast solver's null-mode policy: the incompatible constant component of the
    right-hand side is removed (using the matrix's left null vector), the
    compatible system is solved by SVD least squares, and the solution is
    shifted to zero mean.
    """
    rhs_arr = np.asarray(rhs, dtype=np.float64)
    if rhs_arr.shape != config.shape:
        raise ValueError(f"rhs extents {rhs_arr.shape} do not match config extents {config.shape}")
    mat = laplacian_matrix(config)
    g = rhs_arr.ravel()
    if not config.singular:
        return np.linalg.solve(mat, g).reshape(config.shape)
    null_left = scipy.linalg.null_space(mat.T)
    if null_left.shape[1] != 1:  # pragma: no cover
        raise RuntimeError("expected a one-dimensional null space")
    w = null_left[:, 0]
    g = g - (w @ g) / w.sum()
    sol, *_ = np.linalg.lstsq(mat, g, rcond=None)
    sol -= sol.mean()
    return sol.reshape(config.shape)


def basis_vector(spec: GridSpec, k: int) -> np.ndarray:
    """The k-th column of the backward transform: the discrete operator's
    eigenvector for the axis (complex for periodic axes, real otherwise).

    The trigonometric arguments are rational multiples of pi, so they are
    reduced modulo the period in exact integer arithmetic before evaluation;
    naive evaluation loses ~|arg|*eps absolute accuracy for high indices,
    which matters when these vectors feed roundoff-level assertions.
    """
    if not 0 <= k < spec.n:
        raise ValueError(f"basis index {k} out of range for n={spec.n}")
    j = np.arange(spec.n, dtype=np.int64)
    n = spec.n
    if spec.bc is BoundaryCondition.PERIODIC:
        m = (k * j) % n
        return np.exp(2j * np.pi * m / n)
    if spec.bc is BoundaryCondition.DIRICHLET:
        if spec.kind is GridKind.REGULAR:
            m = ((j + 1) * (k + 1)) % (2 * (n + 1))
            return np.sin(np.pi * m / (n + 1))
        m = ((2 * j + 1) * (k + 1)) % (4 * n)
        return np.sin(np.pi * m / (2 * n))
    if spec.kind is GridKind.REGULAR:
        m = (j * k) % (2 * (n - 1))
        return np.cos(np.pi * m / (n - 1))
    m = ((2 * j + 1) * k) % (4 * n)
    return np.cos(np.pi * m / (2 * n))


@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form solution/right-hand-side pair respecting a boundary pattern.

    ``solution`` and ``rhs`` take one coordinate array per axis (broadcasting
    meshgrid style); ``rhs`` must be the exact continuous Laplacian of
    ``solution``, derived analytically, never numerically.
    """

    solution: callable
    rhs: callable
    bcs: tuple  # ((BoundaryCondition, GridKind), ...) per axis
    lengths: tuple
    description: str = ""

    @property
    def dims(self) -> int:
        return len(self.bcs)

    def grids(self, sizes) -> tuple:
        if np.isscalar(sizes):
            sizes = (int(sizes),) * self.dims
        return tuple(
            GridSpec(n, L, bc, kind)
            for n, L, (bc, kind) in zip(sizes, self.lengths, self.bcs)
        )

    def config(self, sizes, approximation: Approximation) -> SolverConfig:
        return SolverConfig(self.grids(sizes), approximation)


@dataclass(frozen=True)
class ErrorNorms:
    max: float
    l2: float


def mms_error(plan: SolverPlan, case: ManufacturedCase) -> ErrorNorms:
    """Solve the sampled manufactured right-hand side and compare pointwise.

    For singular boundary patterns both fields are compared after mean
    removal (the solver pins the arbitrary constant to zero mean; the
    manufactured solution carries its own constant).
    """
    config = plan.config
    pattern = tuple((g.bc, g.kind) for g in config.grids)
    if pattern != tuple(case.bcs):
        raise ConfigurationError(
            f"case pattern {case.bcs} does not match plan pattern {pattern}"
        )
    coords = np.meshgrid(*(g.points() for g in config.grids), indexing="ij")
    exact = np.asarray(case.solution(*coords), dtype=np.float64)
    rhs = np.asarray(case.rhs(*coords), dtype=np.float64)
    sol, _ = plan.solve(rhs)
    sol = np.asarray(sol, dtype=np.float64)
    if config.singular:
        sol = sol - sol.mean()
        exact = exact - exact.mean()
    diff = sol - exact
    return ErrorNorms(max=float(np.abs(diff).max()), l2=float(np.sqrt(np.mean(diff ** 2))))


@dataclass(frozen=True)
class ConvergenceReport:
    """Errors across a refinement family and fitted orders per pair.

    ``orders[i]`` is fitted from the L2 errors of sizes[i] -> sizes[i+1];
    it is None when either error sits at roundoff (flagged spectral-exact,
    nothing to fit).
    """

    sizes: tuple
    max_errors: tuple
    l2_errors: tuple
    orders: tuple
    spectral_exact: tuple

    @property
    def finest_order(self):
        for p in reversed(self.orders):
            if p is not None:
                return p
        return None


# errors below this (relative to the solution magnitude) cannot support an
# order fit; they mean the discrete problem was solved exactly
ROUNDOFF_FLOOR = 1e-12


def convergence_order(
    case: ManufacturedCase,
    sizes,
    approximation: Approximation,
    threads: int = 1,
) -> ConvergenceReport:
    """Refinement study: solve the case at each size and fit orders pairwise."""
    sizes = tuple(sorted(int(s) for s in sizes))
    if len(sizes) < 3:
        raise ValueError(f"need at least 3 sizes for a convergence study, got {len(sizes)}")
    max_errors, l2_errors, flags = [], [], []
    for size in sizes:
        config = case.config(size, approximation)
        plan = SolverPlan(config, threads=threads)
        norms = mms_error(plan, case)
        coords = np.meshgrid(*(g.points() for g in config.grids), indexing="ij")
        scale = float(np.abs(case.solution(*coords)).max()) or 1.0
        max_errors.append(norms.max)
        l2_errors.append(norms.l2)
        flags.append(norms.max <= ROUNDOFF_FLOOR * scale * max(size, 1))
    orders = []
    for i in range(len(sizes) - 1):
        if flags[i] or flags[i + 1] or l2_errors[i + 1] == 0.0:
            orders.append(None)
        else:
            ratio = math.log(l2_errors[i] / l2_errors[i + 1])
            orders.append(ratio / math.log(sizes[i + 1] / sizes[i]))
    return ConvergenceReport(
        sizes=sizes,
        max_errors=tuple(max_errors),
        l2_errors=tuple(l2_errors),
        orders=tuple(orders),
        spectral_exact=tuple(flags),
    )


# -- stock manufactured cases ------------------------------------------------


def standard_case(bc: BoundaryCondition, kind: GridKind, dims: int = 1, length: float = 1.0) -> ManufacturedCase:
    """A smooth non-eigenmode case for the given boundary pattern.

    Mixes two basis frequencies per axis so the solution is never a single
    eigenvector of the discrete operator.
    """
    L = length

    if bc is BoundaryCondition.PERIODIC:
        def f1(x):
            return np.sin(2 * np.pi * x / L) + 0.4 * np.cos(6 * np.pi * x / L)

        def d2f1(x):
            return -((2 * np.pi / L) ** 2) * np.sin(2 * np.pi * x / L) - 0.4 * (
                (6 * np.pi / L) ** 2
            ) * np.cos(6 * np.pi * x / L)

    elif bc is BoundaryCondition.DIRICHLET:
        def f1(x):
            return np.sin(np.pi * x / L) + 0.5 * np.sin(3 * np.pi * x / L)

        def d2f1(x):
            return -((np.pi / L) ** 2) * np.sin(np.pi * x / L) - 0.5 * (
                (3 * np.pi / L) ** 2
            ) * np.sin(3 * np.pi * x / L)

    else:
        def f1(x):
            return np.cos(np.pi * x / L) + 0.5 * np.cos(3 * np.pi * x / L)

        def d2f1(x):
            return -((np.pi / L) ** 2) * np.cos(np.pi * x / L) - 0.5 * (
                (3 * np.pi / L) ** 2
            ) * np.cos(3 * np.pi * x / L)

    if dims == 1:
        solution, rhs = f1, d2f1
    elif dims == 2:
        def solution(x, y):
            return f1(x) * f1(y)

        def rhs(x, y):
            return d2f1(x) * f1(y) + f1(x) * d2f1(y)

    elif dims == 3:
        def solution(x, y, z):
            return f1(x) * f1(y) * f1(z)

        def rhs(x, y, z):
            return d2f1(x) * f1(y) * f1(z) + f1(x) * d2f1(y) * f1(z) + f1(x) * f1(y) * d2f1(z)

    else:
        raise ValueError(f"dims must be 1..3, got {dims}")

    return ManufacturedCase(
        solution=solution,
        rhs=rhs,
        bcs=((bc, kind),) * dims,
        lengths=(L,) * dims,
        description=f"{bc.value}/{kind.value} two-mode case, {dims}D",
    )
