"""Eigenvalues of the 1D pseudo-spectral and second-order finite-difference Laplacians.

The solver divides transform coefficients by these values.  For the
pseudo-spectral approximation they are the continuous operator's eigenvalues
at the basis wavenumbers:

    periodic             lambda_k = -(2 pi m(k) / L)^2,  m(k) = min(k, n-k)
    Dirichlet (both)     lambda_k = -(pi (k+1) / L)^2
    Neumann   (both)     lambda_k = -(pi k / L)^2

For the second-order central difference (phi_{j+1} - 2 phi_j + phi_{j-1})/dx^2
they are the exact eigenvalues of the stencil matrix with the matching
boundary closure:

    periodic             lambda_k = -(2 sin(k pi / n)          / dx)^2
    Dirichlet regular    lambda_k = -(2 sin(pi (k+1)/(2(n+1))) / dx)^2
    Dirichlet staggered  lambda_k = -(2 sin(pi (k+1)/(2 n))    / dx)^2
    Neumann   regular    lambda_k = -(2 sin(pi k / (2(n-1)))   / dx)^2
    Neumann   staggered  lambda_k = -(2 sin(pi k / (2 n))      / dx)^2

All values are <= 0.  Periodic and Neumann axes own exactly one zero
eigenvalue (the constant mode, k = 0); Dirichlet axes own none.  The periodic
spectral folding uses m(k) = min(k, n-k) so the value assigned to index k is
the squared wavenumber of the aliased sampled mode, including the Nyquist
index k = n/2 for even n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .grid import Approximation, BoundaryCondition, ConfigurationError, GridKind, GridSpec
from .transforms import transform_pair_for


@dataclass(frozen=True)
class EigenvalueTable:
    """Per-axis eigenvalues (units 1/length^2) and the indices where they vanish."""

    values: np.ndarray
    null_indices: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        object.__setattr__(self, "null_indices", frozenset(self.null_indices))


def spectral_eigenvalues(spec: GridSpec) -> EigenvalueTable:
    """Pseudo-spectral eigenvalue table for one axis."""
    transform_pair_for(spec.bc, spec.kind)  # reject unsupported rows
    k = np.arange(spec.n, dtype=np.float64)
    if spec.bc is BoundaryCondition.PERIODIC:
        folded = np.minimum(k, spec.n - k)
        values = -((2.0 * np.pi * folded / spec.length) ** 2)
    elif spec.bc is BoundaryCondition.DIRICHLET:
        values = -((np.pi * (k + 1.0) / spec.length) ** 2)
    else:
        values = -((np.pi * k / spec.length) ** 2)
    return EigenvalueTable(values, _null_indices(spec.bc))


def fd2_eigenvalues(spec: GridSpec) -> EigenvalueTable:
    """Second-order central-difference eigenvalue table for one axis."""
    transform_pair_for(spec.bc, spec.kind)
    k = np.arange(spec.n, dtype=np.float64)
    n, dx = spec.n, spec.dx
    if spec.bc is BoundaryCondition.PERIODIC:
        angle = k * np.pi / n
    elif spec.bc is BoundaryCondition.DIRICHLET:
        angle = np.pi * (k + 1.0) / (2.0 * (n + 1 if spec.kind is GridKind.REGULAR else n))
    else:
        angle = np.pi * k / (2.0 * (n - 1 if spec.kind is GridKind.REGULAR else n))
    values = -((2.0 * np.sin(angle) / dx) ** 2)
    return EigenvalueTable(values, _null_indices(spec.bc))


def eigenvalue_table(spec: GridSpec, approximation: Approximation) -> EigenvalueTable:
    if approximation is Approximation.PSEUDO_SPECTRAL:
        return spectral_eigenvalues(spec)
    return fd2_eigenvalues(spec)


@dataclass(frozen=True)
class CombinedEigenvalues:
    """d-dimensional eigenvalue array (sum over axes) and its null-mode tuples."""

    values: np.ndarray
    null_modes: tuple


def combine_eigenvalues(tables) -> CombinedEigenvalues:
    """Sum per-axis tables into the d-dimensional eigenvalue array.

    The eigenvalue at index (k1, .., kd) is the sum of the per-axis values,
    added in axis order; a mode is null exactly when every axis contributes a
    null index, and its value is a zero (of either sign).  The array has the
    tables' lengths as its shape, so a caller that needs only part of an axis
    passes a cut table.  It is one fresh allocation, without a zero fill: the
    first table is written into it and the others are added.
    """
    tables = list(tables)
    if not 1 <= len(tables) <= 3:
        raise ValueError(f"1 to 3 axes supported, got {len(tables)}")
    d = len(tables)
    combined = np.empty(tuple(t.values.size for t in tables), dtype=np.float64)
    for ax, table in enumerate(tables):
        shape = [1] * d
        shape[ax] = table.values.size
        if ax == 0:
            combined[...] = table.values.reshape(shape)
        else:
            combined += table.values.reshape(shape)
    null_modes = ()
    if all(t.null_indices for t in tables):
        null_modes = tuple(
            itertools.product(*(sorted(t.null_indices) for t in tables))
        )
    return CombinedEigenvalues(combined, null_modes)


def _null_indices(bc: BoundaryCondition) -> frozenset:
    if bc is BoundaryCondition.DIRICHLET:
        return frozenset()
    return frozenset({0})
