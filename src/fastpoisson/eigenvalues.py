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
eigenvalue (the constant mode, k = 0); Dirichlet axes own none.  A grid
without a Dirichlet axis thus has one null mode, at index (0, .., 0) of the
summed array, and a grid with one has none.  The periodic
spectral folding uses m(k) = min(k, n-k) so the value assigned to index k is
the squared wavenumber of the aliased sampled mode, including the Nyquist
index k = n/2 for even n.
"""

from __future__ import annotations

import numpy as np

from .grid import Approximation, BoundaryCondition, GridKind, GridSpec


def spectral_eigenvalues(spec: GridSpec) -> np.ndarray:
    """Pseudo-spectral eigenvalues of one axis (units 1/length^2), float64."""
    k = np.arange(spec.n, dtype=np.float64)
    if spec.bc is BoundaryCondition.PERIODIC:
        folded = np.minimum(k, spec.n - k)
        return -((2.0 * np.pi * folded / spec.length) ** 2)
    if spec.bc is BoundaryCondition.DIRICHLET:
        return -((np.pi * (k + 1.0) / spec.length) ** 2)
    return -((np.pi * k / spec.length) ** 2)


def fd2_eigenvalues(spec: GridSpec) -> np.ndarray:
    """Second-order central-difference eigenvalues of one axis, float64."""
    k = np.arange(spec.n, dtype=np.float64)
    n, dx = spec.n, spec.dx
    if spec.bc is BoundaryCondition.PERIODIC:
        angle = k * np.pi / n
    elif spec.bc is BoundaryCondition.DIRICHLET:
        angle = np.pi * (k + 1.0) / (2.0 * (n + 1 if spec.kind is GridKind.REGULAR else n))
    else:
        angle = np.pi * k / (2.0 * (n - 1 if spec.kind is GridKind.REGULAR else n))
    return -((2.0 * np.sin(angle) / dx) ** 2)


def eigenvalue_table(spec: GridSpec, approximation: Approximation) -> np.ndarray:
    if approximation is Approximation.PSEUDO_SPECTRAL:
        return spectral_eigenvalues(spec)
    return fd2_eigenvalues(spec)


def combine_eigenvalues(tables) -> np.ndarray:
    """Sum per-axis tables into the d-dimensional eigenvalue array.

    The eigenvalue at index (k1, .., kd) is the sum of the per-axis values,
    added in axis order.  The array has the tables' lengths as its shape, so a
    caller that needs only part of an axis passes a cut table.  It is one
    fresh allocation, without a zero fill: the first table is written into it
    and the others are added.
    """
    tables = list(tables)
    if not 1 <= len(tables) <= 3:
        raise ValueError(f"1 to 3 axes supported, got {len(tables)}")
    d = len(tables)
    combined = np.empty(tuple(t.size for t in tables), dtype=np.float64)
    for ax, table in enumerate(tables):
        shape = [1] * d
        shape[ax] = table.size
        if ax == 0:
            combined[...] = table.reshape(shape)
        else:
            combined += table.reshape(shape)
    return combined
