"""Eigenvalues of the 1D pseudo-spectral and second-order finite-difference Laplacians.

The solver divides transform coefficients by these values.  Each boundary row
gives basis index k = 0..n-1 one wavenumber kappa_k on an axis of length L:

    periodic             kappa_k = 2 pi min(k, n-k) / L
    Dirichlet (both)     kappa_k = pi (k+1) / L
    Neumann   (both)     kappa_k = pi k / L

The pseudo-spectral approximation takes the continuous operator's eigenvalue
at that wavenumber, and the second-order central difference
(phi_{j+1} - 2 phi_j + phi_{j-1})/dx^2 its modified wavenumber, the exact
eigenvalue of the stencil matrix with the row's boundary closure
(dx = GridSpec.dx):

    pseudo-spectral      lambda_k = -kappa_k^2
    FD2                  lambda_k = -(2 sin(kappa_k dx / 2) / dx)^2

All values are <= 0.  Periodic and Neumann axes own exactly one zero
eigenvalue (the constant mode, k = 0); Dirichlet axes own none.  A grid
without a Dirichlet axis thus has one null mode, at index (0, .., 0) of the
summed array, and a grid with one has none.  The periodic folding
min(k, n-k) gives index k the wavenumber of the aliased sampled mode,
including the Nyquist index k = n/2 for even n, so lambda_k == lambda_{n-k}
exactly.
"""

from __future__ import annotations

import numpy as np

from .grid import Approximation, BoundaryCondition, ConfigurationError, GridSpec


def eigenvalue_table(spec: GridSpec, approximation: Approximation) -> np.ndarray:
    """Eigenvalues of one axis under ``approximation`` (units 1/length^2), float64."""
    if not isinstance(approximation, Approximation):
        raise ConfigurationError(f"approximation {approximation!r} is not an Approximation")
    k = np.arange(spec.n, dtype=np.float64)
    # kappa_k = unit * m_k / L
    if spec.bc is BoundaryCondition.PERIODIC:
        m, unit = np.minimum(k, spec.n - k), 2.0 * np.pi
    elif spec.bc is BoundaryCondition.DIRICHLET:
        m, unit = k + 1.0, np.pi
    else:
        m, unit = k, np.pi
    if approximation is Approximation.PSEUDO_SPECTRAL:
        return -((unit * m / spec.length) ** 2)
    # kappa_k dx / 2 = m_k (unit dx / 2L): the scalars are combined first, so
    # the angle and the factor 2 / dx cost one array pass each
    dx = spec.dx
    return -((np.sin(m * (unit * dx / (2.0 * spec.length))) * (2.0 / dx)) ** 2)


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
