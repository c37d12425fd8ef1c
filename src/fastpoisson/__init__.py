"""Fast direct Poisson solver on uniform orthogonal grids (1D-3D).

The solver diagonalizes either the pseudo-spectral or the second-order
finite-difference Laplacian with discrete Fourier-family transforms chosen
per axis by boundary condition and grid kind, solves in transform space in
O(N log N), and transforms back.  Build a :class:`SolverPlan` once per
configuration, then call :meth:`SolverPlan.solve` any number of times.

    >>> import numpy as np
    >>> from fastpoisson import (BoundaryCondition, GridKind, GridSpec,
    ...                          Approximation, SolverConfig, SolverPlan)
    >>> grid = GridSpec(64, 1.0, BoundaryCondition.DIRICHLET, GridKind.REGULAR)
    >>> plan = SolverPlan(SolverConfig((grid, grid), Approximation.FINITE_DIFFERENCE_2))
    >>> solution, report = plan.solve(np.ones((64, 64)))

Arrays are C order (last axis contiguous).  Right-hand side and solution may
be sub-blocks of larger allocations (ghost-cell layouts) and may alias.
"""

from .eigenvalues import combine_eigenvalues, eigenvalue_table
from .grid import (
    Approximation,
    BoundaryCondition,
    ConfigurationError,
    GridKind,
    GridSpec,
)
from .solver import SolveReport, SolverConfig, SolverPlan
from .transforms import (
    TransformKind,
    TransformPair,
    TransformPlan,
    naive_transform,
    transform_pair_for,
)

__version__ = "0.1.0"

__all__ = [
    "Approximation",
    "BoundaryCondition",
    "ConfigurationError",
    "GridKind",
    "GridSpec",
    "SolveReport",
    "SolverConfig",
    "SolverPlan",
    "TransformKind",
    "TransformPair",
    "TransformPlan",
    "combine_eigenvalues",
    "eigenvalue_table",
    "naive_transform",
    "transform_pair_for",
    "__version__",
]
