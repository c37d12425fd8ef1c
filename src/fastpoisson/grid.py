"""Grid axis descriptions: boundary conditions, grid kinds, spacing and point locations.

An axis is described by a :class:`GridSpec`: how many points it carries, the
physical length it spans, whether the points sit on a regular or a staggered
(cell-centered) lattice, and which boundary condition closes it.  The same
condition applies to both faces of an axis; mixing conditions across *axes*
is handled by the solver, not here.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np


class ConfigurationError(ValueError):
    """Raised for unsupported grid/boundary/solver configurations."""


class BoundaryCondition(Enum):
    PERIODIC = "periodic"
    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"


class GridKind(Enum):
    REGULAR = "regular"
    STAGGERED = "staggered"


class Approximation(Enum):
    """Which discrete operator the solver diagonalizes."""

    PSEUDO_SPECTRAL = "spectral"
    FINITE_DIFFERENCE_2 = "fd2"


@dataclass(frozen=True)
class GridSpec:
    """One uniform axis: point count, physical length, grid kind, boundary condition.

    Spacing and point locations depend on the combination:

    ==========  =========  ===========  =======================
    bc          kind       dx           points x_j, j = 0..n-1
    ==========  =========  ===========  =======================
    periodic    regular    L/n          j*L/n
    Dirichlet   regular    L/(n+1)      (j+1)*L/(n+1)
    Neumann     regular    L/(n-1)      j*L/(n-1)   (n >= 2)
    any         staggered  L/n          (j+1/2)*L/n
    ==========  =========  ===========  =======================

    Dirichlet regular grids hold only interior points; Neumann regular grids
    include the two boundary nodes; staggered grids are cell-centered.
    """

    n: int
    length: float
    bc: BoundaryCondition
    kind: GridKind = GridKind.REGULAR

    def __post_init__(self):
        if self.n < 1:
            raise ConfigurationError(f"point count must be positive, got n={self.n}")
        if not (self.length > 0 and math.isfinite(self.length)):
            raise ConfigurationError(
                f"axis length must be positive and finite, got L={self.length}"
            )
        if self.bc is BoundaryCondition.PERIODIC and self.kind is GridKind.STAGGERED:
            raise ConfigurationError("periodic boundary conditions admit only the regular grid")
        if (
            self.bc is BoundaryCondition.NEUMANN
            and self.kind is GridKind.REGULAR
            and self.n < 2
        ):
            raise ConfigurationError(
                f"Neumann on a regular grid needs n >= 2 (boundary nodes included), got n={self.n}"
            )
        # the FD2 operator divides by the spacing squared
        dx2 = self.dx * self.dx
        if not sys.float_info.min <= dx2 < math.inf:
            raise ConfigurationError(
                f"axis length L={self.length} with n={self.n} gives a spacing of {self.dx}, "
                "whose square is out of float64 range"
            )

    @property
    def dx(self) -> float:
        """Uniform spacing between consecutive points."""
        if self.kind is GridKind.STAGGERED:
            return self.length / self.n
        if self.bc is BoundaryCondition.PERIODIC:
            return self.length / self.n
        if self.bc is BoundaryCondition.DIRICHLET:
            return self.length / (self.n + 1)
        return self.length / (self.n - 1)

    def points(self) -> np.ndarray:
        """Coordinates of the n points, strictly increasing, inside [0, L]."""
        # the first point lies half a spacing in (cell centers), a whole one
        # (Dirichlet interior nodes) or on the boundary
        if self.kind is GridKind.STAGGERED:
            first = 0.5
        else:
            first = 1.0 if self.bc is BoundaryCondition.DIRICHLET else 0.0
        return (np.arange(self.n, dtype=np.float64) + first) * self.dx
