"""Discrete Fourier-family transforms with the normalization conventions of the solver.

The forward transforms are the plain (unnormalized) sums

    DST-I    f^_k = 2 sum_{j=0}^{n-1} f_j sin(pi (j+1)(k+1)/(n+1))
    DST-II   f^_k = 2 sum_{j=0}^{n-1} f_j sin(pi (j+1/2)(k+1)/n)
    DST-III  f^_k = (-1)^k f_{n-1} + 2 sum_{j=0}^{n-2} f_j sin(pi (j+1)(k+1/2)/n)
    DCT-I    f^_k = f_0 + (-1)^k f_{n-1} + 2 sum_{j=1}^{n-2} f_j cos(pi j k/(n-1))
    DCT-II   f^_k = 2 sum_{j=0}^{n-1} f_j cos(pi (j+1/2) k/n)
    DCT-III  f^_k = f_0 + 2 sum_{j=1}^{n-1} f_j cos(pi j (k+1/2)/n)

while the complex DFT carries 1/n on the forward leg,

    DFT      f^_k = (1/n) sum_j f_j exp(-2 pi i k j/n)
    IDFT     f_j  =       sum_k f^_k exp(+2 pi i k j/n)

Each boundary-condition/grid row selects a (forward, backward) pair whose
backward leg is scaled so that backward(forward(f)) == f:

    ==========  =========  ========  =====================
    bc          grid       forward   backward
    ==========  =========  ========  =====================
    periodic    regular    DFT       IDFT
    Dirichlet   regular    DST-I     DST-I  / (2(n+1))
    Dirichlet   staggered  DST-II    DST-III/ (2n)
    Neumann     regular    DCT-I     DCT-I  / (2(n-1))
    Neumann     staggered  DCT-II    DCT-III/ (2n)
    ==========  =========  ========  =====================

Fast execution is delegated to ``scipy.fft`` (pocketfft), whose unnormalized
real transforms implement exactly the sums above for arbitrary lengths,
including primes.  pocketfft keeps an internal cache of twiddle/factorization
plans per length, so repeated execution does not replan.  The output buffer
is allocated per call, unless ``execute_real`` is told it may overwrite its
input, in which case a float input is transformed in place.  Plans are
immutable and may be executed concurrently on distinct buffers; plan creation
is also concurrency-safe (there is no global planner lock, only the backend's
internally synchronized cache).
:func:`naive_transform` is the O(n^2) direct-summation oracle that fixes the
conventions independently of the fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import fft as _sfft

from .grid import BoundaryCondition, ConfigurationError, GridKind


class TransformKind(Enum):
    DFT = "dft"
    IDFT = "idft"
    DST1 = "dst1"
    DST2 = "dst2"
    DST3 = "dst3"
    DCT1 = "dct1"
    DCT2 = "dct2"
    DCT3 = "dct3"

    @property
    def is_complex(self) -> bool:
        return self in (TransformKind.DFT, TransformKind.IDFT)


# minimum length at which each kind is defined (DCT-I divides by n-1)
_MIN_LENGTH = {TransformKind.DCT1: 2}

_REAL_DISPATCH = {
    TransformKind.DST1: (_sfft.dst, 1),
    TransformKind.DST2: (_sfft.dst, 2),
    TransformKind.DST3: (_sfft.dst, 3),
    TransformKind.DCT1: (_sfft.dct, 1),
    TransformKind.DCT2: (_sfft.dct, 2),
    TransformKind.DCT3: (_sfft.dct, 3),
}


@dataclass(frozen=True)
class TransformPair:
    """Forward/backward kinds for one boundary-condition/grid row, plus the
    scale applied after the raw backward transform."""

    forward: TransformKind
    backward: TransformKind

    def backward_scale(self, n: int) -> float:
        if self.forward is TransformKind.DFT:
            return 1.0
        if self.forward is TransformKind.DST1:
            return 1.0 / (2.0 * (n + 1))
        if self.forward is TransformKind.DCT1:
            return 1.0 / (2.0 * (n - 1))
        # DST2/DST3 and DCT2/DCT3 rows
        return 1.0 / (2.0 * n)


_PAIR_TABLE = {
    (BoundaryCondition.PERIODIC, GridKind.REGULAR): TransformPair(
        TransformKind.DFT, TransformKind.IDFT
    ),
    (BoundaryCondition.DIRICHLET, GridKind.REGULAR): TransformPair(
        TransformKind.DST1, TransformKind.DST1
    ),
    (BoundaryCondition.DIRICHLET, GridKind.STAGGERED): TransformPair(
        TransformKind.DST2, TransformKind.DST3
    ),
    (BoundaryCondition.NEUMANN, GridKind.REGULAR): TransformPair(
        TransformKind.DCT1, TransformKind.DCT1
    ),
    (BoundaryCondition.NEUMANN, GridKind.STAGGERED): TransformPair(
        TransformKind.DCT2, TransformKind.DCT3
    ),
}


def transform_pair_for(bc: BoundaryCondition, grid: GridKind) -> TransformPair:
    """The (forward, backward) transform pair for one boundary/grid row."""
    try:
        return _PAIR_TABLE[(bc, grid)]
    except KeyError:
        raise ConfigurationError(
            f"no discrete transform for boundary condition {bc.value!r} on a {grid.value} grid"
        ) from None


@dataclass(frozen=True)
class TransformPlan:
    """Precomputed 1D transform of a fixed kind and length along one axis.

    Executes on lines of exactly length ``n`` along ``axis``; arrays with
    more dimensions are transformed line-by-line (vectorized over the other
    axes).  ``workers`` > 1 lets the backend parallelize over lines.
    """

    kind: TransformKind
    n: int
    axis: int = -1
    workers: int = 1

    def __post_init__(self):
        if self.n < _MIN_LENGTH.get(self.kind, 1):
            raise ConfigurationError(
                f"{self.kind.value} requires n >= {_MIN_LENGTH[self.kind]}, got n={self.n}"
            )

    def _check(self, line: np.ndarray) -> np.ndarray:
        line = np.asarray(line)
        if line.shape[self.axis] != self.n:
            raise ValueError(
                f"plan expects length {self.n} along axis {self.axis}, "
                f"got shape {line.shape}"
            )
        return line

    def execute_real(self, line: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
        """Apply a real (DST/DCT) transform; output has the input's shape.

        With ``overwrite_x`` the backend may write the result into ``line``
        (a float32/float64 input is then transformed in place and nothing is
        allocated); the caller must own ``line`` and use the returned array.
        """
        if self.kind.is_complex:
            raise ValueError(f"{self.kind.value} is a complex transform; use execute_complex")
        line = self._check(line)
        func, typ = _REAL_DISPATCH[self.kind]
        return func(line, type=typ, axis=self.axis, overwrite_x=overwrite_x,
                    workers=self.workers or None)

    def execute_complex(self, line: np.ndarray) -> np.ndarray:
        """Apply the DFT (forward, scaled by 1/n) or IDFT (unscaled)."""
        if not self.kind.is_complex:
            raise ValueError(f"{self.kind.value} is a real transform; use execute_real")
        line = self._check(line)
        if self.kind is TransformKind.DFT:
            return _sfft.fft(line, axis=self.axis, workers=self.workers or None) / self.n
        return _sfft.ifft(line, axis=self.axis, workers=self.workers or None) * self.n


def naive_transform(kind: TransformKind, line) -> np.ndarray:
    """Literal O(n^2) evaluation of the defining summation (test oracle).

    Kept deliberately independent of the fast path: the basis matrix is built
    from the module docstring's formulas and applied by plain matrix-vector
    product.
    """
    line = np.asarray(line)
    n = line.shape[-1]
    if n < _MIN_LENGTH.get(kind, 1):
        raise ValueError(f"{kind.value} requires n >= {_MIN_LENGTH[kind]}, got n={n}")
    j = np.arange(n)
    k = j[:, None]  # rows index output entries

    if kind is TransformKind.DFT:
        m = np.exp(-2j * np.pi * k * j / n) / n
        return m @ line.astype(np.complex128)
    if kind is TransformKind.IDFT:
        m = np.exp(+2j * np.pi * k * j / n)
        return m @ line.astype(np.complex128)

    if kind is TransformKind.DST1:
        m = 2.0 * np.sin(np.pi * (j + 1) * (k + 1) / (n + 1))
    elif kind is TransformKind.DST2:
        m = 2.0 * np.sin(np.pi * (j + 0.5) * (k + 1) / n)
    elif kind is TransformKind.DST3:
        m = 2.0 * np.sin(np.pi * (j + 1) * (k + 0.5) / n)
        m[:, n - 1] = (-1.0) ** np.arange(n)
    elif kind is TransformKind.DCT1:
        m = 2.0 * np.cos(np.pi * j * k / (n - 1))
        m[:, 0] = 1.0
        m[:, n - 1] = (-1.0) ** np.arange(n)
    elif kind is TransformKind.DCT2:
        m = 2.0 * np.cos(np.pi * (j + 0.5) * k / n)
    elif kind is TransformKind.DCT3:
        m = 2.0 * np.cos(np.pi * j * (k + 0.5) / n)
        m[:, 0] = 1.0
    else:  # pragma: no cover
        raise ValueError(f"unknown transform kind {kind}")
    if np.iscomplexobj(line):
        return m @ line.astype(np.complex128)
    return m @ line.astype(np.float64)
