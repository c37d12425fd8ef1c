"""Discrete Fourier-family transforms with the normalization conventions of the solver.

The forward transforms are the plain (unnormalized) sums

    DST-I    f^_k = 2 sum_{j=0}^{n-1} f_j sin(pi (j+1)(k+1)/(n+1))
    DST-II   f^_k = 2 sum_{j=0}^{n-1} f_j sin(pi (j+1/2)(k+1)/n)
    DST-III  f^_k = (-1)^k f_{n-1} + 2 sum_{j=0}^{n-2} f_j sin(pi (j+1)(k+1/2)/n)
    DCT-I    f^_k = f_0 + (-1)^k f_{n-1} + 2 sum_{j=1}^{n-2} f_j cos(pi j k/(n-1))
    DCT-II   f^_k = 2 sum_{j=0}^{n-1} f_j cos(pi (j+1/2) k/n)
    DCT-III  f^_k = f_0 + 2 sum_{j=1}^{n-1} f_j cos(pi j (k+1/2)/n)

and so is the periodic row's DFT, whose inverse carries the 1/n,

    DFT      f^_k =       sum_j f_j  exp(-2 pi i k j/n)
    IDFT     f_j  = (1/n) sum_k f^_k exp(+2 pi i k j/n)

the convention of ``scipy.fft.rfftn``/``irfftn``, which the solver runs on
its periodic axes directly (a real input keeps the Hermitian half of the
spectrum).

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

A :class:`TransformPlan` runs the six real kinds.  Fast execution is
delegated to ``scipy.fft`` (pocketfft), whose unnormalized real transforms
implement exactly the sums above for arbitrary lengths,
including primes.  pocketfft keeps an internal cache of twiddle/factorization
plans per length, so repeated execution does not replan.

pocketfft evaluates a real transform through a real FFT of length L:
2(n+1) for DST-I, 2(n-1) for DCT-I and n for types II and III.  A radix pass
of prime p costs about p operations per element, so the FFT costs about
L s(L) operations per line, where s(L) is the sum of L's prime factors
(with multiplicity); a large prime factor sends pocketfft to its slow generic
pass.  A real-transform plan therefore picks one of two methods from its kind
and length alone (:attr:`TransformPlan.method`):

* ``"matrix"`` when n <= 256 and L s(L) >= n^2 / 5: the transform is the
  dense n x n product, n^2 operations per line, with the matrix that
  pocketfft itself gives for the identity, built at plan creation and shared
  by the plans of one kind and length (the fast-diagonalization method of
  Lynch, Rice & Thomas).  Near L s(L) = n^2 / 5 the two measured within
  1.5x of each other (DCT-II with n = 64, L = 2^6, stays on pocketfft;
  DCT-II with n = 60 and DCT-I with n = 256, L = 510 = 2 3 5 17, take the
  product); well below it pocketfft wins (DCT-II with n = 208, DST-I with
  n = 255, L = 2^9), well above it the product (DST-I with n = 52,
  L = 2 53, by 6x).
  It runs in place in chunks of 128 lines (fewer when the array has
  fewer) through one temporary, so each BLAS call gets enough columns to
  reach its blocked speed; at n <= 256 the temporary is at most 256 KiB.  The
  product runs on BLAS, so its threads come from the BLAS library
  (``OPENBLAS_NUM_THREADS``), not from ``workers``.
* ``"fft"`` otherwise: pocketfft, parallel over lines with ``workers``.

Only float32 and float64 arrays take the product; other dtypes (integer,
complex, extended precision) always go to pocketfft, so the output dtype is
pocketfft's in every case.  The output buffer is allocated per call, unless
``execute_real`` is told it may overwrite its input, in which case a float
input is transformed in place.  Plans are immutable and may be executed
concurrently on distinct buffers; plan creation is also concurrency-safe
(there is no global planner lock, only the backend's plan cache and the
matrix cache, both internally synchronized).
:func:`naive_transform` is the O(n^2) direct-summation oracle that fixes the
conventions independently of the fast path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType

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


# minimum length at which each kind is defined (DCT-I divides by n-1)
_MIN_LENGTH = {TransformKind.DCT1: 2}

# a real transform runs as a dense matrix product when its length is at most
# _MATRIX_MAX_N and pocketfft's real FFT would cost at least a fifth of the
# product (see TransformPlan); the product goes through one temporary of
# _MATRIX_CHUNK_LINES lines, in the working precisions below
_MATRIX_MAX_N = 256
_MATRIX_CHUNK_LINES = 128
_MATRIX_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))

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


def _prime_factors(m: int) -> list:
    """Prime factors of a positive integer, with multiplicity, ascending."""
    factors, p = [], 2
    while p * p <= m:
        while m % p == 0:
            factors.append(p)
            m //= p
        p += 1
    if m > 1:
        factors.append(m)
    return factors


def largest_prime_factor(m: int) -> int:
    """Largest prime factor of a positive integer (1 for 1)."""
    return max(_prime_factors(m), default=1)


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
    """Precomputed 1D real transform (one of the six DST/DCT kinds) of a
    fixed length along one axis.

    Executes on lines of exactly length ``n`` along ``axis``; arrays with
    more dimensions are transformed line-by-line (vectorized over the other
    axes).  ``workers`` > 1 lets pocketfft parallelize over lines.
    ``method`` is ``"matrix"`` or ``"fft"``, chosen from ``kind`` and ``n`` by
    the rule in the module docstring; a matrix plan holds the read-only n x n
    transform matrix in float64 and float32, shared with every plan of the
    same kind and length.
    """

    kind: TransformKind
    n: int
    axis: int = -1
    workers: int = 1
    method: str = field(init=False, compare=False)
    _matrices: MappingProxyType = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _REAL_DISPATCH:
            raise ConfigurationError(
                f"{self.kind.value} has no plan: periodic axes go through scipy.fft.rfftn/irfftn"
            )
        if self.n < _MIN_LENGTH.get(self.kind, 1):
            raise ConfigurationError(
                f"{self.kind.value} requires n >= {_MIN_LENGTH[self.kind]}, got n={self.n}"
            )
        # pocketfft costs about L * (sum of L's prime factors) per line, the product n^2
        fft_cost = self.fft_length * sum(_prime_factors(self.fft_length))
        use_matrix = self.n <= _MATRIX_MAX_N and 5 * fft_cost >= self.n ** 2
        object.__setattr__(self, "method", "matrix" if use_matrix else "fft")
        object.__setattr__(self, "_matrices",
                           _transform_matrices(self.kind, self.n) if use_matrix else _NO_MATRICES)

    @property
    def fft_length(self) -> int:
        """Length L of the FFT pocketfft runs for this transform."""
        if self.kind is TransformKind.DST1:
            return 2 * (self.n + 1)
        if self.kind is TransformKind.DCT1:
            return 2 * (self.n - 1)
        return self.n

    def execute_real(self, line: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
        """Apply a real (DST/DCT) transform; output has the input's shape.

        With ``overwrite_x`` the result may be written into ``line`` (a
        float32/float64 input is then transformed in place, and only the
        matrix method's small temporary is allocated); the caller must own
        ``line`` and use the returned array.
        """
        line = np.asarray(line)
        if line.shape[self.axis] != self.n:
            raise ValueError(
                f"plan expects length {self.n} along axis {self.axis}, "
                f"got shape {line.shape}"
            )
        matrix = self._matrices.get(line.dtype)
        if matrix is None:
            func, typ = _REAL_DISPATCH[self.kind]
            return func(line, type=typ, axis=self.axis, overwrite_x=overwrite_x,
                        workers=self.workers or None)
        if not (overwrite_x and line.flags.c_contiguous and line.flags.writeable):
            line = np.array(line, order="C")
        _matmul_in_place(matrix, line, self.axis)
        return line

    def temporary_bytes(self, shape, dtype) -> int:
        """Bytes of the temporary that ``execute_real`` allocates on an owned
        C-contiguous array of ``shape`` and ``dtype`` (the matrix method's
        chunk; 0 when pocketfft runs the transform)."""
        dtype = np.dtype(dtype)
        if dtype not in self._matrices or math.prod(shape) == 0:
            return 0
        return math.prod(_chunk_shape(*_split_at(tuple(shape), self.axis))) * dtype.itemsize


_NO_MATRICES = MappingProxyType({})


@functools.lru_cache(maxsize=16)
def _transform_matrices(kind: TransformKind, n: int) -> MappingProxyType:
    """pocketfft's n x n matrix of a real ``kind``, read-only, per working
    dtype; one copy serves every plan of that kind and length."""
    func, typ = _REAL_DISPATCH[kind]
    dense = func(np.eye(n), type=typ, axis=0)  # column j is the transform of e_j
    matrices = {}
    for dtype in _MATRIX_DTYPES:
        matrix = dense.astype(dtype)
        matrix.flags.writeable = False
        matrices[dtype] = matrix
    return MappingProxyType(matrices)


def _split_at(shape, axis):
    """``(before, n, after)``: the extents of ``shape`` before, at and after ``axis``."""
    axis %= len(shape)
    return math.prod(shape[:axis]), shape[axis], math.prod(shape[axis + 1:])


def _chunk_shape(before, n, after):
    """Shape of the matrix product's temporary for the ``(before, n, after)``
    view: ``_MATRIX_CHUNK_LINES`` lines, fewer when the view has fewer."""
    lines = _MATRIX_CHUNK_LINES
    if after == 1:
        return min(lines, before), n
    width = min(lines, after)
    return min(lines // width, before), n, width


def _matmul_in_place(matrix, x, axis):
    """Apply ``matrix`` along ``axis`` of the C-contiguous ``x``, in place.

    The product runs in chunks of ``_MATRIX_CHUNK_LINES`` lines through one
    temporary (:func:`_chunk_shape`): a chunk of rows when ``axis`` is the
    last one, otherwise a block of columns of the ``(before, n, after)`` view,
    stacked over the leading index when whole rows of columns fit.
    """
    if x.size == 0:
        return
    before, n, after = _split_at(x.shape, axis)
    tmp = np.empty(_chunk_shape(before, n, after), dtype=x.dtype)
    if after == 1:
        rows = x.reshape(before, n)
        lines = len(tmp)
        for r in range(0, before, lines):
            block = rows[r:r + lines]
            chunk = tmp[:len(block)]
            np.matmul(block, matrix.T, out=chunk)
            block[...] = chunk
        return
    cols = x.reshape(before, n, after)
    depth, _, width = tmp.shape
    for a in range(0, before, depth):
        for b in range(0, after, width):
            block = cols[a:a + depth, :, b:b + width]
            chunk = tmp[:block.shape[0], :, :block.shape[2]]
            np.matmul(matrix, block, out=chunk)
            block[...] = chunk


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
        m = np.exp(-2j * np.pi * k * j / n)
        return m @ line.astype(np.complex128)
    if kind is TransformKind.IDFT:
        m = np.exp(+2j * np.pi * k * j / n) / n
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
