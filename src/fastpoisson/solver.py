"""Plan/execute Poisson solver: forward transforms, eigenvalue division, backward transforms.

A :class:`SolverPlan` is built once from a :class:`SolverConfig` and then
executes any number of solves.  Each axis carries any of the five
boundary-condition/grid rows, in any order: an axis's transform pair follows
from its own row alone, so every pattern runs through one pipeline (transform
each axis, divide by the summed eigenvalues, transform back).  Arrays use C
(row-major) order throughout; the last axis is the contiguous one.

Singular configurations (every axis periodic or Neumann) are handled by
zeroing the null-mode coefficient, the one at index (0, .., 0) of every
transform: the removed mean of the right-hand side is reported, and the
returned solution has zero arithmetic mean, i.e. zero projection onto the
null space of the discrete operator.  On the periodic and Neumann-staggered
rows the zeroed coefficient already leaves a zero arithmetic mean (to
roundoff); a Neumann-regular axis (DCT-I) removes a trapezoid-weighted mean
instead, so only a plan with such an axis subtracts the arithmetic mean of
the solution after the backward pass.

The periodic axes go through a real-to-complex FFT (``rfftn``), so the
spectrum holds only the Hermitian half of the last periodic axis.  The one
array a plan keeps between solves is the inverse of the eigenvalues (with the
backward normalization folded in), on that half when an axis is periodic: the
per-axis tables are cut to the half before they are summed into it, and it is
inverted in place (a single-precision plan then casts it once; a grid whose
inverse eigenvalues over- or underflow that precision is rejected).  The real
transforms run in place on the solve's own working copy; only a plan with a
periodic axis gathers the lines of a non-contiguous real axis into a
contiguous copy, transforms them there and scatters them back.  A solve thus
holds about one copy of the field (two while lines are gathered) plus the
half spectrum; with ``out=None`` the array of the last backward pass is
returned.

Plans are immutable after construction and ``solve`` allocates its workspace
per call, so concurrent solves on one shared plan (with distinct buffers) are
safe.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy import fft as _sfft

from .eigenvalues import combine_eigenvalues, eigenvalue_table
from .grid import (
    Approximation,
    BoundaryCondition,
    ConfigurationError,
    GridKind,
    GridSpec,
)
from .reorder import gather_lines, scatter_lines
from .transforms import (
    TransformPlan,
    largest_prime_factor,
    transform_pair_for,
)

_PRECISION_DTYPES = {"double": np.float64, "single": np.float32}


@dataclass(frozen=True)
class SolverConfig:
    """Grid specification per axis plus the approximation to diagonalize."""

    grids: tuple
    approximation: Approximation
    precision: str = "double"

    def __post_init__(self):
        grids = tuple(self.grids)
        object.__setattr__(self, "grids", grids)
        if not 1 <= len(grids) <= 3:
            raise ConfigurationError(f"1 to 3 dimensions supported, got {len(grids)}")
        if not all(isinstance(g, GridSpec) for g in grids):
            raise ConfigurationError("grids must be GridSpec instances")
        if self.precision not in _PRECISION_DTYPES:
            raise ConfigurationError(
                f"precision must be one of {sorted(_PRECISION_DTYPES)}, got {self.precision!r}"
            )

    @property
    def dims(self) -> int:
        return len(self.grids)

    @property
    def shape(self) -> tuple:
        return tuple(g.n for g in self.grids)

    @property
    def dtype(self):
        return np.dtype(_PRECISION_DTYPES[self.precision])

    # the two below are read on every solve; a cached_property keeps its
    # value in the instance's __dict__, which a frozen dataclass leaves open
    @functools.cached_property
    def periodic_axes(self) -> tuple:
        return tuple(
            ax for ax, g in enumerate(self.grids) if g.bc is BoundaryCondition.PERIODIC
        )

    @functools.cached_property
    def singular(self) -> bool:
        """True when the constant mode lies in the operator's null space."""
        return all(g.bc is not BoundaryCondition.DIRICHLET for g in self.grids)


@dataclass
class SolveReport:
    """Outcome bookkeeping for one solve.

    ``timing`` holds wall-clock seconds per phase, in call order: ``setup``
    (input checks, copy-in), ``forward``, ``diagonal``, ``backward`` and
    ``finish`` (copy into ``out``); together they cover the whole call.
    """

    removed_mean: float = 0.0
    timing: dict = dataclass_field(default_factory=dict)


@dataclass(frozen=True)
class AxisDescription:
    """How a plan transforms one axis: its boundary row, the transform pair,
    the length L of the FFT pocketfft runs, L's largest prime factor, and the
    method (``"fft"`` or ``"matrix"``); the forward and backward transforms of
    an axis share L and hence the method."""

    bc: str
    grid: str
    n: int
    forward: str
    backward: str
    fft_length: int
    largest_prime: int
    method: str


@dataclass(frozen=True)
class WorkspaceDescription:
    """Bytes of the arrays a solve allocates, by part: the working copy (the
    returned solution when ``out`` is not given), the half spectrum of the
    periodic axes, the line buffer (the copy a plan with a periodic axis
    gathers with a non-contiguous real axis moved last), and the largest
    temporary of a matrix-method axis.  The parts are not all alive at once:
    a solve's allocation peak lies between the working copy and their sum."""

    working_copy: int
    half_spectrum: int
    line_buffer: int
    matrix_temporary: int


@dataclass(frozen=True)
class PlanDescription:
    """What a plan will do, per axis, its working dtype and its workspace, and
    ``resident_bytes``, the bytes the plan itself keeps between solves: its
    inverse-eigenvalue array.

    Every field is a string, an integer, a description or a tuple of
    descriptions, so ``dataclasses.asdict(description)`` is ready for
    ``json.dump``.
    """

    axes: tuple
    dtype: str
    workspace: WorkspaceDescription
    resident_bytes: int


class SolverPlan:
    """Immutable precomputation for one configuration: transform plans per axis
    and the inverse-eigenvalue array."""

    def __init__(self, config: SolverConfig, threads: int = 1):
        self.config = config
        if threads < 1:
            raise ConfigurationError(f"threads must be at least 1, got {threads}")
        self.threads = int(threads)
        self.shape = config.shape
        self.dtype = config.dtype

        self._pairs = [transform_pair_for(g.bc, g.kind) for g in config.grids]
        tables = [eigenvalue_table(g, config.approximation) for g in config.grids]
        if config.periodic_axes:
            # rfftn keeps the Hermitian half of the last periodic axis, so the
            # eigenvalues are summed on that half only
            half = config.periodic_axes[-1]
            tables[half] = tables[half][: self.shape[half] // 2 + 1]
        inv = combine_eigenvalues(tables)
        # the diagonal pass is a single multiply that divides by the
        # eigenvalue, projects out the null mode (its zero sum, of either
        # sign, becomes +0.0), and carries the backward normalization of the
        # real-transform pairs; the periodic axes need none, as irfftn applies
        # 1/N itself.  The combined array is the plan's own, so it is
        # inverted in place.  An inverse that over- or underflows the
        # precision would give NaN or zero solutions, so it is refused.
        backward_scale = math.prod(
            pair.backward_scale(g.n) for g, pair in zip(config.grids, self._pairs)
        )
        try:
            with np.errstate(over="raise", under="raise"):
                np.divide(backward_scale, inv, out=inv, where=inv != 0.0)
                if config.singular:
                    inv[(0,) * config.dims] = 0.0
                self._inv_lam = inv.astype(self.dtype, copy=False)
        except FloatingPointError as exc:
            raise ConfigurationError(
                f"the inverse eigenvalues of this grid do not fit {config.precision} "
                f"precision ({exc})"
            ) from None

        self._periodic_axes = config.periodic_axes
        self._periodic_lengths = tuple(self.shape[ax] for ax in self._periodic_axes)
        self._real_axes = tuple(
            ax for ax in range(config.dims) if ax not in self._periodic_axes
        )
        # with a periodic axis, lines along a non-contiguous real axis go
        # through the gather/scatter reorder pass, whose line buffer the
        # plans transform along its last axis.  The rule stays only because
        # the benchmark pins the duct3d gathers (ROADMAP items 1 and 2).
        last = config.dims - 1
        self._reorder = frozenset(
            ax for ax in self._real_axes if self._periodic_axes and ax != last
        )
        self._forward = {}
        self._backward = {}
        for ax in self._real_axes:
            g, pair = config.grids[ax], self._pairs[ax]
            line_axis = -1 if ax in self._reorder else ax
            self._forward[ax] = TransformPlan(pair.forward, g.n, axis=line_axis,
                                              workers=self.threads)
            self._backward[ax] = TransformPlan(pair.backward, g.n, axis=line_axis,
                                               workers=self.threads)
        # only a Neumann-regular axis leaves the solution a nonzero arithmetic
        # mean after the null coefficient is zeroed (see the module docstring)
        self._subtract_mean = config.singular and any(
            g.bc is BoundaryCondition.NEUMANN and g.kind is GridKind.REGULAR
            for g in config.grids
        )
        # the null coefficient is a weighted sum of the rhs whose weights add
        # up to 1 / backward_scale over the real axes and to N over the
        # periodic ones (irfftn applies that 1/N itself): this scale turns it
        # into the removed mean
        self._mean_scale = backward_scale / math.prod(self._periodic_lengths)

    def describe(self) -> PlanDescription:
        """Per axis: row, transform pair, FFT length and its largest prime
        factor, and the method; plus the working dtype, the workspace and the
        bytes the plan keeps."""
        axes = []
        for ax, (g, pair) in enumerate(zip(self.config.grids, self._pairs)):
            plan = self._forward.get(ax)
            # periodic axes go through rfftn/irfftn of their own length
            length = plan.fft_length if plan else g.n
            axes.append(AxisDescription(
                bc=g.bc.value, grid=g.kind.value, n=g.n,
                forward=pair.forward.value, backward=pair.backward.value,
                fft_length=length, largest_prime=largest_prime_factor(length),
                method=plan.method if plan else "fft",
            ))
        return PlanDescription(axes=tuple(axes), dtype=self.dtype.name,
                               workspace=self._workspace(),
                               resident_bytes=self._inv_lam.nbytes)

    def _workspace(self) -> WorkspaceDescription:
        itemsize = self.dtype.itemsize
        field_bytes = math.prod(self.shape) * itemsize
        # the half spectrum is complex, of the inverse eigenvalues' shape
        spectrum_bytes = self._inv_lam.size * 2 * itemsize if self._periodic_axes else 0
        # a reordered axis is transformed in the line buffer, which has that
        # axis moved last; the others in place
        temporary_bytes = max(
            (self._forward[ax].temporary_bytes(
                self.shape[:ax] + self.shape[ax + 1:] + self.shape[ax:ax + 1]
                if ax in self._reorder else self.shape, self.dtype)
             for ax in self._real_axes),
            default=0,
        )
        return WorkspaceDescription(
            working_copy=field_bytes, half_spectrum=spectrum_bytes,
            line_buffer=field_bytes if self._reorder else 0,
            matrix_temporary=temporary_bytes,
        )

    def solve(self, rhs, out=None):
        """Solve the discrete Poisson problem for ``rhs``.

        ``rhs`` and ``out`` are ndarrays or views of them: they may be strided
        sub-blocks of larger allocations, and may alias each other.  Returns
        ``(solution, report)``; ``rhs`` is preserved unless ``out`` aliases it.
        Without ``out`` the solution is a fresh C-contiguous array in the
        plan's precision.  A complex or non-numeric ``rhs``, or an ``out``
        the plan's dtype cannot be cast into, raises ``TypeError``.  An
        ``rhs`` with a NaN or an infinity, or one whose forward transform
        overflows the precision, raises ``ValueError`` before ``out`` is
        written.
        """
        t_enter = time.perf_counter()
        rhs_arr = np.asarray(rhs)
        # the copies below would cast a complex rhs or an integer out silently
        if rhs_arr.dtype.kind not in "biuf":
            raise TypeError(f"rhs dtype {rhs_arr.dtype} is not real")
        if rhs_arr.shape != self.shape:
            raise ValueError(f"rhs extents {rhs_arr.shape} do not match plan extents {self.shape}")
        out_arr = None
        if out is not None:
            out_arr = np.asarray(out)
            if out_arr.shape != self.shape:
                raise ValueError(
                    f"solution extents {out_arr.shape} do not match plan extents {self.shape}"
                )
            if not np.can_cast(self.dtype, out_arr.dtype, "same_kind"):
                raise TypeError(f"out dtype {out_arr.dtype} cannot take a {self.dtype} solution")

        report = SolveReport()
        # the one working copy; every pass below rebinds ``work`` in this frame
        # so that the array it replaces is freed as soon as the pass returns.
        # An all-periodic plan copies too, though rfftn could read rhs as it
        # is: under glibc's malloc, 256^2 and 512^2 solves without the copy
        # took about 10 % longer, as irfftn's output no longer reused the
        # copy's freed block and each solve faulted fresh pages in
        work = np.array(rhs_arr, dtype=self.dtype, copy=True, order="C")
        t0 = time.perf_counter()

        for ax in self._real_axes:
            work = self._real_transform(work, ax, forward=True)
        if self._periodic_axes:
            work = _sfft.rfftn(work, axes=self._periodic_axes, workers=self.threads)
        t1 = time.perf_counter()
        # on every row the null coefficient sums all rhs entries with strictly
        # positive weights, so a NaN or an infinity anywhere in the rhs, or a
        # forward pass that overflowed, leaves it non-finite
        if not np.isfinite(work[(0,) * work.ndim]):
            raise ValueError("rhs contains non-finite values, or its transform overflowed")
        if self.config.singular:
            coeff = work[(0,) * work.ndim]
            report.removed_mean = float(np.real(coeff)) * self._mean_scale
        work *= self._inv_lam
        t2 = time.perf_counter()
        if self._periodic_axes:
            work = _sfft.irfftn(work, s=self._periodic_lengths, axes=self._periodic_axes,
                                overwrite_x=True, workers=self.threads)
        for ax in reversed(self._real_axes):
            work = self._real_transform(work, ax, forward=False)
        if self._subtract_mean:
            work -= work.mean()
        t3 = time.perf_counter()

        # the phases partition the call: checks and copy-in, the three
        # passes, and the copy into ``out``
        report.timing = {"setup": t0 - t_enter, "forward": t1 - t0, "diagonal": t2 - t1,
                         "backward": t3 - t2}
        if out_arr is not None:
            out_arr[...] = work
            work = out_arr
        report.timing["finish"] = time.perf_counter() - t3
        return work, report

    # -- internal passes ---------------------------------------------------

    def _real_transform(self, work, ax, forward):
        """Transform ``work`` (owned by the solve) in place along one real axis."""
        plan = self._forward[ax] if forward else self._backward[ax]
        if ax not in self._reorder:
            return plan.execute_real(work, overwrite_x=True)
        scatter_lines(plan.execute_real(gather_lines(work, ax), overwrite_x=True), work, ax)
        return work
