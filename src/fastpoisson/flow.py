"""Incompressible-flow demo: projection method with low-storage RK3 on a 2D staggered grid.

This is the Poisson solver's original application: every Runge-Kutta stage
computes a predictor velocity and then projects it onto the divergence-free
space by solving a pressure-correction Poisson problem with the matching
second-order finite-difference operator.  "Matching" is the whole point: the
divergence of the discrete gradient of a cell-centered scalar is exactly the
FD2 Laplacian the solver diagonalizes, so the corrected velocity is discretely
divergence-free to roundoff.

Stage k of the scheme reads

    u* = u - alpha_k dt grad p + gamma_k dt h_k + zeta_k dt h_{k-1}
    lap phi = div u* / (alpha_k dt),   u <- u* - alpha_k dt grad phi,   p <- p + phi

with h the advective, viscous and body-force tendency.  The step folds the
scalings into fewer passes over the fields: dt rides on the stage weights,
and the projection solves lap psi = div u* for psi = alpha_k dt phi, subtracts
grad psi from u* as it stands, and divides psi by alpha_k dt once, where it
enters the pressure.  The results agree with the unfolded order to roundoff.

Geometry: axes (x, z) with cells (nx, nz).  x is always periodic.  z is either
periodic (Taylor-Green) or closed by no-slip walls (channel); walls map to
staggered Neumann conditions for the pressure.  Arrangement:

    p, phi    cell centers   (nx, nz)
    u         x-faces        (nx, nz)            u[i,j] at (i dx, (j+1/2) dz)
    w         z-faces        (nx, nz) periodic   w[i,j] at ((i+1/2) dx, j dz)
                             (nx, nz+1) walls    boundary faces pinned to 0

Advective terms use second-order conservative central differences (the
divergence form of the momentum flux); viscosity is a constant and is treated
explicitly inside the RK3 stage weights.

Every difference and average pairs neighbours on the staggered grid, through
one of two operators: ``_forward`` pairs entry i+1 with entry i and writes
at i (faces to cells), ``_backward`` pairs entry i with entry i-1 and writes
at i (cells to faces).  They own the closure of the axis.  Periodically, one
ufunc call pairs offset views of the flattened arrays and a second one
writes the line where the wrap lands, with no shifted copy (``np.roll``); the
slices come from a small cache keyed on the shape and the axis.  Between
walls, the pair is a plain slice: the forward result is one entry shorter,
and the backward result one entry longer with its wall faces zero.  Each
entry is the same IEEE operation on the same operands as in the rolled
stencil, so the results are bit-identical to it.  The terms and a step write
only into arrays they allocate, so arrays that a caller took from
``flow.velocity`` or ``flow.pressure`` keep their values.

The flow keeps no workspace between steps, only its state.  Within a step,
each stage's working arrays are freed when the stage's helpers return, and a
term reuses its own scratch where shapes agree.  A warm step's allocation
peak is about eleven fields on a periodic grid: the state (3), the previous
and the current tendency (2 + 2) and a term's working set (4).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .grid import Approximation, BoundaryCondition, GridKind, GridSpec
from .solver import SolverConfig, SolverPlan


# stage weights of the three-stage scheme, exact: sum(ALPHA) == 1 and
# GAMMA[k] + ZETA[k] == ALPHA[k]; the steps use their floats
RK3_ALPHA = (Fraction(8, 15), Fraction(2, 15), Fraction(1, 3))
RK3_GAMMA = (Fraction(8, 15), Fraction(5, 12), Fraction(3, 4))
RK3_ZETA = (Fraction(0), Fraction(-17, 60), Fraction(-5, 12))
_ALPHA, _GAMMA, _ZETA = (tuple(map(float, w)) for w in (RK3_ALPHA, RK3_GAMMA, RK3_ZETA))


@dataclass
class StaggeredVelocity:
    """Velocity components on the faces of a uniform cell grid."""

    u: np.ndarray
    w: np.ndarray
    lengths: tuple
    nu: float
    z_walls: bool = False

    def __post_init__(self):
        nx, nz = self.u.shape
        expected_w = (nx, nz + 1) if self.z_walls else (nx, nz)
        if self.w.shape != expected_w:
            raise ValueError(
                f"w shape {self.w.shape} inconsistent with u shape {self.u.shape} "
                f"({'walls' if self.z_walls else 'periodic'} in z; expected {expected_w})"
            )
        if self.z_walls and nz < 2:
            raise ValueError(f"walls in z need at least two cells between them, got {nz}")
        if self.nu < 0:
            raise ValueError("viscosity must be non-negative")

    @classmethod
    def zeros(cls, cells, lengths, nu, z_walls=False) -> "StaggeredVelocity":
        nx, nz = cells
        w_shape = (nx, nz + 1) if z_walls else (nx, nz)
        return cls(np.zeros((nx, nz)), np.zeros(w_shape), tuple(lengths), nu, z_walls)

    @property
    def cells(self) -> tuple:
        return self.u.shape

    @property
    def spacing(self) -> tuple:
        nx, nz = self.u.shape
        return (self.lengths[0] / nx, self.lengths[1] / nz)


@dataclass
class PressureField:
    """Cell-centered pressure (divided by density)."""

    p: np.ndarray

    @classmethod
    def zeros(cls, cells) -> "PressureField":
        return cls(np.zeros(cells))


def _new(a, shape=None, reuse=None):
    """Uninitialized C-contiguous array for a difference of ``a``: ``a``'s
    dtype when it is inexact, else float64 (as true division would give).
    ``reuse`` is returned instead when it already has that shape and dtype."""
    dtype = a.dtype if a.dtype.kind in "fc" else np.float64
    shape = a.shape if shape is None else shape
    if reuse is not None and reuse.shape == shape and reuse.dtype == dtype:
        return reuse
    return np.empty(shape, dtype)


@functools.lru_cache(maxsize=64)
def _pairing(shape, axis):
    """The index expressions that pair entry i+1 with entry i along ``axis``
    of a 2D array of ``shape``: as flat slices one line apart, then the
    first and the last line (where the periodic wrap lands), then as plain
    slices (the wall closure)."""
    step = shape[1] if axis == 0 else 1
    size = shape[0] * shape[1]
    lead = (slice(None),) * axis
    return (slice(step, size), slice(0, size - step), lead + (0,), lead + (-1,),
            lead + (slice(1, None),), lead + (slice(0, shape[axis] - 1),),
            lead + (slice(1, -1),))


def _pair(op, a, b, axis, out, walls, forward):
    """``op(a[i+1], b[i])`` written at i (``forward``) or at i+1; see
    ``_forward`` and ``_backward``."""
    after, before, first, last, upper, lower, inner = _pairing(a.shape, axis)
    if walls:
        shape = list(a.shape)
        shape[axis] += -1 if forward else 1
        out = _new(a, tuple(shape), reuse=out)
        if forward:
            return op(a[upper], b[lower], out)
        op(a[upper], b[lower], out[inner])
        out[first] = 0.0
        out[last] = 0.0
        return out
    out = _new(a, reuse=out)
    op(a.ravel()[after], b.ravel()[before], out.ravel()[before if forward else after])
    op(a[first], b[last], out[last if forward else first])
    return out


def _forward(op, a, axis, out=None, b=None, walls=False):
    """``op(a[i+1], b[i])`` along ``axis`` at every i, periodically (``b``
    defaults to ``a``).  With ``walls`` the axis is closed instead, and the
    result is one entry shorter than ``a``: faces to the cells between them.

    The result goes into ``out`` when that has its shape and dtype, else into
    a new array.  A periodic pair is taken without a shifted copy: one ufunc
    call pairs the flattened operands one line apart along ``axis`` (along
    the last axis that also pairs the end of one row with the start of the
    next) and a second one, on the line where the wrap lands, overwrites
    those entries.  Each entry is the same IEEE operation on the same
    operands as in the ``np.roll`` stencil, so the result is bit-identical to
    it.  ``out`` is C-contiguous and shares no memory with ``a`` or ``b``.
    """
    return _pair(op, a, a if b is None else b, axis, out, walls, True)


def _backward(op, a, axis, out=None, b=None, walls=False):
    """``op(a[i], b[i-1])`` along ``axis`` at every i, periodically; with
    ``walls`` the result is one entry longer than ``a`` (cells to the faces
    around them) and its two wall faces are zero.  Otherwise as
    ``_forward``; along a wall axis ``b`` may be longer than ``a``, and its
    first entries are used."""
    return _pair(op, a, a if b is None else b, axis, out, walls, False)


def divergence(vel: StaggeredVelocity) -> np.ndarray:
    """Cell-centered divergence: sum over axes of face differences / spacing."""
    dx, dz = vel.spacing
    div = _forward(np.subtract, vel.u, 0)
    div /= dx
    dw = _forward(np.subtract, vel.w, 1, walls=vel.z_walls)
    dw /= dz
    div += dw
    return div


def gradient(vel: StaggeredVelocity, scalar: np.ndarray):
    """Cell-centered scalar -> face-centered gradient components.

    Wall z-faces get gradient zero (Neumann pressure condition), which keeps
    pinned wall velocities untouched by the corrector.
    """
    dx, dz = vel.spacing
    gx = _backward(np.subtract, scalar, 0)
    gx /= dx
    gz = _backward(np.subtract, scalar, 1, walls=vel.z_walls)
    gz /= dz
    return gx, gz


def _corner_flux(vel: StaggeredVelocity) -> np.ndarray:
    """u*w interpolated to cell corners (where neither component lives); on
    the walls, where w is zero, the corner value is zero."""
    wc = _backward(np.add, vel.w, 0)
    wc *= 0.5
    uc = _backward(np.add, vel.u, 1, walls=vel.z_walls)
    uc *= 0.5
    uc *= wc
    return uc


def advective_term(vel: StaggeredVelocity):
    """-div(u (x) u) on each face grid, second-order conservative form."""
    dx, dz = vel.spacing
    u, w, walls = vel.u, vel.w, vel.z_walls
    corner = _corner_flux(vel)

    # u momentum: -(d(uu)/dx + d(wu)/dz) at x-faces
    fxx = _forward(np.add, u, 0)  # u at cell centers, halved and squared below
    fxx *= 0.5
    fxx *= fxx
    au = _backward(np.subtract, fxx, 0)
    au /= -dx
    dcz = _forward(np.subtract, corner, 1, fxx, walls=walls)
    dcz /= dz
    au -= dcz

    # w momentum: -(d(uw)/dx + d(ww)/dz) at z-faces
    fzz = _forward(np.add, w, 1, fxx, walls=walls)  # w at cell centers, (nx, nz)
    fzz *= 0.5
    fzz *= fzz
    aw = _backward(np.subtract, fzz, 1, walls=walls)
    aw /= -dz
    # fzz is spent; the corner difference reuses it where the shapes agree
    dcx = _forward(np.subtract, corner, 0, fzz)
    dcx /= dx
    aw -= dcx
    if walls:
        aw[:, 0] = 0.0
        aw[:, -1] = 0.0
    return au, aw


def _second_difference(a, twice, axis, out, walls=False):
    """``a[i+1] - twice[i] + a[i-1]`` along ``axis``, with ``twice`` = 2 a;
    ``out`` may be ``twice`` but no other operand.  With ``walls`` the two
    wall entries are zero."""
    diff = _forward(np.subtract, a, axis, b=twice, walls=walls)
    return _backward(np.add, diff, axis, out, b=a, walls=walls)


def viscous_term(vel: StaggeredVelocity):
    """nu * Laplacian of each component on its own face grid.

    No-slip walls enter through mirrored ghosts for the tangential component
    (u = 0 on the wall midway between ghost and first face center) and the
    pinned zero wall values for the normal component.
    """
    dx, dz = vel.spacing
    u, w, walls = vel.u, vel.w, vel.z_walls

    twice = np.multiply(u, 2.0, out=_new(u))
    lu = _second_difference(u, twice, 0, _new(u))
    lu /= dx ** 2
    d2z = _second_difference(u, twice, 1, twice, walls)
    if walls:
        for wall, first in ((0, 1), (-1, -2)):  # ghost = -u at the wall
            edge = np.multiply(u[:, wall], 3.0, out=d2z[:, wall])
            np.subtract(u[:, first], edge, out=edge)
    d2z /= dz ** 2
    lu += d2z

    # u's scratch is spent; w reuses it when the shapes agree (periodic z)
    twice = np.multiply(w, 2.0, out=_new(w, reuse=twice))
    lw = _second_difference(w, twice, 0, _new(w))
    lw /= dx ** 2
    d2z = _second_difference(w, twice, 1, twice, walls)
    d2z /= dz ** 2
    lw += d2z
    if walls:
        lw[:, 0] = 0.0
        lw[:, -1] = 0.0
    lu *= vel.nu
    lw *= vel.nu
    return lu, lw


class ProjectionFlow:
    """Stepping driver: holds the velocity/pressure state and the pressure
    Poisson plan, and advances with the three-stage scheme.

    ``forcing`` is an optional constant body force per unit mass, (fx, fz).
    """

    def __init__(self, velocity: StaggeredVelocity, forcing=(0.0, 0.0), threads: int = 1):
        self.velocity = velocity
        self.pressure = PressureField.zeros(velocity.cells)
        self.forcing = (float(forcing[0]), float(forcing[1]))
        self.time = 0.0
        self.step_count = 0
        # wall time inside the last step's three Poisson solves, summed from
        # their reports' phase timings
        self.poisson_seconds = 0.0

        nx, nz = velocity.cells
        lx, lz = velocity.lengths
        zspec = (
            GridSpec(nz, lz, BoundaryCondition.NEUMANN, GridKind.STAGGERED)
            if velocity.z_walls
            else GridSpec(nz, lz, BoundaryCondition.PERIODIC, GridKind.REGULAR)
        )
        config = SolverConfig(
            (GridSpec(nx, lx, BoundaryCondition.PERIODIC, GridKind.REGULAR), zspec),
            Approximation.FINITE_DIFFERENCE_2,
        )
        self.poisson = SolverPlan(config, threads=threads)

    def rk3_step(self, dt: float) -> None:
        """Advance one full time step of size dt (three projection stages).

        A stage runs as two helpers whose working arrays are freed when they
        return: the predictor, which takes the previous stage's tendency h and
        returns this stage's, and the projection.  The split lets the previous
        h go before the projection allocates; between stages only the
        velocity, the pressure and h survive.
        """
        if not dt > 0:
            raise ValueError(f"time step must be positive, got {dt}")
        vel = self.velocity
        if not (np.isfinite(vel.u).all() and np.isfinite(vel.w).all()):
            raise FloatingPointError(
                f"non-finite velocity entering stage 1 of step {self.step_count + 1}"
            )
        poisson_seconds = 0.0
        h = None
        for k in range(3):
            # each later stage starts from the state the after-stage check passed
            star, h = self._predictor(k, dt, h)
            if not (np.isfinite(star.u).all() and np.isfinite(star.w).all()):
                raise FloatingPointError(
                    f"non-finite predictor velocity in stage {k + 1} of step {self.step_count + 1}"
                )
            poisson_seconds += self._project(k, dt, star)
            if not (np.isfinite(vel.u).all() and np.isfinite(vel.w).all()):
                raise FloatingPointError(
                    f"non-finite velocity after stage {k + 1} of step {self.step_count + 1}"
                )

        self.poisson_seconds = poisson_seconds
        self.time += dt
        self.step_count += 1

    def _predictor(self, k, dt, prev_h):
        """Stage k's tendency h = advection + viscosity + forcing, and the
        predictor velocity built from it and ``prev_h``, stage k-1's h (None
        in stage 1, whose zeta weight is zero); ``prev_h`` is scaled in place."""
        vel = self.velocity
        fx, fz = self.forcing
        hu, hw = advective_term(vel)
        vu, vw = viscous_term(vel)
        hu += vu
        hw += vw
        # a zero body force (Taylor-Green) adds nothing but two passes
        if fx != 0.0:
            hu += fx
        if fz != 0.0:
            hw += fz
        if vel.z_walls:
            hw[:, 0] = 0.0
            hw[:, -1] = 0.0

        # u* = u - alpha_k dt grad p + gamma_k dt h_k + zeta_k dt h_{k-1},
        # evaluated in place in fresh arrays in that order of operations
        ustar, wstar = gradient(vel, self.pressure.p)
        for pred, h, buf, old in ((ustar, hu, vu, vel.u), (wstar, hw, vw, vel.w)):
            pred *= -_ALPHA[k] * dt
            pred += np.multiply(h, _GAMMA[k] * dt, out=buf)
            pred += old
        if _ZETA[k] != 0.0:
            prev_hu, prev_hw = prev_h
            prev_hu *= dt * _ZETA[k]
            prev_hw *= dt * _ZETA[k]
            ustar += prev_hu
            wstar += prev_hw
        return StaggeredVelocity(ustar, wstar, vel.lengths, vel.nu, vel.z_walls), (hu, hw)

    def _project(self, k, dt, star):
        """Make the predictor ``star`` divergence-free with stage k's pressure
        correction and store it, and the corrected pressure, as the new state;
        returns the seconds of the Poisson solve.  The solve's solution is
        psi = alpha_k dt phi (see the module docstring)."""
        vel, pres = self.velocity, self.pressure
        psi, report = self.poisson.solve(divergence(star))
        gfx, gfz = gradient(vel, psi)
        star.u -= gfx
        star.w -= gfz
        # new arrays each stage (the pressure goes into the solve's fresh
        # solution): arrays a caller holds are never written
        vel.u, vel.w = star.u, star.w
        psi /= _ALPHA[k] * dt
        pres.p = np.add(pres.p, psi, out=psi)
        return sum(report.timing.values())

    def kinetic_energy(self) -> float:
        """0.5 * integral of |u|^2, one face volume per face value."""
        dx, dz = self.velocity.spacing
        cell = dx * dz
        ke = 0.5 * cell * float(np.sum(self.velocity.u ** 2))
        if self.velocity.z_walls:
            ke += 0.5 * cell * float(np.sum(self.velocity.w[:, 1:-1] ** 2))
        else:
            ke += 0.5 * cell * float(np.sum(self.velocity.w ** 2))
        return ke

    def max_divergence(self) -> float:
        return float(np.abs(divergence(self.velocity)).max())

    def cfl_advisory(self, dt: float) -> float:
        """Advective CFL number for the given step (caller stability aid)."""
        dx, dz = self.velocity.spacing
        umax = float(np.abs(self.velocity.u).max())
        wmax = float(np.abs(self.velocity.w).max())
        return dt * (umax / dx + wmax / dz)


def taylor_green(n: int, nu: float = 0.01) -> ProjectionFlow:
    """Doubly periodic Taylor-Green vortex on [0, 2 pi]^2.

    The analytic solution decays as exp(-2 nu t) per component, so kinetic
    energy follows KE(t) = KE(0) * exp(-4 nu t).
    """
    L = 2.0 * np.pi
    dx = dz = L / n
    i = np.arange(n)
    xu = i * dx  # u faces
    zu = (i + 0.5) * dz
    xw = (i + 0.5) * dx  # w faces
    zw = i * dz
    u = np.sin(xu)[:, None] * np.cos(zu)[None, :]
    w = -np.cos(xw)[:, None] * np.sin(zw)[None, :]
    vel = StaggeredVelocity(u, w, (L, L), nu, z_walls=False)
    return ProjectionFlow(vel)


def taylor_green_energy(flow_or_ke0, nu: float, t: float) -> float:
    """Analytic kinetic-energy decay KE(0) * exp(-4 nu t)."""
    ke0 = flow_or_ke0 if np.isscalar(flow_or_ke0) else flow_or_ke0.kinetic_energy()
    return float(ke0 * np.exp(-4.0 * nu * t))


def channel(cells, lengths, nu: float, forcing_x: float = 0.0) -> ProjectionFlow:
    """Channel-like configuration: periodic in x, no-slip walls in z,
    optional constant streamwise forcing."""
    vel = StaggeredVelocity.zeros(cells, lengths, nu, z_walls=True)
    return ProjectionFlow(vel, forcing=(forcing_x, 0.0))
