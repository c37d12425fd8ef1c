"""Incompressible-flow demo: projection method with low-storage RK3 on a 2D staggered grid.

This is the Poisson solver's original application: every Runge-Kutta stage
computes a predictor velocity and then projects it onto the divergence-free
space by solving a pressure-correction Poisson problem with the matching
second-order finite-difference operator.  "Matching" is the whole point: the
divergence of the discrete gradient of a cell-centered scalar is exactly the
FD2 Laplacian the solver diagonalizes, so the corrected velocity is discretely
divergence-free to roundoff.

Stage k of the scheme, in its incremental form, reads

    u* = u - alpha_k dt grad p + gamma_k dt h_k + zeta_k dt h_{k-1}
    lap phi = div u* / (alpha_k dt),   u <- u* - alpha_k dt grad phi,   p <- p + phi

with h the advective, viscous and body-force tendency.  The step takes it
without the pressure:

    u* = u + gamma_k dt h_k + zeta_k dt h_{k-1}
    lap psi = div u*,   u <- u* - grad psi,   and after stage 3  p = psi / (alpha_3 dt)

The two agree to roundoff because the solve inverts div grad exactly: the
projection removes any discrete gradient added to u*, so leaving out
-alpha_k dt grad p only adds alpha_k dt p to psi (less its mean) and gives the
same corrected velocity, and the incremental form's p + phi is then
psi / (alpha_k dt) plus the entering pressure's mean.  A pressure is defined
up to that constant; the step returns it in the solver's gauge, with zero
mean.  So the step never reads the pressure: it is an output, written once
from the last stage's psi.  dt rides on the stage weights.

No stencil divides: each scales by a reciprocal of the spacings (1/dx, 1/dz**2,
...), taken once where its calls are bound, so an entry differs from the
quotient by at most the rounding of that reciprocal.

Geometry: axes (x, z) with cells (nx, nz).  x is always periodic.  z is either
periodic (Taylor-Green) or closed by no-slip walls (channel); walls map to
staggered Neumann conditions for the pressure.  Arrangement:

    p, psi    cell centers   (nx, nz)
    u         x-faces        (nx, nz)            u[i,j] at (i dx, (j+1/2) dz)
    w         z-faces        (nx, nz) periodic   w[i,j] at ((i+1/2) dx, j dz)
                             (nx, nz+1) walls    boundary faces pinned to 0

Advective terms use second-order conservative central differences (the
divergence form of the momentum flux), with each average left as a
neighbour sum and the 1/4 of two halvings folded into the spacing scales;
viscosity is a constant and is treated explicitly inside the RK3 stage
weights.

Every difference and average pairs neighbours on the staggered grid, through
one of two operators: ``_forward`` pairs entry i+1 with entry i and writes
at i (faces to cells), ``_backward`` pairs entry i with entry i-1 and writes
at i (cells to faces).  They own the closure of the axis.  Periodically, one
ufunc call pairs offset views of the flattened arrays and a second one
writes the line where the wrap lands, with no shifted copy (``np.roll``).
Between walls, the pair is a plain slice: the forward result is one entry
shorter, and the backward result one entry longer with its wall faces zero.
Each entry is the same IEEE operation on the same operands as in the rolled
stencil, so the results are bit-identical to it.

The operators do not compute: they bind ufunc calls on fixed views, and the
four terms (``advective_term``, ``viscous_term``, ``gradient`` and
``divergence``) are the lists of such calls, bound once per workspace and
operands and then replayed.  Called on their own, the terms bind on a
one-shot workspace, run once and return new arrays.  A flow's workspace is
built by its first step, not by ``ProjectionFlow.__init__``, and rebuilt when
the velocity's shapes, walls, lengths or viscosity change.  It holds twelve
fields on a periodic grid: a copy of the velocity (u, w: 2), the tendency h
and the previous stage's h scaled by the next zeta weight (2 + 2), the
predictor u* (2), and four scratch fields that the terms and psi share, as
their lifetimes do not overlap.  Each buffer is as long as the w grid, one
row of faces longer than u with walls.  A step copies the velocity in, so a
caller may replace or edit it between steps, and writes the new state into
new arrays: arrays that a caller took from ``flow.velocity`` or
``flow.pressure`` keep their values.  A warm step's allocation peak is then
about three fields, the new state.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial, wraps

import numpy as np

from .grid import Approximation, BoundaryCondition, ConfigurationError, GridKind, GridSpec
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
        if min(nx, nz) < 1:
            raise ValueError(f"a velocity needs at least one cell per axis, got {self.u.shape}")
        if self.z_walls and nz < 2:
            raise ValueError(f"walls in z need at least two cells between them, got {nz}")
        if not 0.0 <= self.nu < math.inf:
            raise ValueError(f"viscosity must be finite and non-negative, got {self.nu}")
        if not all(0.0 < length < math.inf for length in self.lengths):
            raise ValueError(f"lengths must be finite and positive, got {self.lengths}")
        # GridSpec's rule: the stencils scale by 1 / h**2
        for h in self.spacing:
            if not sys.float_info.min <= h * h < math.inf:
                raise ConfigurationError(
                    f"lengths {self.lengths} on {nx}x{nz} cells give a spacing of {h}, "
                    "whose square is out of float64 range"
                )

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


class _Workspace:
    """Flat buffers for the terms of one grid layout, and the term calls bound
    on views of them.

    ``take(name, shape)`` is a C-contiguous view at the start of buffer
    ``name``, which is allocated on first use as long as the larger face grid.
    Views of one name share memory, so a term takes one only where no view of
    that name holds a value it still needs.  ``bound`` maps a term and its
    operands to the term's calls and results (see ``_stencil``).
    """

    def __init__(self, size, dtype):
        self.size = size
        self.dtype = dtype
        self.buffers = {}
        self.bound = {}

    def take(self, name, shape):
        buf = self.buffers.get(name)
        if buf is None:
            buf = self.buffers[name] = np.empty(self.size, self.dtype)
        return buf[:math.prod(shape)].reshape(shape)


def _stencil(bind):
    """Make ``bind(vel, *fields, workspace)``, which returns a term's calls
    bound on its operands and the arrays the calls leave its results in, into
    the term ``name(vel, *fields, workspace=None)``.

    Given a workspace (the flow's, whose own arrays the operands then are),
    the term binds on its first call for these operands and runs the bound
    calls from then on.  Without one it binds on a one-shot workspace and runs
    once, so its results are new arrays, of the operands' common float dtype
    (float64 for integer operands, as true division would give).
    """

    @wraps(bind)
    def term(vel, *fields, workspace=None):
        ws = workspace
        if ws is None:
            ws = _Workspace(max(vel.u.size, vel.w.size),
                            np.result_type(vel.u, vel.w, *fields, 1.0))
        key = (bind, id(vel), *map(id, fields))
        bound = ws.bound.get(key)
        if bound is None:
            # the entry keeps the operands, so their ids stay theirs
            bound = ws.bound[key] = (*bind(vel, *fields, ws), (vel, fields))
        for call in bound[0]:
            call()
        return bound[1]

    return term


def _flat(a):
    """``a`` as one line: a view, as a workspace's buffers are C-contiguous (an
    outside call's operand that is not is copied once, at the bind, which on a
    one-shot workspace precedes the one run)."""
    return a.reshape(-1)


def _forward(op, a, axis, out, b=None, walls=False):
    """The calls that write ``op(a[i+1], b[i])`` into ``out`` at every i along
    ``axis``, periodically (``b`` defaults to ``a``).  With ``walls`` the axis
    is closed instead, and ``out`` is one entry shorter than ``a``: faces to
    the cells between them.

    A periodic pair takes no shifted copy: one ufunc call pairs the flattened
    operands one line apart along ``axis`` (along the last axis that also
    pairs the end of one row with the start of the next) and a second one, on
    the line where the wrap lands, overwrites those entries.  Each entry is
    the same IEEE operation on the same operands as in the ``np.roll`` stencil,
    so the result is bit-identical to it.  ``out`` shares no memory with ``a``
    or ``b``.
    """
    b = a if b is None else b
    lead = (slice(None),) * axis
    if walls:
        return [partial(op, a[lead + (slice(1, None),)],
                        b[lead + (slice(0, a.shape[axis] - 1),)], out)]
    step = a.shape[1] if axis == 0 else 1
    return [partial(op, _flat(a)[step:], _flat(b)[:-step], _flat(out)[:-step]),
            partial(op, a[lead + (0,)], b[lead + (-1,)], out[lead + (-1,)])]


def _backward(op, a, axis, out, b=None, walls=False):
    """The calls that write ``op(a[i], b[i-1])`` into ``out`` at every i along
    ``axis``, periodically; with ``walls`` ``out`` is one entry longer than
    ``a`` (cells to the faces around them) and its two wall faces are set to
    zero.  Otherwise as ``_forward``; along a wall axis ``b`` may be longer
    than ``a``, and its first entries are used."""
    b = a if b is None else b
    lead = (slice(None),) * axis
    if walls:
        return [partial(op, a[lead + (slice(1, None),)],
                        b[lead + (slice(0, a.shape[axis] - 1),)], out[lead + (slice(1, -1),)]),
                partial(out[lead + (0,)].fill, 0.0), partial(out[lead + (-1,)].fill, 0.0)]
    step = a.shape[1] if axis == 0 else 1
    return [partial(op, _flat(a)[step:], _flat(b)[:-step], _flat(out)[step:]),
            partial(op, a[lead + (0,)], b[lead + (-1,)], out[lead + (0,)])]


def _inplace(op, a, c):
    """The call for ``a op= c``."""
    return partial(op, a, c, a)


# The terms below name their buffers: s0-s3 are scratch, and the advective
# term leaves its results in hu and hw, where a step completes the tendency h.

@_stencil
def divergence(vel: StaggeredVelocity, workspace=None) -> np.ndarray:
    """Cell-centered divergence: sum over axes of face differences / spacing."""
    dx, dz = vel.spacing
    div, dw = workspace.take("s0", vel.cells), workspace.take("s1", vel.cells)
    return [*_forward(np.subtract, vel.u, 0, div), _inplace(np.multiply, div, 1.0 / dx),
            *_forward(np.subtract, vel.w, 1, dw, walls=vel.z_walls),
            _inplace(np.multiply, dw, 1.0 / dz),
            _inplace(np.add, div, dw)], div


@_stencil
def gradient(vel: StaggeredVelocity, scalar: np.ndarray, workspace=None):
    """Cell-centered scalar -> face-centered gradient components.

    Wall z-faces get gradient zero (Neumann pressure condition), which keeps
    pinned wall velocities untouched by the corrector.
    """
    dx, dz = vel.spacing
    gx, gz = workspace.take("s2", vel.u.shape), workspace.take("s3", vel.w.shape)
    return [*_backward(np.subtract, scalar, 0, gx), _inplace(np.multiply, gx, 1.0 / dx),
            *_backward(np.subtract, scalar, 1, gz, walls=vel.z_walls),
            _inplace(np.multiply, gz, 1.0 / dz)], (gx, gz)


def _corner_flux(vel, workspace):
    """The calls that leave four times u*w interpolated to cell corners (where
    neither component lives) in s0, as the product of the two neighbour sums,
    and the corner array; on the walls, where w is zero, the corner value is
    zero.  They also use s1."""
    wc, uc = workspace.take("s1", vel.w.shape), workspace.take("s0", vel.w.shape)
    return [*_backward(np.add, vel.w, 0, wc),
            *_backward(np.add, vel.u, 1, uc, walls=vel.z_walls),
            _inplace(np.multiply, uc, wc)], uc


@_stencil
def advective_term(vel: StaggeredVelocity, workspace=None):
    """-div(u (x) u) on each face grid, second-order conservative form."""
    dx, dz = vel.spacing
    # the averages are left as neighbour sums, so every flux is four times
    # too large; the 1/4 rides on the spacing scales.  Scaling by a power of
    # two is exact in the normal range, so each entry keeps the bits of the
    # halved averages
    rx, rz = 0.25 * (1.0 / dx), 0.25 * (1.0 / dz)
    u, w, walls = vel.u, vel.w, vel.z_walls
    calls, corner = _corner_flux(vel, workspace)
    au, aw = workspace.take("hu", u.shape), workspace.take("hw", w.shape)
    # twice u at cell centers, squared below; the differences of the corner
    # flux and of w at cell centers reuse it, as all are (nx, nz)
    fxx = workspace.take("s2", vel.cells)

    # u momentum: -(d(uu)/dx + d(wu)/dz) at x-faces
    calls += [*_forward(np.add, u, 0, fxx), _inplace(np.multiply, fxx, fxx),
              *_backward(np.subtract, fxx, 0, au), _inplace(np.multiply, au, -rx),
              *_forward(np.subtract, corner, 1, fxx, walls=walls),
              _inplace(np.multiply, fxx, rz),
              _inplace(np.subtract, au, fxx)]

    # w momentum: -(d(uw)/dx + d(ww)/dz) at z-faces; w's corner average is
    # spent, and its buffer takes the corner difference
    dcx = workspace.take("s1", w.shape)
    calls += [*_forward(np.add, w, 1, fxx, walls=walls), _inplace(np.multiply, fxx, fxx),
              *_backward(np.subtract, fxx, 1, aw, walls=walls),
              _inplace(np.multiply, aw, -rz),
              *_forward(np.subtract, corner, 0, dcx), _inplace(np.multiply, dcx, rx),
              _inplace(np.subtract, aw, dcx)]
    if walls:
        calls += [partial(aw[:, 0].fill, 0.0), partial(aw[:, -1].fill, 0.0)]
    return calls, (au, aw)


def _second_difference(a, twice, axis, out, workspace, walls=False):
    """The calls for ``a[i+1] - twice[i] + a[i-1]`` along ``axis`` into
    ``out``, with ``twice`` = 2 a, through s1; ``out`` may be ``twice`` but no
    other operand.  With ``walls`` the two wall entries are zero."""
    shape = list(a.shape)
    shape[axis] -= walls
    diff = workspace.take("s1", shape)
    return [*_forward(np.subtract, a, axis, diff, b=twice, walls=walls),
            *_backward(np.add, diff, axis, out, b=a, walls=walls)]


@_stencil
def viscous_term(vel: StaggeredVelocity, workspace=None):
    """nu * Laplacian of each component on its own face grid.

    No-slip walls enter through mirrored ghosts for the tangential component
    (u = 0 on the wall midway between ghost and first face center) and the
    pinned zero wall values for the normal component.
    """
    dx, dz = vel.spacing
    u, w, walls = vel.u, vel.w, vel.z_walls
    lu, lw = workspace.take("s2", u.shape), workspace.take("s3", w.shape)
    calls = []
    for a, lap in ((u, lu), (w, lw)):
        # 2 a, and then the second difference along z, in s0
        twice = workspace.take("s0", a.shape)
        calls += [partial(np.multiply, a, 2.0, twice),
                  *_second_difference(a, twice, 0, lap, workspace),
                  _inplace(np.multiply, lap, 1.0 / dx ** 2),
                  *_second_difference(a, twice, 1, twice, workspace, walls)]
        if walls and a is u:
            for wall, first in ((0, 1), (-1, -2)):  # ghost = -u at the wall
                edge = twice[:, wall]
                calls += [partial(np.multiply, u[:, wall], 3.0, edge),
                          partial(np.subtract, u[:, first], edge, edge)]
        calls += [_inplace(np.multiply, twice, 1.0 / dz ** 2), _inplace(np.add, lap, twice)]
    if walls:
        calls += [partial(lw[:, 0].fill, 0.0), partial(lw[:, -1].fill, 0.0)]
    calls += [_inplace(np.multiply, lu, vel.nu), _inplace(np.multiply, lw, vel.nu)]
    return calls, (lu, lw)


class _StepWorkspace(_Workspace):
    """A step's workspace: a copy of the velocity (``state``), the tendency h
    (the advective term's hu and hw), the previous stage's h scaled by the
    next zeta weight (``carry``), the predictor (``star``) and the terms'
    scratch s0-s3, in which the projection also keeps psi (s1).  ``layout``
    is what the terms bind: the shapes, the walls, the lengths and the
    viscosity."""

    def __init__(self, vel):
        super().__init__(max(vel.u.size, vel.w.size), np.float64)
        self.layout = self.layout_of(vel)
        cells, w_shape = vel.cells, vel.w.shape
        layout = (vel.lengths, vel.nu, vel.z_walls)
        self.state = StaggeredVelocity(self.take("u", cells), self.take("w", w_shape), *layout)
        self.star = StaggeredVelocity(self.take("su", cells), self.take("sw", w_shape), *layout)
        self.carry = (self.take("cu", cells), self.take("cw", w_shape))
        self.psi = self.take("s1", cells)

    @staticmethod
    def layout_of(vel):
        return vel.u.shape, vel.w.shape, vel.z_walls, tuple(vel.lengths), vel.nu


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
        self._workspace = None  # built by the first step

    def rk3_step(self, dt: float) -> None:
        """Advance one full time step of size dt (three projection stages).

        The stages run in the flow's workspace, which the first step builds
        (see the module docstring): the step copies the velocity in; the
        pressure is an output, which the step never reads and writes from
        the last stage's projection.  The new state goes into new arrays.

        Non-finite values raise ``FloatingPointError``, and the state is left
        as it was.  The velocity is checked on entry and after the last stage.
        A stage's predictor u* is checked by the pressure solve: every face of
        u* enters div u* with weight +-1/dx or +-1/dz, and the solve refuses a
        non-finite rhs, which the step reports as a non-finite predictor.  A
        non-finite corrected velocity of stage 1 or 2 feeds the next
        predictor, so it is reported as that stage's predictor.
        """
        if not 0.0 < dt < math.inf:
            raise ValueError(f"time step must be positive and finite, got {dt}")
        vel = self.velocity
        if not (np.isfinite(vel.u).all() and np.isfinite(vel.w).all()):
            raise FloatingPointError(
                f"non-finite velocity entering stage 1 of step {self.step_count + 1}"
            )
        ws = self._workspace
        if ws is None or ws.layout != _StepWorkspace.layout_of(vel):
            ws = self._workspace = _StepWorkspace(vel)
        state = ws.state
        np.copyto(state.u, vel.u)
        np.copyto(state.w, vel.w)
        poisson_seconds = 0.0
        # a non-finite value is reported by the checks below, not by numpy
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(3):
                self._predictor(ws, k, dt)
                # the last stage leaves the new velocity in new arrays: arrays
                # a caller holds are never written
                try:
                    (u, w), seconds = self._project(ws, fresh=k == 2)
                except ValueError as exc:  # the solve refuses a non-finite div u*
                    raise FloatingPointError(
                        f"non-finite predictor velocity in stage {k + 1} "
                        f"of step {self.step_count + 1}"
                    ) from exc
                poisson_seconds += seconds
            p = np.multiply(ws.psi, 1.0 / (_ALPHA[2] * dt))
        if not (np.isfinite(u).all() and np.isfinite(w).all()):
            raise FloatingPointError(
                f"non-finite velocity after stage 3 of step {self.step_count + 1}"
            )

        vel.u, vel.w, self.pressure.p = u, w, p
        self.poisson_seconds = poisson_seconds
        self.time += dt
        self.step_count += 1

    def _predictor(self, ws, k, dt):
        """Stage k's tendency h = advection + viscosity + forcing, and the
        predictor velocity built from it and stage k-1's h into ``ws.star``;
        h, scaled by stage k+1's zeta weight, is kept in ``ws.carry`` for it."""
        state = ws.state
        fx, fz = self.forcing
        hu, hw = advective_term(state, workspace=ws)
        vu, vw = viscous_term(state, workspace=ws)
        hu += vu
        hw += vw
        # a zero body force (Taylor-Green) adds nothing but two passes
        if fx != 0.0:
            hu += fx
        if fz != 0.0:
            hw += fz
        if state.z_walls:
            hw[:, 0] = 0.0
            hw[:, -1] = 0.0

        # u* = u + gamma_k dt h_k + zeta_k dt h_{k-1}, with no pressure term,
        # as the projection removes any discrete gradient (module docstring)
        for pred, h, old, carry in zip((ws.star.u, ws.star.w), (hu, hw), (state.u, state.w),
                                       ws.carry):
            np.multiply(h, _GAMMA[k] * dt, out=pred)
            pred += old
            if _ZETA[k] != 0.0:
                pred += carry
            if k < 2:
                np.multiply(h, dt * _ZETA[k + 1], out=carry)

    def _project(self, ws, fresh):
        """Make the predictor ``ws.star`` divergence-free, leaving the solve's
        psi in ``ws.psi`` (see the module docstring), into the workspace's
        velocity, or with ``fresh`` into new arrays; returns those two arrays
        and the seconds of the Poisson solve."""
        state, star, psi = ws.state, ws.star, ws.psi
        _, report = self.poisson.solve(divergence(star, workspace=ws), out=psi)
        gfx, gfz = gradient(state, psi, workspace=ws)
        u = np.subtract(star.u, gfx, out=None if fresh else state.u)
        w = np.subtract(star.w, gfz, out=None if fresh else state.w)
        return (u, w), sum(report.timing.values())

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
