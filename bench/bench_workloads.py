"""The three benchmark workloads.

Each workload builds its plan (or flow) through the public API, makes a
seeded pool of inputs outside the timed interval, and hands the runner
rounds of operations.  A round is a fixed list of ``(op, check)`` pairs:
``op()`` is the one call that is timed, ``check(result)`` verifies its
output with :mod:`bench_checks` and returns ``(ok, detail)``.  Every round
of a workload holds the same number of operations, so a run always attempts
whole rounds.
"""

from __future__ import annotations

import math

import numpy as np

from fastpoisson import (
    Approximation,
    BoundaryCondition,
    GridKind,
    GridSpec,
    SolverConfig,
    SolverPlan,
)
from fastpoisson.flow import ProjectionFlow, StaggeredVelocity

import bench_checks as checks

THREADS = 1


class Duct3D:
    """FD2 pressure solve of a square duct: x periodic, y and z Neumann-staggered.

    64^3 and not 128^3: at 128^3 the solve streams 16 MiB arrays, and its time
    drifted by up to 1.4x between runs on a shared machine.
    """

    name = "duct3d"
    n = 64
    lengths = (2.0, 1.0, 1.0)
    pool_size = 3

    def build(self):
        n = self.n
        x = GridSpec(n, self.lengths[0], BoundaryCondition.PERIODIC, GridKind.REGULAR)
        walls = [
            GridSpec(n, length, BoundaryCondition.NEUMANN, GridKind.STAGGERED)
            for length in self.lengths[1:]
        ]
        self.plan = SolverPlan(
            SolverConfig((x, *walls), Approximation.FINITE_DIFFERENCE_2), threads=THREADS
        )

    def make_pool(self, rng):
        shape = (self.n,) * 3
        self.pool = [rng.standard_normal(shape) for _ in range(self.pool_size)]

    def round(self, index):
        spacing = tuple(length / self.n for length in self.lengths)
        periodic = (True, False, False)
        for rhs in self.pool:
            def check(result, rhs=rhs):
                phi, report = result
                return checks.check_singular_fd2(
                    phi, rhs, report.removed_mean, spacing, periodic
                )

            yield (lambda rhs=rhs: self.plan.solve(rhs)), check


class DirBox3D:
    """Pseudo-spectral solve on the unit cube, Dirichlet-regular on every axis.

    The right-hand side is a random full-spectrum sine series, so the exact
    solution is the same series with each coefficient divided by its
    eigenvalue.  The DST-I of length n runs an FFT of length 2(n+1); n = 52
    makes that 106 = 2*53, a length with a large prime factor.  52^3 and not
    128^3 (length 258 = 2*3*43): at 128^3 the solve streams 16 MiB arrays,
    and its time drifted by up to 1.7x between runs on a shared machine.  At
    66^3 (length 134 = 2*67) a solve took about three times as long as at
    52^3, a 36-second run held a third as many solves, and ten runs spread by
    27 %.
    """

    name = "dirbox3d"
    n = 52
    length = 1.0
    pool_size = 3

    def build(self):
        g = GridSpec(self.n, self.length, BoundaryCondition.DIRICHLET, GridKind.REGULAR)
        self.plan = SolverPlan(
            SolverConfig((g, g, g), Approximation.PSEUDO_SPECTRAL), threads=THREADS
        )

    def make_pool(self, rng):
        shape = (self.n,) * 3
        bases = [checks.sine_basis(self.n, self.length)] * 3
        lam = checks.dirichlet_spectral_eigenvalues(shape, (self.length,) * 3)
        self.pool = []
        for _ in range(self.pool_size):
            coeffs = rng.standard_normal(shape)
            rhs = checks.synthesize_sine_series(coeffs, bases)
            coeffs /= lam
            self.pool.append((rhs, checks.synthesize_sine_series(coeffs, bases)))

    def round(self, index):
        for rhs, expected in self.pool:
            def check(result, expected=expected):
                return checks.check_series_solution(result[0], expected)

            yield (lambda rhs=rhs: self.plan.solve(rhs)), check


class TaylorGreen2D:
    """RK3 projection steps of a Taylor-Green vortex on a doubly periodic 64^2 grid.

    Each round restarts the flow from the next initial condition in the pool
    (random amplitude and phase shift, an exact solution for any of them) and
    takes ``steps_per_round`` steps.
    """

    name = "tgflow2d"
    n = 64
    nu = 0.01
    dt = 0.01
    steps_per_round = 250
    pool_size = 4
    length = 2.0 * math.pi

    def _velocity(self, amplitude, x0, z0):
        h = self.length / self.n
        i = np.arange(self.n, dtype=np.float64)
        u = amplitude * np.sin(i * h - x0)[:, None] * np.cos((i + 0.5) * h - z0)[None, :]
        w = -amplitude * np.cos((i + 0.5) * h - x0)[:, None] * np.sin(i * h - z0)[None, :]
        return u, w

    def _state(self, u, w):
        return StaggeredVelocity(u.copy(), w.copy(), (self.length,) * 2, self.nu)

    def build(self):
        u, w = self._velocity(1.0, 0.0, 0.0)
        self.flow = ProjectionFlow(self._state(u, w), threads=THREADS)

    def make_pool(self, rng):
        self.pool = [
            self._velocity(rng.uniform(0.5, 1.5), *rng.uniform(0.0, self.length, 2))
            for _ in range(self.pool_size)
        ]

    def round(self, index):
        u0, w0 = self.pool[index % len(self.pool)]
        flow = self.flow
        flow.velocity = self._state(u0, w0)
        flow.pressure.p = np.zeros_like(u0)
        flow.time = 0.0
        h = self.length / self.n

        def check(_):
            vel = flow.velocity
            return checks.check_taylor_green(vel.u, vel.w, u0, w0, self.nu, flow.time, h)

        step = lambda: flow.rk3_step(self.dt)  # noqa: E731
        for _ in range(self.steps_per_round):
            yield step, check


WORKLOADS = {w.name: w for w in (Duct3D, DirBox3D, TaylorGreen2D)}
