"""Correctness checks for the benchmark, computed apart from the solver.

Nothing here calls into ``fastpoisson``: each check rebuilds the expected
answer with plain NumPy (its own stencils, its own sine synthesis, its own
modified wavenumber) and compares the program's output against it.  Every
check returns ``(ok, detail)`` where ``detail`` maps the measured error
figures to floats, so the runner can print them and the tests can look at
them.
"""

from __future__ import annotations

import math

import numpy as np

# Tolerances sit three or more decades above the errors measured on working
# code (duct residual ~5e-15, dirbox3d ~1e-13, Taylor-Green ~1e-13) and three
# or more decades below what a solution scaled by 1 + 1e-6 produces.
RESIDUAL_TOL = 1e-11
MEAN_TOL = 1e-12
SERIES_TOL = 1e-10
DIVERGENCE_TOL = 1e-11
DECAY_TOL = 1e-9


# -- duct3d: FD2 with periodic and Neumann-staggered axes -------------------


def fd2_laplacian(phi, spacing, periodic):
    """Seven-point (in 3D) second-difference Laplacian, summed as face fluxes.

    Periodic axes wrap around; the other axes close with a mirrored ghost
    (ghost value = edge value), the Neumann closure of a cell-centred grid,
    whose boundary face therefore carries no flux.
    """
    out = np.zeros_like(phi)
    for ax, (h, wrap) in enumerate(zip(spacing, periodic)):
        x = np.moveaxis(phi, ax, 0)
        o = np.moveaxis(out, ax, 0)
        flux = x[1:] - x[:-1]
        flux /= h * h
        o[:-1] += flux
        o[1:] -= flux
        if wrap:
            edge = (x[0] - x[-1]) / (h * h)
            o[-1] += edge
            o[0] -= edge
    return out


def check_singular_fd2(phi, rhs, removed_mean, spacing, periodic):
    """Check a solve whose null space is the constant field.

    The left null vector is constant too, so the compatible part of ``rhs``
    is ``rhs - mean(rhs)``: the residual against it must be at roundoff, the
    reported removed mean must equal ``mean(rhs)`` and ``phi`` must have zero
    mean.
    """
    mean = float(rhs.mean())
    scale = float(np.abs(rhs).max())
    residual = fd2_laplacian(phi, spacing, periodic)
    residual -= rhs
    residual += mean
    detail = {
        "residual": float(np.abs(residual).max()) / scale,
        "removed_mean_error": abs(removed_mean - mean) / scale,
        "solution_mean": abs(float(phi.mean())) / max(float(np.abs(phi).max()), 1e-300),
    }
    ok = (
        detail["residual"] <= RESIDUAL_TOL
        and detail["removed_mean_error"] <= MEAN_TOL
        and detail["solution_mean"] <= MEAN_TOL
    )
    return ok, detail


# -- dirbox3d: pseudo-spectral, Dirichlet on a regular grid ------------------


def sine_basis(n, length):
    """Matrix S[j, k] = sin(pi (k+1) x_j / L) at the interior nodes x_j = (j+1) L/(n+1)."""
    j = np.arange(n, dtype=np.float64)
    x = (j + 1.0) * length / (n + 1)
    k = np.arange(1, n + 1, dtype=np.float64)
    return np.sin(np.pi * np.outer(x, k) / length)


def synthesize_sine_series(coeffs, bases):
    """Dense separable synthesis of a 3D sine series: one basis matrix per axis."""
    return np.einsum("ai,bj,ck,ijk->abc", *bases, coeffs, optimize=True)


def dirichlet_spectral_eigenvalues(shape, lengths):
    """-(pi^2)(k^2/Lx^2 + l^2/Ly^2 + m^2/Lz^2) for modes k, l, m >= 1."""
    lam = np.zeros(shape)
    for ax, (n, length) in enumerate(zip(shape, lengths)):
        k = np.arange(1, n + 1, dtype=np.float64)
        view = [1] * len(shape)
        view[ax] = n
        lam -= (np.pi * k / length).reshape(view) ** 2
    return lam


def check_series_solution(phi, expected):
    """Maximum error relative to the exact series solution's maximum."""
    err = float(np.abs(phi - expected).max()) / float(np.abs(expected).max())
    return err <= SERIES_TOL, {"series_error": err}


# -- tgflow2d: Taylor-Green vortex on a doubly periodic staggered grid -------


def staggered_divergence(u, w, dx, dz):
    """Cell-centred divergence from face differences, periodic on both axes."""
    return (np.roll(u, -1, axis=0) - u) / dx + (np.roll(w, -1, axis=1) - w) / dz


def modified_wavenumber_squared(h):
    """kappa^2 for the unit wavenumber under the second-order central difference."""
    return (2.0 * math.sin(h / 2.0) / h) ** 2


def check_taylor_green(u, w, u0, w0, nu, t, h):
    """Check one Taylor-Green state against its initial condition.

    * divergence from the benchmark's own face differences at roundoff,
      relative to U/h;
    * ``u`` and the kinetic energy follow exp(-2 nu kappa^2 t) and
      exp(-4 nu kappa^2 t), the exact decay under the discrete viscous
      operator (kappa^2 the modified wavenumber);
    * their gap to the continuous decay exp(-2 nu t) stays within the
      second-order discretization error 2 nu t (1 - kappa^2) (and twice that
      for the energy).
    """
    kappa2 = modified_wavenumber_squared(h)
    speed = max(float(np.abs(u).max()), float(np.abs(w).max()), 1e-300)
    div = float(np.abs(staggered_divergence(u, w, h, h)).max()) * h / speed

    u_discrete = u0 * math.exp(-2.0 * nu * kappa2 * t)
    u_continuous = u0 * math.exp(-2.0 * nu * t)
    u_scale = float(np.abs(u_discrete).max())
    ke = float(np.sum(u * u) + np.sum(w * w))
    ke0 = float(np.sum(u0 * u0) + np.sum(w0 * w0))
    ke_discrete = ke0 * math.exp(-4.0 * nu * kappa2 * t)
    ke_continuous = ke0 * math.exp(-4.0 * nu * t)
    second_order = 2.0 * nu * t * (1.0 - kappa2)

    detail = {
        "divergence": div,
        "u_error": float(np.abs(u - u_discrete).max()) / u_scale,
        "ke_error": abs(ke - ke_discrete) / ke_discrete,
        "u_error_continuous": float(np.abs(u - u_continuous).max()) / u_scale,
        "ke_error_continuous": abs(ke - ke_continuous) / ke_continuous,
        "second_order_bound": second_order,
    }
    ok = (
        div <= DIVERGENCE_TOL
        and detail["u_error"] <= DECAY_TOL
        and detail["ke_error"] <= DECAY_TOL
        and detail["u_error_continuous"] <= 1.01 * second_order + DECAY_TOL
        and detail["ke_error_continuous"] <= 2.02 * second_order + DECAY_TOL
    )
    return ok, detail
