import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fastpoisson.flow import (
    RK3_ALPHA,
    RK3_GAMMA,
    RK3_ZETA,
    ProjectionFlow,
    StaggeredVelocity,
    advective_term,
    channel,
    divergence,
    gradient,
    taylor_green,
    taylor_green_energy,
    viscous_term,
)
from fastpoisson.grid import (
    Approximation as AP,
    BoundaryCondition as BC,
    GridKind as GK,
    GridSpec,
)
from fastpoisson.solver import SolverConfig
from fastpoisson.verify import apply_discrete_laplacian


# -- stage coefficients -------------------------------------------------------


def test_rk3_coefficients_exact_rationals():
    assert RK3_ALPHA == (Fraction(8, 15), Fraction(2, 15), Fraction(1, 3))
    assert RK3_GAMMA == (Fraction(8, 15), Fraction(5, 12), Fraction(3, 4))
    assert RK3_ZETA == (Fraction(0), Fraction(-17, 60), Fraction(-5, 12))
    assert sum(RK3_ALPHA) == 1
    for k in range(3):
        assert RK3_GAMMA[k] + RK3_ZETA[k] == RK3_ALPHA[k]


# -- operators ------------------------------------------------------------------


def test_divergence_of_uniform_flow_is_zero():
    vel = StaggeredVelocity.zeros((8, 6), (2.0, 1.5), nu=0.0)
    vel.u += 3.0
    vel.w += -1.5
    assert np.abs(divergence(vel)).max() == 0.0


def test_divergence_of_linear_ramp():
    # u = s*x on faces: exact finite difference gives the slope per cell
    nx, nz, lx = 8, 4, 2.0
    s = 0.7
    vel = StaggeredVelocity.zeros((nx, nz), (lx, 1.0), nu=0.0)
    x_faces = np.arange(nx) * (lx / nx)
    vel.u[...] = s * x_faces[:, None]
    div = divergence(vel)
    # interior cells see exactly s; the wrap column sees the periodic jump
    assert np.abs(div[:-1] - s).max() <= 1e-13


def test_advective_term_uniform_flow_zero():
    vel = StaggeredVelocity.zeros((8, 8), (1.0, 1.0), nu=0.0)
    vel.u += 2.0
    vel.w += -0.5
    au, aw = advective_term(vel)
    assert np.abs(au).max() <= 1e-14
    assert np.abs(aw).max() <= 1e-14


def test_advective_term_linear_shear_hand_check():
    # u = a*z (periodic), w = 0: only d(uw)/dz-type corner products enter, all
    # zero because w = 0; tendency must vanish identically on a 4x4 grid
    vel = StaggeredVelocity.zeros((4, 4), (1.0, 1.0), nu=0.0)
    zc = (np.arange(4) + 0.5) * 0.25
    vel.u[...] = 2.0 * zc[None, :]
    au, aw = advective_term(vel)
    assert np.abs(au).max() <= 1e-14
    # w faces feel -d(uw)/dx = 0 since w = 0
    assert np.abs(aw).max() <= 1e-14


def test_advective_term_taylor_green_symmetry():
    flow = taylor_green(16)
    assert np.abs(flow.velocity.u + flow.velocity.w.T).max() == 0.0  # u = -w.T on this grid
    au, aw = advective_term(flow.velocity)
    # diagonal-swap symmetry of the vortex: the quadratic fluxes absorb the
    # component sign flip, so the tendencies are exact transposes
    np.testing.assert_allclose(au, aw.T, atol=1e-14)
    assert np.abs(au).max() > 0.1  # nontrivial check, not a zero field


def test_viscous_term_of_linear_profile_vanishes_periodic():
    vel = StaggeredVelocity.zeros((6, 6), (1.0, 1.0), nu=0.3)
    vel.u += 1.23  # constants have zero Laplacian under any closure
    lu, lw = viscous_term(vel)
    assert np.abs(lu).max() <= 1e-12
    assert np.abs(lw).max() <= 1e-12


def test_div_grad_equals_discrete_laplacian(rng):
    for z_walls in (False, True):
        vel = StaggeredVelocity.zeros((8, 6), (2.0, 1.5), nu=0.0, z_walls=z_walls)
        phi = rng.standard_normal((8, 6))
        gx, gz = gradient(vel, phi)
        lap_via_ops = divergence(
            StaggeredVelocity(gx, gz, vel.lengths, 0.0, z_walls)
        )
        zspec = (
            GridSpec(6, 1.5, BC.NEUMANN, GK.STAGGERED)
            if z_walls
            else GridSpec(6, 1.5, BC.PERIODIC, GK.REGULAR)
        )
        config = SolverConfig(
            (GridSpec(8, 2.0, BC.PERIODIC, GK.REGULAR), zspec), AP.FINITE_DIFFERENCE_2
        )
        np.testing.assert_allclose(
            lap_via_ops, apply_discrete_laplacian(config, phi), atol=1e-12
        )


# -- bit-for-bit against the rolled stencils -------------------------------------
#
# The terms take their periodic differences as slice operations with the wrap
# written at the edges.  These references are the same stencils written with
# np.roll; every entry must be the same IEEE operation on the same operands.


def _ref_divergence(vel):
    dx, dz = vel.spacing
    div = (np.roll(vel.u, -1, axis=0) - vel.u) / dx
    if vel.z_walls:
        div += (vel.w[:, 1:] - vel.w[:, :-1]) / dz
    else:
        div += (np.roll(vel.w, -1, axis=1) - vel.w) / dz
    return div


def _ref_gradient(vel, scalar):
    dx, dz = vel.spacing
    gx = (scalar - np.roll(scalar, 1, axis=0)) / dx
    if vel.z_walls:
        nx, nz = scalar.shape
        gz = np.zeros((nx, nz + 1))
        gz[:, 1:-1] = (scalar[:, 1:] - scalar[:, :-1]) / dz
    else:
        gz = (scalar - np.roll(scalar, 1, axis=1)) / dz
    return gx, gz


def _ref_corner_flux(vel):
    if vel.z_walls:
        nx, nz = vel.cells
        wc = (vel.w + np.roll(vel.w, 1, axis=0)) / 2.0
        uc = np.empty((nx, nz + 1))
        uc[:, 1:-1] = (vel.u[:, 1:] + vel.u[:, :-1]) / 2.0
        uc[:, 0] = 0.0
        uc[:, -1] = 0.0
        return uc * wc
    uc = (vel.u + np.roll(vel.u, 1, axis=1)) / 2.0
    wc = (vel.w + np.roll(vel.w, 1, axis=0)) / 2.0
    return uc * wc


def _ref_advective_term(vel):
    dx, dz = vel.spacing
    corner = _ref_corner_flux(vel)
    uc = (vel.u + np.roll(vel.u, -1, axis=0)) / 2.0
    fxx = uc * uc
    au = -(fxx - np.roll(fxx, 1, axis=0)) / dx
    if vel.z_walls:
        au -= (corner[:, 1:] - corner[:, :-1]) / dz
        wc = (vel.w[:, 1:] + vel.w[:, :-1]) / 2.0
        fzz = wc * wc
        aw = np.zeros_like(vel.w)
        aw[:, 1:-1] = -(fzz[:, 1:] - fzz[:, :-1]) / dz
        aw -= (np.roll(corner, -1, axis=0) - corner) / dx
        aw[:, 0] = 0.0
        aw[:, -1] = 0.0
    else:
        au -= (np.roll(corner, -1, axis=1) - corner) / dz
        wc = (vel.w + np.roll(vel.w, -1, axis=1)) / 2.0
        fzz = wc * wc
        aw = -(fzz - np.roll(fzz, 1, axis=1)) / dz
        aw -= (np.roll(corner, -1, axis=0) - corner) / dx
    return au, aw


def _ref_viscous_term(vel):
    dx, dz = vel.spacing
    u, w = vel.u, vel.w
    lu = (np.roll(u, -1, axis=0) - 2.0 * u + np.roll(u, 1, axis=0)) / dx ** 2
    lw = (np.roll(w, -1, axis=0) - 2.0 * w + np.roll(w, 1, axis=0)) / dx ** 2
    if vel.z_walls:
        d2z = np.empty_like(u)
        d2z[:, 1:-1] = u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]
        d2z[:, 0] = u[:, 1] - 3.0 * u[:, 0]
        d2z[:, -1] = u[:, -2] - 3.0 * u[:, -1]
        lu += d2z / dz ** 2
        d2z = np.zeros_like(w)
        d2z[:, 1:-1] = w[:, 2:] - 2.0 * w[:, 1:-1] + w[:, :-2]
        lw += d2z / dz ** 2
        lw[:, 0] = 0.0
        lw[:, -1] = 0.0
    else:
        lu += (np.roll(u, -1, axis=1) - 2.0 * u + np.roll(u, 1, axis=1)) / dz ** 2
        lw += (np.roll(w, -1, axis=1) - 2.0 * w + np.roll(w, 1, axis=1)) / dz ** 2
    return vel.nu * lu, vel.nu * lw


def _assert_bitwise_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


_EXTENTS = (1, 2, 3, 8, 17)
_LAYOUTS = [(nx, nz, walls) for nx in _EXTENTS for nz in _EXTENTS for walls in (False, True)
            if not (walls and nz == 1)]


@pytest.mark.parametrize("nx,nz,z_walls", _LAYOUTS,
                         ids=[f"{nx}x{nz}-{'walls' if w else 'periodic'}" for nx, nz, w in _LAYOUTS])
def test_terms_match_rolled_stencils_bit_for_bit(nx, nz, z_walls):
    rng = np.random.default_rng(1000 * nx + 10 * nz + z_walls)
    w_shape = (nx, nz + 1) if z_walls else (nx, nz)
    w = rng.standard_normal(w_shape)
    if z_walls:
        w[:, 0] = w[:, -1] = 0.0
    vel = StaggeredVelocity(rng.standard_normal((nx, nz)), w,
                            tuple(rng.uniform(0.5, 3.0, 2)), rng.uniform(0.01, 1.0), z_walls)
    held = (vel.u.copy(), vel.w.copy())
    scalar = rng.standard_normal((nx, nz))

    _assert_bitwise_equal(divergence(vel), _ref_divergence(vel))
    for got, want in zip(gradient(vel, scalar), _ref_gradient(vel, scalar)):
        _assert_bitwise_equal(got, want)
    for got, want in zip(advective_term(vel), _ref_advective_term(vel)):
        _assert_bitwise_equal(got, want)
    for got, want in zip(viscous_term(vel), _ref_viscous_term(vel)):
        _assert_bitwise_equal(got, want)
    # the terms only read the state
    _assert_bitwise_equal(vel.u, held[0])
    _assert_bitwise_equal(vel.w, held[1])


# -- a whole step against the rolled stencils -----------------------------------
#
# The step folds the stage scalings into fewer passes than the scheme's
# textbook form: the projection solves the unscaled divergence and scales phi
# once, and dt rides on the stage weights.  This reference takes the step in
# the unfolded order, from the rolled stencils above and the flow's own plan.


def _ref_rk3_step(flow, u, w, p, dt):
    vel = flow.velocity
    fx, fz = flow.forcing
    prev_hu = prev_hw = None
    for alpha, gamma, zeta in zip(*(map(float, c) for c in (RK3_ALPHA, RK3_GAMMA, RK3_ZETA))):
        state = StaggeredVelocity(u, w, vel.lengths, vel.nu, vel.z_walls)
        au, aw = _ref_advective_term(state)
        vu, vw = _ref_viscous_term(state)
        hu, hw = au + vu + fx, aw + vw + fz
        if vel.z_walls:
            hw[:, 0] = hw[:, -1] = 0.0
        gx, gz = _ref_gradient(state, p)
        ustar = (-alpha * gx + gamma * hu) * dt + u
        wstar = (-alpha * gz + gamma * hw) * dt + w
        if zeta != 0.0:
            ustar += (dt * zeta) * prev_hu
            wstar += (dt * zeta) * prev_hw
        star = StaggeredVelocity(ustar, wstar, vel.lengths, vel.nu, vel.z_walls)
        phi, _ = flow.poisson.solve(_ref_divergence(star) / (alpha * dt))
        gx, gz = _ref_gradient(state, phi)
        u, w, p = ustar - (alpha * dt) * gx, wstar - (alpha * dt) * gz, p + phi
        prev_hu, prev_hw = hu, hw
    return u, w, p


def _perturbed_channel():
    # the channel spun up from rest keeps w and p at zero; a seeded
    # perturbation makes every field of the comparison carry information
    flow = channel((12, 8), (2.0, 1.0), 0.05, 1.0)
    rng = np.random.default_rng(7)
    flow.velocity.u = 0.1 * rng.standard_normal(flow.velocity.u.shape)
    w = 0.1 * rng.standard_normal(flow.velocity.w.shape)
    w[:, 0] = w[:, -1] = 0.0
    flow.velocity.w = w
    return flow


@pytest.mark.parametrize("make", [lambda: taylor_green(16), _perturbed_channel],
                         ids=["taylor-green-16", "channel-12x8"])
def test_step_matches_unfolded_reference_step(make):
    flow = make()
    u, w, p = flow.velocity.u.copy(), flow.velocity.w.copy(), flow.pressure.p.copy()
    for step in range(5):
        flow.rk3_step(0.01)
        u, w, p = _ref_rk3_step(flow, u, w, p, 0.01)
        for name, got, want in (("u", flow.velocity.u, u), ("w", flow.velocity.w, w),
                                ("p", flow.pressure.p, p)):
            scale = np.abs(want).max()
            assert scale > 0.0, (name, step)
            assert np.abs(got - want).max() <= 1e-12 * scale, (name, step)


def test_walls_need_two_cells_between_them():
    with pytest.raises(ValueError, match="two cells"):
        StaggeredVelocity.zeros((4, 1), (1.0, 1.0), nu=0.1, z_walls=True)
    StaggeredVelocity.zeros((4, 1), (1.0, 1.0), nu=0.1)  # periodic z is fine


# -- stepping -------------------------------------------------------------------


def test_zero_state_is_fixed_point():
    flow = channel((8, 8), (1.0, 1.0), nu=0.02)
    for _ in range(4):
        flow.rk3_step(0.01)
    assert np.all(flow.velocity.u == 0.0)
    assert np.all(flow.velocity.w == 0.0)
    assert np.all(flow.pressure.p == 0.0)


def test_projection_divergence_after_every_stage(stage_divergences):
    flow = taylor_green(32, nu=0.01)
    bound = 1e-10 * flow.velocity_scale() / flow.velocity.spacing[0]
    for _ in range(3):
        stages = stage_divergences(flow, 0.01)
        assert len(stages) == 3
        assert max(stages) <= bound


@pytest.mark.parametrize("make", [lambda: taylor_green(32, nu=0.01),
                                  lambda: channel((12, 8), (2.0, 1.0), nu=0.05, forcing_x=1.0)],
                         ids=["taylor-green", "channel"])
def test_poisson_seconds_lie_inside_the_step(make):
    flow = make()
    assert flow.poisson_seconds == 0.0
    for _ in range(5):
        t0 = time.perf_counter()
        flow.rk3_step(0.005)
        wall = time.perf_counter() - t0
        assert 0.0 < flow.poisson_seconds <= wall


def test_projection_idempotent_on_divergence_free_field():
    # a step with dt -> tiny applied to an already projected field keeps its
    # divergence at roundoff; directly check the projector by feeding the
    # Poisson correction a solenoidal field
    flow = taylor_green(16, nu=0.0)
    before = flow.max_divergence()
    assert before <= 1e-12
    u0, w0 = flow.velocity.u.copy(), flow.velocity.w.copy()
    rhs = divergence(flow.velocity)
    phi, _ = flow.poisson.solve(rhs)
    gx, gz = gradient(flow.velocity, phi)
    u1, w1 = u0 - gx, w0 - gz
    scale = max(np.abs(u0).max(), np.abs(w0).max())
    assert np.abs(u1 - u0).max() <= 1e-12 * scale
    assert np.abs(w1 - w0).max() <= 1e-12 * scale


def test_momentum_conserved_fully_periodic():
    flow = taylor_green(16, nu=0.05)
    flow.velocity.u += 0.4
    flow.velocity.w -= 0.2
    mu0, mw0 = flow.velocity.u.mean(), flow.velocity.w.mean()
    for _ in range(8):
        flow.rk3_step(0.01)
    assert flow.velocity.u.mean() == pytest.approx(mu0, abs=1e-13)
    assert flow.velocity.w.mean() == pytest.approx(mw0, abs=1e-13)


def test_taylor_green_energy_decay_small_grid():
    # full-resolution acceptance run lives in test_acceptance; this guards the
    # decay law at modest cost (32^2 carries ~1e-4 spatial error)
    nu = 0.01
    flow = taylor_green(32, nu=nu)
    ke0 = flow.kinetic_energy()
    for _ in range(50):
        flow.rk3_step(0.01)
    expected = taylor_green_energy(ke0, nu, flow.time)
    assert abs(flow.kinetic_energy() - expected) / expected <= 2e-3


def test_kinetic_energy_monotone_decay_unforced():
    flow = taylor_green(16, nu=0.02)
    ke = [flow.kinetic_energy()]
    for _ in range(10):
        flow.rk3_step(0.01)
        ke.append(flow.kinetic_energy())
    assert all(b < a for a, b in zip(ke, ke[1:]))


def test_channel_forcing_spins_up_divergence_free_flow():
    flow = channel((12, 8), (2.0, 1.0), nu=0.05, forcing_x=1.0)
    for _ in range(10):
        flow.rk3_step(0.005)
    assert np.abs(flow.velocity.u).max() > 0.0
    assert np.all(flow.velocity.w[:, 0] == 0.0)
    assert np.all(flow.velocity.w[:, -1] == 0.0)
    assert flow.max_divergence() <= 1e-10 * flow.velocity_scale() / flow.velocity.spacing[0]


def test_nonfinite_detection():
    flow = taylor_green(8, nu=0.0)
    flow.velocity.u[0, 0] = np.inf
    with pytest.raises(FloatingPointError, match="entering stage 1 of step 1"):
        flow.rk3_step(0.01)


def test_nonfinite_predictor_detected():
    vel = StaggeredVelocity.zeros((8, 8), (1.0, 1.0), nu=0.1)
    flow = ProjectionFlow(vel, forcing=(np.inf, 0.0))
    with pytest.raises(FloatingPointError, match="predictor velocity in stage 1 of step 1"):
        flow.rk3_step(0.01)


@pytest.mark.parametrize("make", [lambda: taylor_green(16),
                                  lambda: channel((12, 8), (2.0, 1.0), 0.05, 1.0)],
                         ids=["taylor-green", "channel"])
def test_step_leaves_held_state_arrays_unchanged(make):
    flow = make()
    flow.rk3_step(0.01)
    held = (flow.velocity.u, flow.velocity.w, flow.pressure.p)
    before = [a.copy() for a in held]
    flow.rk3_step(0.01)
    for array, copy in zip(held, before):
        np.testing.assert_array_equal(array, copy)
    now = (flow.velocity.u, flow.velocity.w, flow.pressure.p)
    assert not any(np.shares_memory(a, b) for a in held for b in now)


def warm_step_memory(flow, dt=0.01):
    """Allocation peak of a warm step, and the bytes it leaves allocated;
    tracemalloc counts every numpy array, so both are deterministic."""
    flow.rk3_step(dt)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        flow.rk3_step(dt)
        current, peak = tracemalloc.get_traced_memory()
        return peak - base, current - base
    finally:
        tracemalloc.stop()


# Python objects a step keeps besides its arrays (array headers, the
# flow's new float attributes); they are not workspace
OBJECT_BYTES = 4096


@pytest.mark.parametrize("make,fields", [
    (lambda: taylor_green(64), 11.7),
    (lambda: taylor_green(256), 11.6),
    (lambda: channel((64, 32), (2.0, 1.0), 0.05, 1.0), 16.1),
    (lambda: channel((256, 128), (2.0, 1.0), 0.05, 1.0), 13.5),
], ids=["taylor-green-64", "taylor-green-256", "channel-64x32", "channel-256x128"])
def test_step_memory_bound(make, fields):
    # a warm step's allocation peak in units of the u field: about eleven
    # fields on the periodic grid (the state, two stages' tendencies and a
    # term's four working arrays), a little more with walls, where w has an
    # extra row of faces and the terms cannot share u's scratch; the bounds
    # are the measured peaks plus about 5 %.  What the step leaves allocated
    # is the new state alone: the flow keeps no workspace.
    flow = make()
    peak, kept = warm_step_memory(flow)
    assert peak <= fields * flow.velocity.u.nbytes, peak / flow.velocity.u.nbytes
    state = flow.velocity.u.nbytes + flow.velocity.w.nbytes + flow.pressure.p.nbytes
    assert state <= kept <= state + OBJECT_BYTES, (kept, state)


def test_step_rejects_bad_dt():
    flow = taylor_green(8)
    with pytest.raises(ValueError):
        flow.rk3_step(0.0)


def test_velocity_shape_validation():
    with pytest.raises(ValueError):
        StaggeredVelocity(np.zeros((4, 4)), np.zeros((4, 4)), (1.0, 1.0), 0.1, z_walls=True)
    with pytest.raises(ValueError):
        StaggeredVelocity(np.zeros((4, 4)), np.zeros((4, 4)), (1.0, 1.0), -0.1)


def test_cfl_advisory_scales_with_dt():
    flow = taylor_green(16)
    assert flow.cfl_advisory(0.02) == pytest.approx(2 * flow.cfl_advisory(0.01))
