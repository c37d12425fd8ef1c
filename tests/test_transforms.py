import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import fft as sfft

from fastpoisson.grid import (
    Approximation as AP,
    BoundaryCondition as BC,
    ConfigurationError,
    GridKind as GK,
    GridSpec,
)
from fastpoisson.solver import SolverConfig, SolverPlan
from fastpoisson.transforms import (
    _MATRIX_CHUNK_LINES,
    TransformKind as TK,
    TransformPlan,
    _chunk_shape,
    _split_at,
    largest_prime_factor,
    naive_transform,
    transform_pair_for,
)

from conftest import ROWS, ROW_IDS

REAL_KINDS = [TK.DST1, TK.DST2, TK.DST3, TK.DCT1, TK.DCT2, TK.DCT3]


# -- pair selection -----------------------------------------------------------


def test_pair_neumann_staggered():
    pair = transform_pair_for(BC.NEUMANN, GK.STAGGERED)
    assert (pair.forward, pair.backward) == (TK.DCT2, TK.DCT3)
    assert pair.backward_scale(6) == 1.0 / 12.0


def test_pair_dirichlet_regular():
    pair = transform_pair_for(BC.DIRICHLET, GK.REGULAR)
    assert (pair.forward, pair.backward) == (TK.DST1, TK.DST1)
    assert pair.backward_scale(5) == 1.0 / 12.0


def test_pair_table_complete():
    expected = {
        (BC.PERIODIC, GK.REGULAR): (TK.DFT, TK.IDFT),
        (BC.DIRICHLET, GK.REGULAR): (TK.DST1, TK.DST1),
        (BC.DIRICHLET, GK.STAGGERED): (TK.DST2, TK.DST3),
        (BC.NEUMANN, GK.REGULAR): (TK.DCT1, TK.DCT1),
        (BC.NEUMANN, GK.STAGGERED): (TK.DCT2, TK.DCT3),
    }
    for (bc, kind), kinds in expected.items():
        pair = transform_pair_for(bc, kind)
        assert (pair.forward, pair.backward) == kinds


def test_pair_periodic_staggered_rejected():
    with pytest.raises(ConfigurationError):
        transform_pair_for(BC.PERIODIC, GK.STAGGERED)


# -- fixed values -------------------------------------------------------------


def test_dst1_unit_vector():
    out = TransformPlan(TK.DST1, 2).execute_real(np.array([1.0, 0.0]))
    np.testing.assert_allclose(out, [math.sqrt(3.0), math.sqrt(3.0)], atol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 8, 17])
def test_dct2_of_ones(n):
    out = TransformPlan(TK.DCT2, n).execute_real(np.ones(n))
    assert out[0] == pytest.approx(2.0 * n, abs=1e-12)
    assert np.abs(out[1:]).max() <= 1e-12 * n
    # the naive oracle agrees that the half-integer cosine sums telescope away
    np.testing.assert_allclose(naive_transform(TK.DCT2, np.ones(n)), out, atol=1e-11 * n)


def test_dst1_zeros():
    out = TransformPlan(TK.DST1, 5).execute_real(np.zeros(5))
    assert np.all(out == 0.0)


def test_dst3_two_point():
    out = naive_transform(TK.DST3, np.array([1.0, 1.0]))
    np.testing.assert_allclose(out, [1.0 + math.sqrt(2.0), -1.0 + math.sqrt(2.0)], atol=1e-14)
    np.testing.assert_allclose(TransformPlan(TK.DST3, 2).execute_real(np.array([1.0, 1.0])), out, atol=1e-14)


def test_dct1_two_point():
    a, b = 1.75, -0.5
    out = naive_transform(TK.DCT1, np.array([a, b]))
    np.testing.assert_allclose(out, [a + b, a - b], atol=1e-14)


def test_dft_constant_vector():
    # the periodic forward leg is unnormalized: the constant lands at k = 0, times n
    f = np.full(6, 3.0)
    for out in (naive_transform(TK.DFT, f), sfft.rfft(f)):
        assert out[0] == pytest.approx(18.0, abs=1e-13)
        assert np.abs(out[1:]).max() <= 1e-13


def test_dft_two_point():
    f = np.array([1.0, 0.0])
    np.testing.assert_allclose(naive_transform(TK.DFT, f), [1.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(sfft.rfft(f), [1.0, 1.0], atol=1e-15)
    # the 1/n sits on the inverse
    np.testing.assert_allclose(naive_transform(TK.IDFT, np.array([1.0, 1.0])), f, atol=1e-15)


@pytest.mark.parametrize("n", [3, 4, 8])
def test_idft_inverts_dft(n, rng):
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    back = naive_transform(TK.IDFT, naive_transform(TK.DFT, f))
    np.testing.assert_allclose(back, f, atol=1e-13 * n)
    # rfft/irfft, the periodic legs of a solve, follow the same convention
    real = f.real
    spectrum = naive_transform(TK.DFT, real)
    np.testing.assert_allclose(sfft.rfft(real), spectrum[: n // 2 + 1], atol=1e-13 * n)
    np.testing.assert_allclose(sfft.irfft(spectrum[: n // 2 + 1], n), real, atol=1e-13 * n)


# -- properties ---------------------------------------------------------------


@pytest.mark.parametrize("bc,kind", ROWS, ids=ROW_IDS)
@pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 17, 31, 64, 127, 257])
def test_round_trip(bc, kind, n, rng):
    pair = transform_pair_for(bc, kind)
    f = rng.standard_normal(n)
    if pair.forward is TK.DFT:
        back = sfft.irfft(sfft.rfft(f), n) * pair.backward_scale(n)
    else:
        fwd, bwd = TransformPlan(pair.forward, n), TransformPlan(pair.backward, n)
        back = bwd.execute_real(fwd.execute_real(f)) * pair.backward_scale(n)
    assert np.abs(back - f).max() <= 1e-12 * n * np.abs(f).max()


@pytest.mark.parametrize("kind", REAL_KINDS, ids=lambda k: k.value)
def test_fast_matches_naive(kind, rng):
    lo = 2
    for n in range(lo, 65):
        f = rng.standard_normal(n)
        fast = TransformPlan(kind, n).execute_real(f)
        ref = naive_transform(kind, f)
        assert np.abs(fast - ref).max() <= 1e-11 * n * np.abs(f).max(), (kind, n)


@pytest.mark.parametrize("kind", REAL_KINDS + [TK.DFT], ids=lambda k: k.value)
def test_linearity(kind, rng):
    n = 12
    f = rng.standard_normal(n)
    g = rng.standard_normal(n)
    a, b = 1.3, -0.7
    transform = sfft.rfft if kind is TK.DFT else TransformPlan(kind, n).execute_real
    lhs = transform(a * f + b * g)
    rhs = a * transform(f) + b * transform(g)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12 * n)


@pytest.mark.parametrize("bc,kind", ROWS, ids=ROW_IDS)
def test_sampled_basis_function_hits_single_index(bc, kind):
    # bridge to the eigenvalue tables: sampling the continuous basis function
    # and transforming forward concentrates all weight on one index
    from fastpoisson.verify import basis_vector

    n, L = 12, 2.5
    spec = GridSpec(n, L, bc, kind)
    pair = transform_pair_for(bc, kind)
    # a periodic basis vector is complex: fft, whose real-input half is rfft
    forward = sfft.fft if pair.forward is TK.DFT else TransformPlan(pair.forward, n).execute_real
    for k in range(n):
        coeffs = np.abs(forward(basis_vector(spec, k)))
        peak = coeffs[k]
        coeffs[k] = 0.0
        assert coeffs.max() <= 1e-10 * max(peak, 1.0)


def test_plan_length_mismatch():
    plan = TransformPlan(TK.DST2, 8)
    with pytest.raises(ValueError):
        plan.execute_real(np.zeros(9))


def test_dct1_needs_two_points():
    with pytest.raises(ConfigurationError):
        TransformPlan(TK.DCT1, 1)
    with pytest.raises(ValueError):
        naive_transform(TK.DCT1, np.zeros(1))


def test_single_point_lengths():
    # staggered rows stay usable on degenerate one-point axes
    assert naive_transform(TK.DST3, np.array([2.0]))[0] == 2.0
    assert TransformPlan(TK.DST2, 1).execute_real(np.array([3.0]))[0] == pytest.approx(6.0)


def test_kind_dispatch_guards():
    # a plan runs the real kinds only; a periodic axis goes through pocketfft's
    # rfftn/irfftn at its own length, whatever its prime factors
    for kind in (TK.DFT, TK.IDFT):
        with pytest.raises(ConfigurationError):
            TransformPlan(kind, 4)
    config = SolverConfig((GridSpec(53, 1.0, BC.PERIODIC, GK.REGULAR),),
                          AP.FINITE_DIFFERENCE_2)
    (axis,) = SolverPlan(config).describe().axes
    assert (axis.fft_length, axis.largest_prime, axis.method) == (53, 53, "fft")


def test_plan_applies_along_declared_axis(rng):
    f = rng.standard_normal((3, 5))
    plan_rows = TransformPlan(TK.DCT2, 5, axis=1)
    expected = np.stack([naive_transform(TK.DCT2, row) for row in f])
    np.testing.assert_allclose(plan_rows.execute_real(f), expected, atol=1e-12)


@pytest.mark.parametrize("kind", REAL_KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("axis", [0, -1])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_execute_real_overwrite_x(kind, axis, dtype, rng):
    f = rng.standard_normal((5, 7)).astype(dtype)
    plan = TransformPlan(kind, f.shape[axis], axis=axis)
    before = f.copy()
    expected = plan.execute_real(f)
    np.testing.assert_array_equal(f, before)  # the default leaves the input alone
    got = plan.execute_real(f, overwrite_x=True)
    assert got.dtype == dtype
    np.testing.assert_array_equal(got, expected)
    assert np.shares_memory(got, f)  # transformed in place, nothing allocated


# -- method: dense matrix product or pocketfft ----------------------------------


@pytest.mark.parametrize("kind,n,length,method", [
    (TK.DST1, 52, 106, "matrix"),  # 2 * 53
    (TK.DCT2, 52, 52, "matrix"),  # 4 * 13
    (TK.DCT2, 64, 64, "fft"),  # 2^6: L s(L) = 768 < n^2 / 5 = 819.2
    (TK.DCT2, 112, 112, "fft"),  # 2^4 * 7
    (TK.DST1, 512, 1026, "fft"),  # 2 * 513 = 2 * 27 * 19, and n > 256
    (TK.DST1, 64, 130, "matrix"),  # 2 * 5 * 13
    (TK.DST1, 256, 514, "matrix"),  # 2 * 257
    (TK.DCT1, 128, 254, "matrix"),  # 2 * 127
    (TK.DCT1, 129, 256, "matrix"),  # 2^8: 4096 >= 3328.2
    (TK.DCT2, 60, 60, "matrix"),  # 2^2 * 3 * 5: 720 >= 720
    (TK.DCT2, 72, 72, "fft"),  # 2^3 * 3^2: 864 < 1036.8
    (TK.DCT1, 256, 510, "matrix"),  # 2 * 3 * 5 * 17: 13770 >= 13107.2
    # L s(L) < n^2 / 5 although L has a prime factor of 13 or more
    (TK.DCT2, 208, 208, "fft"),  # 16 * 13
    (TK.DCT2, 104, 104, "fft"),  # 8 * 13
    # short transforms, whatever the size of L's prime factors
    (TK.DST1, 168, 338, "matrix"),  # 2 * 13^2
    (TK.DST3, 13, 13, "matrix"),
    (TK.DST2, 11, 11, "matrix"),
    (TK.DST1, 32, 66, "matrix"),  # 2 * 3 * 11
    (TK.DCT1, 16, 30, "matrix"),  # 2 * 3 * 5
    (TK.DCT1, 64, 126, "matrix"),  # 2 * 3^2 * 7
    (TK.DCT2, 32, 32, "matrix"),  # 2^5
    (TK.DST1, 255, 512, "fft"),  # 2^9
], ids=lambda v: getattr(v, "value", v))
def test_method_selection(kind, n, length, method):
    plan = TransformPlan(kind, n)
    assert (plan.fft_length, plan.method) == (length, method)


@pytest.mark.parametrize("m,largest", [(1, 1), (2, 2), (13, 13), (64, 2), (106, 53),
                                       (258, 43), (1026, 19), (2 * 3 * 5 * 7 * 11, 11)])
def test_largest_prime_factor(m, largest):
    assert largest_prime_factor(m) == largest


def test_matrix_is_read_only_shared_and_in_both_precisions():
    plan = TransformPlan(TK.DST1, 52)
    assert set(plan._matrices) == {np.dtype(np.float64), np.dtype(np.float32)}
    for matrix in plan._matrices.values():
        assert matrix.shape == (52, 52) and not matrix.flags.writeable
    other = TransformPlan(TK.DST1, 52, axis=0)
    assert other._matrices[np.dtype(np.float64)] is plan._matrices[np.dtype(np.float64)]
    assert TransformPlan(TK.DST1, 52) == plan  # the matrices do not enter equality


@st.composite
def real_transform_cases(draw):
    """A real kind, a length 1-80, a 1-3D shape with the transformed axis at
    any position (negative too), a working dtype and the overwrite flag."""
    kind = draw(st.sampled_from(REAL_KINDS))
    n = draw(st.integers(2 if kind is TK.DCT1 else 1, 80))
    ndim = draw(st.integers(1, 3))
    axis = draw(st.integers(-ndim, ndim - 1))
    shape = [draw(st.integers(1, 4)) for _ in range(ndim)]
    shape[axis] = n
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    return kind, tuple(shape), axis, dtype, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(real_transform_cases())
def test_property_execute_real_matches_naive(case):
    kind, shape, axis, dtype, overwrite, seed = case
    n = shape[axis]
    x = np.random.default_rng(seed).standard_normal(shape).astype(dtype)
    before = x.copy()
    plan = TransformPlan(kind, n, axis=axis)
    got = plan.execute_real(x, overwrite_x=overwrite)
    assert got.shape == shape and got.dtype == dtype

    def naive(a):
        return np.apply_along_axis(lambda v: naive_transform(kind, v), axis, a)

    ref = naive(before.astype(np.float64))
    tol = (1e-11 if dtype is np.float64 else 1e-5) * n * max(np.abs(before).max(), 1.0)
    assert np.abs(got - ref).max() <= tol
    if not overwrite:
        np.testing.assert_array_equal(x, before)
    elif plan.method == "matrix":
        assert np.shares_memory(got, x)  # transformed in place

    # the result dtype is pocketfft's for float, integer and complex input
    func, typ = {TK.DST1: (sfft.dst, 1), TK.DST2: (sfft.dst, 2), TK.DST3: (sfft.dst, 3),
                 TK.DCT1: (sfft.dct, 1), TK.DCT2: (sfft.dct, 2), TK.DCT3: (sfft.dct, 3)}[kind]
    as_int = np.rint(4 * before).astype(np.int32)
    as_complex = before + 1j * before[::-1].copy()
    for probe in (before, as_int, as_complex):
        out = plan.execute_real(probe)
        assert out.dtype == func(probe, type=typ, axis=axis).dtype, probe.dtype
    np.testing.assert_allclose(plan.execute_real(as_int), naive(as_int.astype(np.float64)),
                               rtol=0, atol=1e-11 * n * max(np.abs(as_int).max(), 1))


def test_matrix_method_on_strided_and_read_only_input(rng):
    base = rng.standard_normal((52, 10))
    plan = TransformPlan(TK.DST1, 52, axis=0)
    expected = sfft.dst(base[:, ::2], type=1, axis=0)
    view = base[:, ::2]  # not contiguous: transformed into a fresh array
    got = plan.execute_real(view, overwrite_x=True)
    np.testing.assert_allclose(got, expected, atol=1e-12 * np.abs(expected).max())
    frozen = base.copy()
    frozen.flags.writeable = False
    before = frozen.copy()
    got = plan.execute_real(frozen, overwrite_x=True)
    np.testing.assert_array_equal(frozen, before)
    np.testing.assert_allclose(got, sfft.dst(before, type=1, axis=0),
                               atol=1e-12 * np.abs(got).max())


LINES = _MATRIX_CHUNK_LINES


# shapes derived from the chunk rule so that each loop of the product ends on a
# partial chunk: rows of the last axis, column blocks of a leading axis (over
# one and over several leading slabs), and stacks over the leading index
@pytest.mark.parametrize("shape,axis", [
    ((52, 2, LINES // 2 + 3), 0),
    ((3, 52, LINES + 5), 1),
    ((2, LINES // 2 + 3, 52), 2),
    ((5, 52, LINES // 3 + 1), 1),
], ids=["axis0", "axis1", "axis2", "stacked"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_matrix_chunks_cover_every_line(shape, axis, dtype, rng):
    before, n, after = _split_at(shape, axis)
    chunk = _chunk_shape(before, n, after)
    assert math.prod(chunk) <= LINES * n
    if after == 1:
        loop, step = before, chunk[0]  # row chunks
    elif chunk[2] < after:
        loop, step = after, chunk[2]  # column blocks
    else:
        loop, step = before, chunk[0]  # stacks of whole slabs
    assert step < loop and loop % step, (loop, step)  # several chunks, the last partial

    x = rng.standard_normal(shape).astype(dtype)
    plan = TransformPlan(TK.DST1, 52, axis=axis)
    assert plan.method == "matrix"
    assert plan.temporary_bytes(shape, dtype) == math.prod(chunk) * x.itemsize
    expected = sfft.dst(x.astype(np.float64), type=1, axis=axis)
    got = plan.execute_real(x, overwrite_x=True)
    tol = 1e-12 if dtype is np.float64 else 1e-5
    assert np.abs(got - expected).max() <= tol * np.abs(expected).max()


def test_matrix_temporary_holds_chunk_lines():
    # LINES lines per chunk, fewer when the array has fewer; at the largest
    # length the product takes, the temporary stays well under 1 MiB
    plan = TransformPlan(TK.DST1, 256, axis=1)
    assert plan.method == "matrix"
    assert plan.temporary_bytes((256, 256, 256), np.float64) == LINES * 256 * 8 <= 1 << 20
    assert plan.temporary_bytes((3, 256, 7), np.float32) == 3 * 256 * 7 * 4
    assert plan.temporary_bytes((0, 256, 7), np.float64) == 0
    assert plan.temporary_bytes((3, 256, 7), np.int32) == 0  # int input goes to pocketfft
    assert TransformPlan(TK.DCT2, 64, axis=1).temporary_bytes((64, 64, 64), np.float64) == 0
