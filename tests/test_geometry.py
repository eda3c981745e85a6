import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vizsample import geometry
from vizsample.errors import ZeroExtentError
from vizsample.geometry import (
    KernelParams,
    default_epsilon,
    gauss,
    kappa,
    kappa_tilde,
    make_params,
    row_blocks,
    sq_distances,
)
from vizsample.interchange import ResponsibilitySet
from vizsample.quality import point_losses, surrogate_objective

UNIT = make_params(1.0)

coords = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)
points = st.tuples(coords, coords)


def test_kappa_identity():
    for eps in (0.1, 1.0, 42.0):
        assert kappa((3.5, -2.0), (3.5, -2.0), make_params(eps)) == 1.0


def test_kappa_at_four_epsilon_matches_quoted_value():
    # quoted anchor for the locality truncation: ~1.12e-7 at distance 4*eps
    v = kappa((0, 0), (4, 0), UNIT)
    assert v == pytest.approx(1.12e-7, rel=0.01)
    assert v == pytest.approx(math.exp(-16.0), rel=1e-12)


def test_kappa_closed_form():
    assert kappa((0, 0), (1, 0), UNIT) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_kappa_tilde_identity_and_closed_forms():
    assert kappa_tilde((2, 2), (2, 2), UNIT) == 1.0
    assert kappa_tilde((0, 0), (1, 0), UNIT) == pytest.approx(math.exp(-0.5), rel=1e-12)
    assert kappa_tilde((0, 0), (2, 0), UNIT) == pytest.approx(math.exp(-2.0), rel=1e-12)


@given(points, points)
def test_kernels_symmetric(a, b):
    assert kappa(a, b, UNIT) == kappa(b, a, UNIT)
    assert kappa_tilde(a, b, UNIT) == kappa_tilde(b, a, UNIT)


@given(points, points)
def test_kernel_range_and_sqrt_relation(a, b):
    k = kappa(a, b, UNIT)
    kt = kappa_tilde(a, b, UNIT)
    assert 0.0 <= k <= 1.0
    assert 0.0 <= kt <= 1.0
    assert kt == pytest.approx(math.sqrt(k), abs=1e-12)


@given(
    st.floats(min_value=0, max_value=5),
    st.floats(min_value=0.01, max_value=5),
    st.floats(min_value=0.01, max_value=5),
)
def test_kappa_tilde_strictly_decreasing_in_distance(d0, gap1, gap2):
    ds = [d0, d0 + gap1, d0 + gap1 + gap2]
    vals = [kappa_tilde((0, 0), (d, 0), UNIT) for d in ds]
    assert vals[0] > vals[1] > vals[2]


def test_default_epsilon_three_four_five():
    pts = np.array([[0, 0], [3, 0], [0, 4], [3, 4]], dtype=float)
    p = default_epsilon(pts)
    assert p.epsilon == pytest.approx(0.05, rel=1e-12)
    assert p.cutoff_radius == pytest.approx(0.2, rel=1e-12)


def test_default_epsilon_unit_square():
    pts = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)
    assert default_epsilon(pts).epsilon == pytest.approx(math.sqrt(2) / 100, rel=1e-12)


def test_default_epsilon_zero_extent():
    with pytest.raises(ZeroExtentError):
        default_epsilon(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_kernel_params_validation():
    with pytest.raises(ValueError):
        KernelParams(epsilon=0.0, cutoff_radius=1.0)
    with pytest.raises(ValueError):
        KernelParams(epsilon=1.0, cutoff_radius=0.5)
    with pytest.raises(ValueError):
        KernelParams(epsilon=float("nan"), cutoff_radius=1.0)


@given(
    st.lists(points, min_size=1, max_size=6),
    st.lists(points, min_size=0, max_size=6),
    st.floats(min_value=0.5, max_value=50),
    st.one_of(st.none(), st.floats(min_value=0, max_value=100)),
)
def test_gauss_matches_scalar_double_loop(a, b, eps, cutoff):
    inv = 1.0 / (2.0 * eps**2)
    cutoff2 = None if cutoff is None else cutoff**2
    want = np.zeros((len(a), len(b)))
    for i, (ax, ay) in enumerate(a):
        for j, (bx, by) in enumerate(b):
            dx, dy = ax - bx, ay - by
            d2 = dx * dx + dy * dy
            if cutoff2 is None or d2 <= cutoff2:
                want[i, j] = math.exp(-d2 * inv)
    A = np.array(a, dtype=float)
    B = np.array(b, dtype=float).reshape(-1, 2)
    got = gauss(sq_distances(A, B), inv, cutoff2)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
    # a single point drops its row axis and gives the same row
    assert np.array_equal(gauss(sq_distances(A[0], B), inv, cutoff2), got[0])


# exponents d2 * inv (as positive numbers) where the kernel changes regime:
# numpy's fast exp ends near 708, exp rounds to 0.0 from 745.1332191019411
# on, and the fast path zeroes from EXP_ZERO_BELOW on
_EDGE_EXPONENTS = [-geometry.FAST_EXP_FLOOR, 708.0, 745.1332191019411, -geometry.EXP_ZERO_BELOW]


@pytest.mark.parametrize("cut_exponent", [None, 500.0, 720.0, 745.0, 760.0, 2000.0])
def test_gauss_cutoff_clamp_is_bitwise_exact(cut_exponent):
    # exponents d2 * inv from 0 to 1500, through the subnormal band
    # (-745, -708) and below it, plus lanes at and next to the fast-path
    # bounds, the cutoff and -inf; blocks above and below FAST_EXP_MIN_CELLS,
    # single-point (1-D) rows and empty rows
    rng = np.random.default_rng(13)
    shapes = [(64, 100), (64, 50), (6000,), (50,), (0,), (64, 0)]
    assert any(math.prod(sh) >= geometry.FAST_EXP_MIN_CELLS for sh in shapes)
    for inv in (0.37, 1.0):
        cutoff2 = None if cut_exponent is None else cut_exponent / inv
        edges = [np.inf, 0.0]
        for e in _EDGE_EXPONENTS + ([] if cutoff2 is None else [cut_exponent]):
            edges += [np.nextafter(e / inv, 0), e / inv, np.nextafter(e / inv, np.inf)]
        for shape in shapes:
            d2 = rng.uniform(0, 1500 / inv, size=shape)
            flat = d2.reshape(-1)
            flat[: len(edges)] = edges[: flat.size]
            want = np.exp(d2 * -inv)
            if cutoff2 is not None:
                want[d2 > cutoff2] = 0.0
            got = gauss(d2, inv, cutoff2)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (inv, shape)
            if flat.size >= 1000:
                e = flat * inv
                assert ((e > 708) & (e < 745)).any() and (e > 745.2).any()


@pytest.mark.parametrize("cutoff", [None, 0.7, 40.0])
@pytest.mark.parametrize("upper", [False, True])
def test_kernel_blocks_match_gauss_per_block(monkeypatch, cutoff, upper):
    # the reused block buffers hold bitwise what gauss(sq_distances(...))
    # gives, the last (partial) block included; ``upper`` zeroes j <= i
    rng = np.random.default_rng(21)
    a = rng.uniform(0, 30, size=(203, 2))
    b = a if upper else rng.uniform(0, 30, size=(97, 2))
    inv = 0.5
    cutoff2 = None if cutoff is None else cutoff**2
    monkeypatch.setattr(geometry, "BLOCK_CELLS", 4 * geometry.FAST_EXP_MIN_CELLS // 3)
    blocks = list(geometry.kernel_blocks(a, b, inv, cutoff2, upper=upper))
    assert len(blocks) > 2 and blocks[-1][0].stop - blocks[-1][0].start < blocks[0][0].stop
    for s, w in geometry.kernel_blocks(a, b, inv, cutoff2, upper=upper):
        want = gauss(sq_distances(a[s], b[s.start :] if upper else b), inv, cutoff2)
        if upper:
            want = np.triu(want, 1)
        assert w.shape == want.shape
        assert w.tobytes() == want.tobytes()


def _pair_results(pts, xs, params):
    rsp = {}
    for mode in ("es", "esloc"):
        state = ResponsibilitySet(len(pts), params, mode)
        for p in pts:
            state.expand(p)
        state.recompute()
        rsp[mode] = state.rsp[: state.n].copy()
    return rsp, point_losses(xs, pts, params), surrogate_objective(pts, params)


@pytest.mark.parametrize("cells", [1, 50, 100])
def test_block_budget_does_not_change_pair_sums(monkeypatch, cells):
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 3, size=(23, 2))
    xs = rng.uniform(0, 3, size=(17, 2))
    params = make_params(0.5, 1.0)
    dense_rsp, dense_loss, dense_obj = _pair_results(pts, xs, params)
    monkeypatch.setattr(geometry, "BLOCK_CELLS", cells)
    assert len(list(row_blocks(len(pts), len(pts)))) > 1
    rsp, loss, obj = _pair_results(pts, xs, params)
    for mode in rsp:
        assert np.array_equal(rsp[mode], dense_rsp[mode])
    assert np.array_equal(loss, dense_loss)
    assert obj == pytest.approx(dense_obj, rel=1e-12)
