import ast
import math
from pathlib import Path

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
    sq_distances,
)
from vizsample.interchange import ResponsibilitySet
from vizsample.quality import point_losses, surrogate_objective

UNIT = make_params(1.0)
# gauss is 0 where the exponent d2 * inv passes 700
FLOOR = 700.0


def reach2_of(inv, cutoff2):
    """Squared distance past which gauss is 0 (inv > 0)."""
    return FLOOR / inv if cutoff2 is None else min(cutoff2, FLOOR / inv)

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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kernels_of_huge_coordinates_are_zero_without_a_warning():
    # the squared distance overflows to inf, which weighs 0
    a, b = (1e300, 0.0), (-1e300, 0.0)
    assert kappa(a, b, UNIT) == 0.0 and kappa_tilde(a, b, UNIT) == 0.0


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
    reach2 = reach2_of(inv, cutoff2)
    want = np.zeros((len(a), len(b)))
    for i, (ax, ay) in enumerate(a):
        for j, (bx, by) in enumerate(b):
            dx, dy = ax - bx, ay - by
            d2 = dx * dx + dy * dy
            if d2 <= reach2:
                want[i, j] = math.exp(-d2 * inv)
    A = np.array(a, dtype=float)
    B = np.array(b, dtype=float).reshape(-1, 2)
    got = gauss(sq_distances(A, B), inv, cutoff2)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
    # a single point drops its row axis and gives the same row
    assert np.array_equal(gauss(sq_distances(A[0], B), inv, cutoff2), got[0])


# exponents d2 * inv (as positive numbers) where exp changes regime: numpy's
# fast exp ends near 708 and exp rounds to 0.0 from 745.1332191019411 on
_EDGE_EXPONENTS = [708.0, 745.1332191019411]


@pytest.mark.parametrize("cut_exponent", [None, 500.0, 720.0, 745.0, 760.0, 2000.0])
def test_gauss_cutoff_clamp_is_bitwise_exact(cut_exponent):
    # exponents d2 * inv from 0 to 1500, through the subnormal band
    # (-745, -708) and below it, plus lanes at and next to the reach, the
    # exp regime bounds and the cutoff, 0 and inf; 2-D blocks, single-point
    # (1-D) rows and empty rows
    rng = np.random.default_rng(13)
    shapes = [(64, 100), (64, 50), (6000,), (50,), (0,), (64, 0)]
    for inv in (0.37, 1.0):
        cutoff2 = None if cut_exponent is None else cut_exponent / inv
        reach2 = reach2_of(inv, cutoff2)
        edges = [np.inf, 0.0]
        for d in [reach2] + [e / inv for e in _EDGE_EXPONENTS + ([] if cutoff2 is None else [cut_exponent])]:
            edges += [np.nextafter(d, 0), d, np.nextafter(d, np.inf)]
        for shape in shapes:
            d2 = rng.uniform(0, 1500 / inv, size=shape)
            flat = d2.reshape(-1)
            flat[: len(edges)] = edges[: flat.size]
            want = np.exp(d2 * -inv)
            want[d2 > reach2] = 0.0
            got = gauss(d2, inv, cutoff2)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (inv, shape)
            if flat.size >= 1000:
                # exp is not 0 there, the floor makes it 0
                e = flat * inv
                band = (e > FLOOR) & (e <= 745)
                assert band.any() and not got.reshape(-1)[band].any()


def test_gauss_without_exponent_scale_is_one_within_the_cutoff():
    # 2 eps^2 overflows at eps = 1.2e154, so kappa_tilde's scale is 0: every
    # lane is exp(-0.0) = 1, with no floor, and 0 past a finite cutoff only
    d2 = np.array([0.0, 1.0, 1e300, 1.7e308])
    for cutoff2 in (None, math.inf):
        assert gauss(d2, 0.0, cutoff2).tolist() == [1.0, 1.0, 1.0, 1.0]
    assert gauss(d2, 0.0, 1e300).tolist() == [1.0, 1.0, 1.0, 0.0]
    assert gauss(d2[:, None] * 0.5, 0.0, 1.0).tolist() == [[1.0], [1.0], [0.0], [0.0]]


def _calls(node, names, where):
    """``where`` (file, enclosing functions) of each call of a function or
    method named in ``names`` under ``node``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = (*where, node.name)
    if isinstance(node, ast.Call):
        f = node.func
        if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) in names:
            yield where
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, names, where)


def package_calls(*names):
    """(file, enclosing functions) of every call of ``names`` in the package's modules."""
    calls = []
    for path in sorted(Path(geometry.__file__).parent.glob("*.py")):
        calls += _calls(ast.parse(path.read_text()), names, (path.name,))
    return calls


def test_exp_is_called_only_in_gauss():
    # one kernel path: every kernel value in the package comes from gauss
    assert package_calls("exp", "expm1", "exp2") == [("geometry.py", "gauss")]


def test_non_finite_points_are_rejected_only_in_as_points():
    # one input check: every point array a public entry takes goes through as_points
    assert package_calls("NonFiniteInputError") == [("geometry.py", "as_points")]


@pytest.mark.parametrize("cutoff", [None, 0.7, 40.0])
@pytest.mark.parametrize("upper", [False, True])
def test_kernel_blocks_match_gauss_per_block(monkeypatch, cutoff, upper):
    # the reused block buffers hold bitwise what gauss(sq_distances(...))
    # gives, the last (partial) block included; ``upper`` keeps every column
    # and zeroes j <= i
    rng = np.random.default_rng(21)
    a = rng.uniform(0, 30, size=(203, 2))
    b = a if upper else rng.uniform(0, 30, size=(97, 2))
    inv = 0.5
    cutoff2 = None if cutoff is None else cutoff**2
    monkeypatch.setattr(geometry, "BLOCK_CELLS", 5461)
    blocks = list(geometry.kernel_blocks(a, b, inv, cutoff2, upper=upper))
    assert len(blocks) > 2 and blocks[-1][0].stop - blocks[-1][0].start < blocks[0][0].stop
    for s, w in geometry.kernel_blocks(a, b, inv, cutoff2, upper=upper):
        want = gauss(sq_distances(a[s], b), inv, cutoff2)
        if upper:
            want = np.triu(want, s.start + 1)
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
    # esloc strips one cutoff wide: two full ones, then a lone point that
    # the second one's blocks meet in one-column tiles
    strips = np.r_[rng.uniform((0, 0), (2, 1), size=(300, 2)), [[2.1, 0.5]]]
    params = make_params(0.5, 1.0)
    want = [_pair_results(p, xs, params) for p in (pts, strips)]
    monkeypatch.setattr(geometry, "BLOCK_CELLS", cells)
    assert len(list(geometry.pair_blocks(pts, pts))) > 1
    for p, (dense_rsp, dense_loss, dense_obj) in zip((pts, strips), want):
        rsp, loss, obj = _pair_results(p, xs, params)
        for mode in rsp:
            assert np.array_equal(rsp[mode], dense_rsp[mode])
        assert np.array_equal(loss, dense_loss)
        assert obj == pytest.approx(dense_obj, rel=1e-12)
