import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vizsample
from vizsample import geometry, quality, spatial
from vizsample.dataio import gen_blobs
from vizsample.errors import DomainRejectionError, EmptySampleError, NonFiniteInputError
from vizsample.geometry import default_epsilon, kappa_tilde, kernel_blocks, make_params
from vizsample.interchange import InterchangeConfig, run_interchange
from vizsample.quality import (
    QualityReport,
    _median,
    bound_check,
    draw_domain_points,
    evaluate,
    log_loss_ratio,
    marginal_gain,
    mc_loss,
    pair_sums,
    point_loss,
    point_losses,
    submodular_f,
    surrogate_objective,
)

UNIT = make_params(1.0)


def pair_sum_oracle(pts, params):
    return sum(kappa_tilde(pts[i], pts[j], params) for i, j in combinations(range(len(pts)), 2))


def test_surrogate_objective_small_cases():
    assert surrogate_objective(np.array([[3.0, 3.0]]), UNIT) == 0.0
    two = np.array([[0.0, 0], [1.0, 0]])
    assert surrogate_objective(two, UNIT) == pytest.approx(math.exp(-0.5), rel=1e-12)
    line = np.array([[0.0, 0], [1.0, 0], [2.0, 0]])
    assert surrogate_objective(line, UNIT) == pytest.approx(
        2 * math.exp(-0.5) + math.exp(-2.0), rel=1e-12
    )
    with pytest.raises(EmptySampleError):
        surrogate_objective(np.empty((0, 2)), UNIT)


def test_surrogate_objective_matches_pair_oracle_across_chunkings(monkeypatch):
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 4, size=(37, 2))
    want = pair_sum_oracle(pts, UNIT)
    for chunk in (1, 5, 37, 512):
        # tiles of ``chunk`` rows of the 37 columns
        monkeypatch.setattr(geometry, "BLOCK_CELLS", chunk * 37)
        assert surrogate_objective(pts, UNIT) == pytest.approx(want, rel=1e-12)


def dense_objective(pts, params):
    """The oracle: ``kernel_blocks(upper=True)`` over every pair."""
    return float(sum(w.sum() for _, w in kernel_blocks(pts, pts, params.inv_2eps2, upper=True)))


def strip_objective(pts, params):
    """``surrogate_objective`` with its walks recorded: (sum, exponents of the
    walks, ``kernel_blocks`` calls as (rows, columns, upper))."""
    exponents, calls = [], []
    strip_sum, blocks = quality._strip_sum, quality.kernel_blocks

    def walk(p, inv, exponent):
        exponents.append(exponent)
        return strip_sum(p, inv, exponent)

    def spy(a, b, *args, upper=False, **kw):
        calls.append((len(a), len(b), upper))
        return blocks(a, b, *args, upper=upper, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quality, "_strip_sum", walk)
        mp.setattr(quality, "kernel_blocks", spy)
        return surrogate_objective(pts, params), exponents, calls


@st.composite
def strip_cases(draw):
    """1 to 300 points: floats, half-lattice ties and duplicates; eps 1e-3..1e3."""
    coord = st.one_of(st.floats(-1e3, 1e3), st.integers(-8, 8).map(lambda v: v / 2))
    distinct = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=150))
    copies = draw(st.lists(st.sampled_from(distinct), max_size=150))
    return make_params(10.0 ** draw(st.floats(-3, 3))), np.array(distinct + copies)


@settings(max_examples=200, deadline=None)
@given(strip_cases())
def test_strip_walk_matches_the_dense_pair_sum(case):
    params, pts = case
    got, _, _ = strip_objective(pts, params)
    want = dense_objective(pts, params)
    assert abs(got - want) <= (len(pts) + 1) * 2**-52 * want


def dense_pair_sums(pts, inv, cutoff2=None):
    """The oracle of ``pair_sums``: each point's weights to every other point."""
    out = np.empty(len(pts))
    for s, w in kernel_blocks(pts, pts, inv, cutoff2):
        rows = np.arange(s.start, s.stop)
        w[rows - s.start, rows] = 0.0
        out[s] = w.sum(axis=1)
    return out


@st.composite
def pair_sum_cases(draw):
    """(points, inv, cutoff or None): up to 300 points, enough for several
    strips.  Floats within two reaches of 0 and quarter-lattice ties, with
    duplicates; an integer lattice, with pairs at exactly a cutoff of 1, 2
    or 5; or some points at +-1.7e308, where an x difference overflows and
    one strip holds every point."""
    kind = draw(st.sampled_from(["floats", "lattice", "overflow"]))
    eps = 10.0 ** draw(st.floats(-3, 3)) if kind == "floats" else draw(st.sampled_from([0.5, 1.0]))
    inv = make_params(eps).inv_2eps2
    cutoff = draw(st.none() | st.sampled_from([1.0, 2.0, 5.0]))
    if cutoff is not None and kind == "floats":
        cutoff *= eps
    # the reach of the esloc recompute, or of surrogate_objective's widest walk
    reach = math.sqrt(701.0 / inv) if cutoff is None else cutoff * (1 + 1e-9)
    coord = {
        "floats": st.one_of(st.floats(-2, 2), st.integers(-8, 8).map(lambda v: v / 4)).map(lambda v: v * reach),
        "lattice": st.integers(-6, 6).map(float),
        "overflow": st.one_of(st.floats(-10, 10), st.sampled_from([-1.7e308, 1.7e308, 1e300])),
    }[kind]
    size = draw(st.integers(1, 100))
    distinct = draw(st.lists(st.tuples(coord, coord), min_size=size, max_size=size))
    size = draw(st.integers(0, 200))
    copies = draw(st.lists(st.sampled_from(distinct), min_size=size, max_size=size))
    return np.array(distinct + copies), inv, cutoff


@pytest.mark.filterwarnings("error")
@settings(max_examples=120, deadline=None)
@given(pair_sum_cases())
def test_pair_sums_match_the_dense_per_point_sums(case):
    pts, inv, cutoff = case
    if cutoff is None:
        # every pair, or every pair that gauss weighs above 0
        want = dense_pair_sums(pts, inv)
        for reach in (math.inf, math.sqrt(701.0 / inv)):
            assert (abs(pair_sums(pts, inv, reach) - want) <= (len(pts) + 1) * 2**-52 * want).all()
    else:
        # the margin of the esloc recompute keeps every pair within the cutoff
        got = pair_sums(pts, inv, cutoff * (1 + 1e-9), cutoff * cutoff)
        np.testing.assert_allclose(got, dense_pair_sums(pts, inv, cutoff * cutoff), rtol=1e-12, atol=0)


def test_a_small_sample_takes_the_strip_walk():
    pts = np.random.default_rng(20).uniform(0, 3, (20, 2))
    got, exponents, calls = strip_objective(pts, UNIT)
    assert exponents and calls
    assert abs(got - dense_objective(pts, UNIT)) <= (len(pts) + 1) * 2**-52 * got


def test_strip_walk_runs_again_where_the_skipped_bound_is_not_negligible():
    # 3,000 points about 11 eps apart: every pair lies past the first reach
    # (10 eps).  Beside a tight pair, the bound 4.5e6 * e**-50 passes 2**-52
    # of its weight, so a second walk reaches further; without the pair the
    # first walk finds nothing, and the second finds every weight.
    rng = np.random.default_rng(4)
    far = 11.0 * np.c_[np.arange(3000) % 60, np.arange(3000) // 60] + rng.uniform(-0.1, 0.1, (3000, 2))
    for pts in (np.r_[far, [[-50.0, -50.0], [-50.0, -49.9]]], far):
        got, exponents, _ = strip_objective(pts, UNIT)
        want = dense_objective(pts, UNIT)
        assert exponents[0] == 50.0 and len(exponents) == 2 and exponents[1] > 50.0
        assert abs(got - want) <= (len(pts) + 1) * 2**-52 * want
    assert want > 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "pts, eps, want",
    [
        # 2 eps^2 overflows the reach to inf: every weight is 1
        (np.random.default_rng(6).uniform(0, 10, (20, 2)), 1.2e154, 190.0),
        # x - min(x) overflows: every squared distance is inf, and so weighs 0
        (np.array([[-1.7e308, 0.0], [1.7e308, 1e200], [0.0, -1e200], [1e308, 5.0]]), 1.0, 0.0),
    ],
)
def test_strip_walk_collapses_to_one_strip_without_a_warning(pts, eps, want):
    got, _, calls = strip_objective(pts, make_params(eps))
    assert got == want
    assert calls and all(upper for *_, upper in calls)  # no call meets a next strip


def test_strip_walk_visits_under_half_of_the_pairs_of_a_vas_sample(monkeypatch):
    # a reach or strip fault that falls back to every pair fails here, not
    # only as a slower benchmark
    data = gen_blobs(3000, 3, 0)
    params = default_epsilon(data)
    sample, _ = run_interchange(data, InterchangeConfig(k=2000, seed=0), params)
    lanes = []
    kernel = geometry.gauss

    def count(d2, *args):
        lanes.append(d2.size)
        return kernel(d2, *args)

    monkeypatch.setattr(geometry, "gauss", count)
    got = surrogate_objective(sample.points, params)
    n = len(sample.points)
    assert sum(lanes) < n * (n - 1) / 4
    assert abs(got - dense_objective(sample.points, params)) <= (n + 1) * 2**-52 * got


def test_point_loss_closed_forms_and_inf():
    s = np.array([[0.0, 0.0]])
    assert point_loss((0, 0), s, UNIT) == 1.0
    assert point_loss((1, 0), s, UNIT) == pytest.approx(math.exp(1.0), rel=1e-12)
    # far enough that the kernel sum underflows to zero
    assert point_loss((1e4, 0), s, UNIT) == math.inf
    with pytest.raises(EmptySampleError):
        point_loss((0, 0), np.empty((0, 2)), UNIT)


def dense_point_losses(xs, pts, params):
    """The losses from every pair's weight: kernel_blocks row sums over all points."""
    out = np.empty(len(xs))
    with np.errstate(over="ignore", divide="ignore"):
        for s, w in kernel_blocks(xs, pts, params.inv_eps2):
            out[s] = 1.0 / w.sum(axis=1)
    return out


@st.composite
def loss_cases(draw):
    """Kernel width 1e-150..1e150; coordinates within 60 eps of 0, where the
    first window (about 6.7 eps) settles only rows with a point within about
    2.2 eps and nothing is within the e**-700 reach (26.5 eps) of some rows,
    or at +-1e300.  The sample draws from a few distinct points: duplicates."""
    eps = 10.0 ** draw(st.floats(-150, 150))
    coord = st.one_of(st.floats(-60, 60).map(lambda u: u * eps), st.sampled_from([-1e300, 1e300]))
    point = st.tuples(coord, coord)
    distinct = draw(st.lists(point, min_size=1, max_size=8))
    pts = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=40))
    xs = draw(st.lists(point, min_size=1, max_size=30))
    return make_params(eps), np.array(pts), np.array(xs)


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(loss_cases())
@example((make_params(1.0), np.array([[0.0, 0.0]]), np.array([[0.0, 0.0], [5.0, 0.0], [30.0, 0.0]])))
# weights e**-34 and e**-64: a floor of e**-30 or less drops the second
@example((make_params(1.0), np.array([[3.0, -8.0], [6.0, 5.0]]), np.array([[3.0, 0.0]])))
@example((make_params(1e-150), np.array([[1e300, 0.0], [-1e300, 0.0], [0.0, 0.0]]), np.array([[1e-150, 1e300]])))
def test_point_losses_match_the_dense_sums_within_the_floor(case):
    params, pts, xs = case
    want = dense_point_losses(xs, pts, params)
    # each sum drops less than e**-40 of itself per point, plus summation order
    np.testing.assert_allclose(point_losses(xs, pts, params), want, rtol=len(pts) * (math.exp(-40) + 2**-52))


def test_point_losses_rewindow_rows_whose_first_window_fails(monkeypatch):
    radii = []
    windows = spatial.GridIndex.windows

    def spy(self, qs, r):
        radii.append(r)
        return windows(self, qs, r)

    monkeypatch.setattr(spatial.GridIndex, "windows", spy)
    pts = np.array([[0.0, 0.0], [20.0, 0.0]])
    # 4 eps from its nearest point: e**-16 needs points outside beyond sqrt(56) eps
    got = point_losses(np.array([[4.0, 0.0]]), pts, UNIT)
    assert len(radii) == 2 and radii[1] == 2 * radii[0] and radii[0] < math.sqrt(56)
    assert got[0] == pytest.approx(1.0 / (math.exp(-16.0) + math.exp(-256.0)), rel=1e-15)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_rows_raise_a_named_error(bad):
    good = np.array([[0.0, 0.0], [1.0, 1.0]])
    worse = np.array([[0.0, 0.0], [bad, 1.0]])
    with pytest.raises(NonFiniteInputError, match="plot locations"):
        point_losses(worse, good, UNIT)
    with pytest.raises(NonFiniteInputError, match="sample"):
        point_losses(good, worse, UNIT)
    with pytest.raises(NonFiniteInputError, match="sample"):
        surrogate_objective(worse, UNIT)


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # -inf + inf, in both medians
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=12))
@example([1e308, 1.5e308])
@example([-1.7e308, -1.7e308, 5.0])
@example([math.inf, -math.inf])
@example([math.inf, 1.0, -math.inf])
def test_median_is_bitwise_numpy_median(values):
    a = np.array(values)
    assert _bits(_median(a)) == _bits(np.median(a))
    assert a.tolist() == values  # the input is left as it was


def test_evaluate_process_leaves_numpy_ma_unimported(tmp_path):
    data, sample = tmp_path / "data.csv", tmp_path / "sample.csv"
    pts = np.random.default_rng(7).uniform(0, 5, size=(200, 2))
    np.savetxt(data, pts, delimiter=",", header="x,y", comments="")
    np.savetxt(sample, pts[:20], delimiter=",", header="x,y", comments="")
    src = str(Path(vizsample.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["-X", "importtime", "-m", "vizsample.cli", "evaluate", "--data", str(data), "--sample", str(sample)]
    run = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, check=True)
    imported = {line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()}
    assert "vizsample.quality" in imported and "numpy" in imported
    assert "numpy.ma" not in imported


def test_point_loss_two_member_sample():
    s = np.array([[0.0, 0.0], [2.0, 0.0]])
    want = 1.0 / (math.exp(-1.0) + math.exp(-1.0))
    assert point_loss((1, 0), s, UNIT) == pytest.approx(want, rel=1e-12)


def test_draw_domain_points_seeded_and_inside_domain():
    rng = np.random.default_rng(5)
    data = rng.uniform(0, 10, size=(200, 2))
    a = draw_domain_points(data, 300, seed=17, domain_radius=1.0)
    b = draw_domain_points(data, 300, seed=17, domain_radius=1.0)
    assert np.array_equal(a, b)
    assert a.shape == (300, 2)
    lo, hi = data.min(axis=0), data.max(axis=0)
    assert np.all(a >= lo) and np.all(a <= hi)
    for q in a:
        assert np.min(np.square(data - q).sum(axis=1)) <= 1.0**2 * (1 + 1e-12)


def per_point_domain_points(data, n_points, seed, domain_radius):
    """The batch-by-batch, point-by-point rejection loop, with a linear scan."""
    rng = np.random.default_rng(seed)
    lo, hi = data.min(axis=0), data.max(axis=0)
    accepted, drawn, batch = [], 0, max(256, n_points)
    while len(accepted) < n_points:
        qs = rng.uniform(lo, hi, size=(batch, 2))
        drawn += batch
        for q in qs:
            if (np.square(data - q).sum(axis=1) <= domain_radius * domain_radius).any():
                accepted.append(q)
                if len(accepted) == n_points:
                    break
        assert not (drawn >= 1_000_000 and len(accepted) / drawn < 1e-6)
    return np.array(accepted)


@pytest.mark.parametrize("kind, n_points, seed, radius", [
    ("uniform", 300, 17, 1.0),
    ("uniform", 40, 3, 0.05),  # low acceptance: many batches
    ("lattice", 700, 8, 0.5),  # n_points above the 256-point batch
    ("lattice", 5, 1, 1.0),
    ("coincident", 20, 2, 0.0),  # a zero-extent box: every draw is the point
])
def test_draw_domain_points_matches_per_point_loop(kind, n_points, seed, radius):
    rng = np.random.default_rng(31)
    data = {
        "uniform": rng.uniform(0, 10, size=(200, 2)),
        "lattice": rng.integers(0, 6, size=(30, 2)).astype(float),
        "coincident": np.full((4, 2), 2.5),
    }[kind]
    got = draw_domain_points(data, n_points, seed, radius)
    want = per_point_domain_points(data, n_points, seed, radius)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_draw_domain_points_keeps_the_membership_shortcut_where_r_over_3_rounds_up(monkeypatch):
    # 3 * (r / 3) > r here: cells of r / 3 must still take the 3x3 shortcut
    r = 3.8202730649803534
    assert 3 * (r / 3) > r
    data = gen_blobs(12000, 3, 1510)
    centres, windowed = [], []
    any_within, windows = spatial.GridIndex.any_within_radius, spatial.GridIndex.windows

    def count_centres(self, qs, rr):
        centres.append(len(qs))
        return any_within(self, qs, rr)

    def count_windowed(self, qs, rr):
        windowed.append(len(qs))
        return windows(self, qs, rr)

    monkeypatch.setattr(spatial.GridIndex, "any_within_radius", count_centres)
    monkeypatch.setattr(spatial.GridIndex, "windows", count_windowed)
    got = draw_domain_points(data, 1000, 0, r)
    assert sum(windowed) <= 0.1 * sum(centres)
    assert got.tobytes() == per_point_domain_points(data, 1000, 0, r).tobytes()


def test_draw_domain_points_sizes_the_next_round_from_the_hit_rate(monkeypatch):
    # as evaluate draws them: 954 of the first 1,000 draws hit, so one more
    # batch takes the last 46 (doubling the batch count tested 2,000)
    data = gen_blobs(12000, 3, 1510)
    draws = []
    any_within = spatial.GridIndex.any_within_radius

    def count(self, qs, r):
        draws.append(len(qs))
        return any_within(self, qs, r)

    monkeypatch.setattr(spatial.GridIndex, "any_within_radius", count)
    got = draw_domain_points(data, 1000, 0, 10.0 * default_epsilon(data).epsilon)
    assert draws == [1000, 1000] and len(got) == 1000


def test_draw_domain_points_rejects_hopeless_domain():
    # two far-apart points with a tiny acceptance region
    data = np.array([[0.0, 0.0], [1e6, 1e6]])
    with pytest.raises(DomainRejectionError):
        draw_domain_points(data, 10, seed=0, domain_radius=1e-4)


def test_mc_loss_full_dataset_gives_zero_log_ratio():
    rng = np.random.default_rng(21)
    data = rng.uniform(0, 5, size=(150, 2))
    params = make_params(0.5)
    assert log_loss_ratio(data, data, params, n_points=200, seed=3) == 0.0


def test_mc_loss_degrades_for_sparser_samples():
    rng = np.random.default_rng(23)
    data = rng.uniform(0, 5, size=(400, 2))
    params = make_params(0.5)
    dense = mc_loss(data[:200], data, params, n_points=400, seed=9)
    sparse = mc_loss(data[:20], data, params, n_points=400, seed=9)
    assert sparse > dense


def test_mc_loss_mean_can_be_inf_while_median_finite():
    # sample covers one cluster; the other cluster's MC points underflow
    data = np.vstack(
        [
            np.random.default_rng(1).uniform(0, 1, size=(50, 2)),
            np.random.default_rng(2).uniform(20, 21, size=(5, 2)),
        ]
    )
    params = make_params(0.1)
    sample = data[:50]
    mean = mc_loss(sample, data, params, n_points=300, seed=4, domain_radius=1.0, stat="mean")
    med = mc_loss(sample, data, params, n_points=300, seed=4, domain_radius=1.0, stat="median")
    assert mean == math.inf
    assert math.isfinite(med)


def test_submodular_complement_identity():
    rng = np.random.default_rng(31)
    for n in (2, 5, 17):
        pts = rng.uniform(0, 3, size=(n, 2))
        f = submodular_f(pts, UNIT)
        obj = surrogate_objective(pts, UNIT)
        assert f + obj == pytest.approx(n * (n - 1) / 2, rel=1e-12)
    assert submodular_f(np.array([[1.0, 1.0]]), UNIT) == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_marginal_gain_of_huge_coordinates_without_a_warning():
    # the squared distances overflow to inf, which weighs 0: a full gain of 1 each
    assert marginal_gain(np.array([[1e300, 0.0], [0.0, 1.0]]), (-1e300, 0.0), UNIT) == 2.0


def test_marginal_gain_matches_finite_difference():
    rng = np.random.default_rng(33)
    pts = rng.uniform(0, 3, size=(9, 2))
    x = (1.5, 1.5)
    fd = submodular_f(np.vstack([pts, x]), UNIT) - submodular_f(pts, UNIT)
    assert marginal_gain(pts, x, UNIT) == pytest.approx(fd, rel=1e-10)
    assert marginal_gain(np.empty((0, 2)), x, UNIT) == 0.0


def test_submodular_f_monotone_under_growth():
    # every added member contributes nonnegative (1 - kappa_tilde) terms
    rng = np.random.default_rng(35)
    pts = rng.uniform(0, 3, size=(8, 2))
    assert submodular_f(pts[:5], UNIT) <= submodular_f(pts, UNIT) + 1e-12


@given(st.floats(0, 100), st.floats(0, 100), st.integers(2, 50))
def test_bound_check_arithmetic(approx, opt, k):
    lhs, rhs, holds = bound_check(approx, opt, k)
    norm = 1.0 / (k * (k - 1))
    assert lhs == pytest.approx(norm * approx)
    assert rhs == pytest.approx(0.25 + norm * opt)
    assert holds == (lhs <= rhs)


def test_bound_check_requires_k_ge_2():
    with pytest.raises(ValueError):
        bound_check(1.0, 1.0, 1)


def test_evaluate_report_shape_and_json_keys():
    rng = np.random.default_rng(41)
    data = rng.uniform(0, 5, size=(120, 2))
    params = make_params(0.5)
    rep = evaluate(data[:30], data, params, n_points=100, seed=6)
    assert isinstance(rep, QualityReport)
    import json

    d = json.loads(rep.to_json())
    assert set(d) == {
        "surrogate_objective",
        "mc_loss_mean",
        "mc_loss_median",
        "log_loss_ratio",
        "n_mc_points",
        "seed",
    }
    assert d["n_mc_points"] == 100
    assert d["seed"] == 6
    assert d["surrogate_objective"] == pytest.approx(
        surrogate_objective(data[:30], params), rel=1e-12
    )
    # the report's ratio agrees with the standalone function on the same seed
    assert rep.log_loss_ratio == pytest.approx(
        log_loss_ratio(data[:30], data, params, n_points=100, seed=6), rel=1e-12
    )
    text = rep.to_text()
    assert "surrogate_objective=" in text and "log_loss_ratio=" in text
