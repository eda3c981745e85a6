import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vizsample.errors import DomainRejectionError, EmptySampleError
from vizsample.geometry import kappa_tilde, make_params
from vizsample.quality import (
    QualityReport,
    bound_check,
    draw_domain_points,
    evaluate,
    log_loss_ratio,
    marginal_gain,
    mc_loss,
    point_loss,
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


def test_surrogate_objective_matches_pair_oracle_across_chunkings():
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 4, size=(37, 2))
    want = pair_sum_oracle(pts, UNIT)
    for chunk in (1, 5, 37, 512):
        assert surrogate_objective(pts, UNIT, chunk=chunk) == pytest.approx(want, rel=1e-12)


def test_point_loss_closed_forms_and_inf():
    s = np.array([[0.0, 0.0]])
    assert point_loss((0, 0), s, UNIT) == 1.0
    assert point_loss((1, 0), s, UNIT) == pytest.approx(math.exp(1.0), rel=1e-12)
    # far enough that the kernel sum underflows to zero
    assert point_loss((1e4, 0), s, UNIT) == math.inf
    with pytest.raises(EmptySampleError):
        point_loss((0, 0), np.empty((0, 2)), UNIT)


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
