import math
from itertools import combinations

import numpy as np
import pytest

from vizsample.errors import EmptyDatasetError, KTooLargeError, NonFiniteInputError
from vizsample.geometry import make_params
from vizsample.interchange import InterchangeConfig, ResponsibilitySet, run_interchange
from vizsample.quality import surrogate_objective

UNIT = make_params(1.0)


def pair_objective(points, params):
    pts = np.asarray(points, dtype=float)
    total = 0.0
    for i, j in combinations(range(len(pts)), 2):
        total += math.exp(-float(np.sum((pts[i] - pts[j]) ** 2)) / (2 * params.epsilon**2))
    return total


def fresh_set(k, params, mode="es"):
    return ResponsibilitySet(k, params, mode)


def test_expand_into_empty_set():
    r = fresh_set(3, UNIT)
    r.expand((1.0, 2.0))
    assert r.n == 1
    assert r.rsp[0] == 0.0


def test_expand_duplicate_point():
    r = fresh_set(2, UNIT)
    r.expand((0.0, 0.0))
    r.expand((0.0, 0.0))
    assert r.rsp[0] == pytest.approx(1.0)
    assert r.rsp[1] == pytest.approx(1.0)


def test_expand_line_example():
    r = fresh_set(2, UNIT)
    r.expand((0.0, 0.0))
    r.expand((1.0, 0.0))
    r.expand((2.0, 0.0))
    e05, e2 = math.exp(-0.5), math.exp(-2.0)
    got = {tuple(p): v for p, v in zip(r.points, r.rsp[: r.n])}
    assert got[(0.0, 0.0)] == pytest.approx(e05 + e2, rel=1e-12)
    assert got[(1.0, 0.0)] == pytest.approx(2 * e05, rel=1e-12)
    assert got[(2.0, 0.0)] == pytest.approx(e2 + e05, rel=1e-12)


def test_shrink_line_example_removes_middle():
    r = fresh_set(2, UNIT)
    for x in (0.0, 1.0, 2.0):
        r.expand((x, 0.0))
    replaced = r.shrink()
    assert replaced  # evicted the middle incumbent, not the newest point
    assert sorted(p[0] for p in r.points) == [0.0, 2.0]
    assert r.objective() == pytest.approx(math.exp(-2.0), rel=1e-9)


def test_shrink_all_identical_removes_newest():
    r = fresh_set(3, UNIT)
    for _ in range(4):
        r.expand((5.0, 5.0))
    newest = int(r.order[r.n - 1])
    replaced = r.shrink()
    assert not replaced
    assert newest not in set(r.order[: r.n])
    assert r.n == 3


def test_shrink_matches_recomputation_oracle():
    rng = np.random.default_rng(11)
    params = make_params(0.4)
    for _ in range(50):
        pts = rng.uniform(0, 1, size=(6, 2))
        r = fresh_set(5, params)
        for p in pts:
            r.expand(p)
        # independent responsibilities via direct pair sums
        rsp = [
            sum(
                math.exp(-float(np.sum((pts[i] - pts[j]) ** 2)) / (2 * params.epsilon**2))
                for j in range(6)
                if j != i
            )
            for i in range(6)
        ]
        expect_removed = tuple(pts[int(np.argmax(rsp))])
        before = {tuple(p) for p in r.points}
        r.shrink()
        after = {tuple(p) for p in r.points}
        assert before - after == {expect_removed}


def test_step_far_point_replaces_clustered_member():
    params = make_params(1.0)
    r = fresh_set(3, params)
    for p in [(0.0, 0.0), (0.1, 0.0), (0.0, 0.1)]:
        r.expand(p)
    assert r.step((100.0, 100.0)) is True
    assert (100.0, 100.0) in {tuple(p) for p in r.points}


def test_step_duplicate_of_member_is_noop():
    params = make_params(1.0)
    r = fresh_set(3, params)
    pts = [(0.0, 0.0), (0.2, 0.0), (5.0, 5.0)]
    for p in pts:
        r.expand(p)
    before = sorted(map(tuple, r.points))
    assert r.step((5.0, 5.0)) is False
    assert sorted(map(tuple, r.points)) == before


def test_step_matches_best_single_swap_oracle():
    rng = np.random.default_rng(21)
    params = make_params(0.35)
    for _ in range(60):
        pts = rng.uniform(0, 1, size=(8, 2))
        members, t = pts[:3], pts[3]
        r = fresh_set(3, params)
        for p in members:
            r.expand(p)
        # oracle: minimize the objective over keeping R or any single swap
        candidates = [list(map(tuple, members))]
        for i in range(3):
            swapped = list(map(tuple, members))
            swapped[i] = tuple(t)
            candidates.append(swapped)
        objs = [pair_objective(c, params) for c in candidates]
        best = candidates[int(np.argmin(objs))]
        replaced = r.step(t)
        assert sorted(map(tuple, r.points)) == sorted(best)
        assert replaced == (min(objs) < objs[0])


def test_noes_and_es_modes_agree():
    rng = np.random.default_rng(5)
    params = make_params(0.3)
    for seed in range(5):
        data = rng.uniform(0, 1, size=(40, 2))
        cfg_es = InterchangeConfig(k=6, seed=seed, mode="es", until_converged=True)
        cfg_no = InterchangeConfig(k=6, seed=seed, mode="noes", until_converged=True)
        s_es, _ = run_interchange(data, cfg_es, params)
        s_no, _ = run_interchange(data, cfg_no, params)
        assert sorted(s_es.source_indices) == sorted(s_no.source_indices)


def test_run_k_equals_n_returns_dataset():
    data = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    sample, stats = run_interchange(data, InterchangeConfig(k=3, seed=0), UNIT)
    assert sorted(sample.source_indices) == [0, 1, 2]
    assert stats.final_objective == pytest.approx(pair_objective(data, UNIT), rel=1e-12)


def test_run_collinear_converges_to_endpoints():
    data = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    cfg = InterchangeConfig(k=2, seed=3, until_converged=True, mode="es")
    sample, stats = run_interchange(data, cfg, UNIT)
    assert sorted(sample.source_indices) == [0, 2]
    assert stats.final_objective == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_run_rejects_bad_inputs():
    with pytest.raises(EmptyDatasetError):
        run_interchange(np.empty((0, 2)), InterchangeConfig(k=1), UNIT)
    with pytest.raises(KTooLargeError):
        run_interchange(np.zeros((2, 2)), InterchangeConfig(k=3), UNIT)


@pytest.mark.parametrize("mode", ["es", "esloc"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_run_rejects_non_finite_row(mode, bad):
    data = np.random.default_rng(3).uniform(0, 4, size=(30, 2))
    data[17, 1] = bad
    with pytest.raises(NonFiniteInputError):
        run_interchange(data, InterchangeConfig(k=5, mode=mode), UNIT)


def test_objective_monotone_along_trace():
    rng = np.random.default_rng(17)
    params = make_params(0.3)
    data = rng.uniform(0, 1, size=(60, 2))
    cfg = InterchangeConfig(k=8, seed=1, mode="es", passes=3, record_trace=True)
    _, stats = run_interchange(data, cfg, params)
    trace = stats.objective_trace
    assert len(trace) == stats.points_seen - cfg.k
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


def test_responsibility_recompute_drift_small():
    rng = np.random.default_rng(23)
    params = make_params(0.3)
    data = rng.uniform(0, 1, size=(300, 2))
    cfg = InterchangeConfig(k=12, seed=2, mode="es", passes=4, recompute_interval=13)
    _, stats = run_interchange(data, cfg, params)
    assert stats.max_drift < 1e-9 * cfg.k


def test_esloc_neighbours_match_linear_scan():
    rng = np.random.default_rng(29)
    data = rng.uniform(0, 6, size=(400, 2))
    params = make_params(0.3)
    state = ResponsibilitySet(40, params, "esloc")
    for i, p in enumerate(data[:40]):
        state.expand(p, i)
    for i, p in enumerate(data[40:], start=40):
        state.step(p, i)
    r2 = params.cutoff_radius * params.cutoff_radius
    for q in rng.uniform(-1, 7, size=(50, 2)):
        slots, w = state._weights_to(q)
        d2 = np.square(state.points - q).sum(axis=1)
        assert sorted(slots.tolist()) == np.flatnonzero(d2 <= r2).tolist()
        np.testing.assert_allclose(w, np.exp(-d2[slots] / (2 * params.epsilon**2)), rtol=1e-14)
    # closed ball: a member exactly at the cutoff radius (1.0 here) interacts
    edge = ResponsibilitySet(2, make_params(0.25), "esloc")
    edge.expand((0.0, 0.0))
    assert edge._weights_to(np.array([1.0, 0.0]))[0].tolist() == [0]


def test_esloc_close_to_es_within_truncation_bound():
    rng = np.random.default_rng(31)
    data = rng.uniform(0, 1, size=(400, 2))
    params = make_params(0.05)  # cutoff 0.2 actually truncates pairs
    obj = {}
    for mode in ("es", "esloc"):
        _, stats = run_interchange(
            data, InterchangeConfig(k=30, seed=4, mode=mode, passes=3), params
        )
        obj[mode] = stats.final_objective
    bound = len(data) * 30 * math.exp(-8.0)
    assert abs(obj["es"] - obj["esloc"]) <= bound


def test_local_optimality_at_convergence():
    rng = np.random.default_rng(41)
    params = make_params(0.3)
    data = rng.uniform(0, 1, size=(25, 2))
    cfg = InterchangeConfig(k=5, seed=6, mode="es", until_converged=True)
    sample, stats = run_interchange(data, cfg, params)
    members = list(sample.source_indices)
    base = pair_objective(data[members], params)
    for t in range(len(data)):
        if t in members:
            continue
        for i in range(len(members)):
            swapped = members.copy()
            swapped[i] = t
            assert pair_objective(data[swapped], params) >= base - 1e-12


def test_responsibility_sum_is_twice_objective():
    rng = np.random.default_rng(51)
    params = make_params(0.4)
    r = ResponsibilitySet(7, params, "es")
    pts = rng.uniform(0, 1, size=(7, 2))
    for p in pts:
        r.expand(p)
    assert r.objective() == pytest.approx(pair_objective(pts, params), rel=1e-10)
    assert r.objective() == pytest.approx(surrogate_objective(pts, params), rel=1e-10)
