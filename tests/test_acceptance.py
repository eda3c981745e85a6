"""End-to-end acceptance checks.

One test per criterion.  The conftest terminal-summary hook turns each
outcome into a single ``criterion NN (title): PASS/FAIL`` line at the end of
the pytest log, using the titles below.
"""

import re
import shutil
import subprocess
import time
from itertools import combinations

import numpy as np
import pytest

from vizsample import interchange
from vizsample.baselines import StratifiedConfig, balanced_allocation, reservoir_sample, stratified_sample
from vizsample.dataio import gen_blobs
from vizsample.density import attach_counts
from vizsample.exact import (
    WeightedGraph,
    brute_force_vas,
    export_mip_lp,
    induced_edge_weight,
    reduce_mes_to_vas,
    solve_mes_brute,
    weights_from_points,
)
from vizsample.geometry import default_epsilon, kappa, kappa_tilde, make_params
from vizsample.interchange import PASS_CAP, InterchangeConfig, ResponsibilitySet, run_interchange
from vizsample.quality import bound_check, log_loss_ratio, marginal_gain, mc_loss, submodular_f


TITLES = {
    1: "oracle optimality gap and 1/4 bound",
    2: "swap oracle equivalence",
    3: "hardness reduction soundness",
    4: "marginal gain monotonicity and closed form",
    5: "quality ordering vs baselines",
    6: "locality-accelerated mode fidelity and speed",
    7: "truncation anchor value",
    8: "density counts conserve the dataset",
    9: "balanced allocation worked example",
    10: "exact-model export structure",
    11: "reservoir selection uniformity",
    12: "objective monotonicity and accumulator drift",
}


def pair_objective(pts, params):
    return sum(kappa_tilde(pts[i], pts[j], params) for i, j in combinations(range(len(pts)), 2))


def test_criterion_01():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    params = make_params(0.6)
    for _ in range(30):
        n = int(rng.integers(6, 15))
        k = int(rng.integers(2, 6))
        data = rng.uniform(0, 3, size=(n, 2))
        cfg = InterchangeConfig(k=k, mode="es", passes=PASS_CAP, seed=int(rng.integers(1 << 30)))
        sample, stats = run_interchange(data, cfg, params)
        _, opt = brute_force_vas(weights_from_points(data, params), k)
        assert stats.final_objective >= opt - 1e-9
        lhs, rhs, holds = bound_check(stats.final_objective, opt, k)
        assert holds and lhs <= rhs
    assert time.perf_counter() - t0 < 30.0


def test_criterion_02():
    rng = np.random.default_rng(202)
    params = make_params(0.7)
    for _ in range(200):
        k = int(rng.integers(2, 9))
        members = [tuple(p) for p in rng.uniform(0, 3, size=(k, 2))]
        t = tuple(rng.uniform(0, 3, size=2))

        state = ResponsibilitySet(k, params, mode="es")
        for idx, p in enumerate(members):
            state.expand(p, idx)
        # sorted so an unchanged set sums its pairs in the identical order
        before = pair_objective(sorted(tuple(q) for q in state.points), params)
        replaced = state.step(t, k)
        got = sorted(tuple(q) for q in state.points)

        # independent oracle: evict the max-responsibility entry of the
        # expanded set (ties -> most recent), i.e. keep the best candidate set
        expanded = members + [t]
        rsp = [
            sum(kappa_tilde(expanded[i], expanded[j], params) for j in range(k + 1) if j != i)
            for i in range(k + 1)
        ]
        evict = max(range(k + 1), key=lambda i: (rsp[i], i))
        want = sorted(p for i, p in enumerate(expanded) if i != evict)
        assert got == want
        assert replaced == (evict != k)

        after = pair_objective(got, params)
        assert replaced == (after < before)


def test_criterion_03():
    rng = np.random.default_rng(303)
    graphs = 0
    while graphs < 25:
        nv = int(rng.integers(3, 10))
        pairs = list(combinations(range(nv), 2))
        keep = rng.random(len(pairs)) < 0.65
        edges = [
            (u, v, float(rng.integers(1, 50)))  # integer weights: sums are exact
            for (u, v), kp in zip(pairs, keep)
            if kp
        ]
        if not edges:
            continue
        graphs += 1
        g = WeightedGraph(nv, edges)
        for k in range(1, nv + 1):
            _, mes_w = solve_mes_brute(g, k)
            vas_subset, _ = brute_force_vas(reduce_mes_to_vas(g, k), k)
            assert induced_edge_weight(g, vas_subset) == mes_w


def test_criterion_04():
    rng = np.random.default_rng(404)
    params = make_params(0.8)
    for _ in range(1000):
        nt = int(rng.integers(2, 12))
        T = rng.uniform(0, 4, size=(nt, 2))
        ns = int(rng.integers(1, nt + 1))
        S = T[rng.choice(nt, size=ns, replace=False)]
        x = rng.uniform(0, 4, size=2)
        gain_t = marginal_gain(T, x, params)
        gain_s = marginal_gain(S, x, params)
        assert gain_t >= gain_s - 1e-12 * max(1.0, gain_s)
        fd = submodular_f(np.vstack([T, x]), params) - submodular_f(T, params)
        assert gain_t == pytest.approx(fd, rel=1e-12, abs=1e-12)


def test_criterion_05():
    t0 = time.perf_counter()
    # bandwidth scaled to the sample spacing (~10x10 domain, K in the
    # hundreds); the diagonal/100 heuristic targets much larger K and
    # underflows every pair weight at K = 50
    params = make_params(0.3)
    for k in (50, 200):
        loss_wins = 0
        ratio_wins = 0
        for seed in range(5):
            data = gen_blobs(5000, 3, seed=seed)
            vas, _ = run_interchange(
                data, InterchangeConfig(k=k, seed=seed, passes=PASS_CAP), params
            )
            uni = reservoir_sample(data, k, seed=seed)
            strat = stratified_sample(data, StratifiedConfig(grid_cells_per_axis=10, k=k, seed=seed))

            losses = {
                name: mc_loss(s.points, data, params, n_points=500, seed=seed)
                for name, s in (("vas", vas), ("uniform", uni), ("stratified", strat))
            }
            ratios = {
                name: log_loss_ratio(s.points, data, params, n_points=500, seed=seed)
                for name, s in (("vas", vas), ("uniform", uni), ("stratified", strat))
            }
            if losses["vas"] < losses["uniform"] and losses["vas"] < losses["stratified"]:
                loss_wins += 1
            if abs(ratios["vas"]) < abs(ratios["uniform"]) and abs(ratios["vas"]) < abs(ratios["stratified"]):
                ratio_wins += 1
        assert loss_wins >= 4, f"k={k}: vas beat both baselines in only {loss_wins}/5 seeds"
        assert ratio_wins >= 4, f"k={k}: vas ratio closer to 0 in only {ratio_wins}/5 seeds"
    assert time.perf_counter() - t0 < 120.0


def test_criterion_06(request):
    data = gen_blobs(50_000, 3, seed=0)

    def run(mode, k, params):
        cfg = InterchangeConfig(k=k, mode=mode, seed=1)
        _, stats = run_interchange(data, cfg, params)
        return stats

    params = default_epsilon(data)
    es = run("es", 5000, params)
    loc = run("esloc", 5000, params)
    # user_properties directly: the ``record_property`` fixture warns under the
    # default xunit2 JUnit report, and warnings are errors in this suite
    request.node.user_properties.append(("es_s", round(es.wall_time, 2)))  # both modes run the same ``step``
    request.node.user_properties.append(("esloc_s", round(loc.wall_time, 2)))
    assert abs(loc.final_objective - es.final_objective) <= 1e-3 * es.final_objective
    assert loc.wall_time < es.wall_time

    # at K = 100 the sample is sparse: scale the bandwidth up so the
    # objective is not pure truncation noise, and only assert fidelity
    small = make_params(0.5, cutoff_radius=2.5)
    es_small = run("es", 100, small)
    loc_small = run("esloc", 100, small)
    assert abs(loc_small.final_objective - es_small.final_objective) <= 1e-3 * es_small.final_objective


def test_criterion_07():
    for eps in (0.05, 1.0, 3.7):
        params = make_params(eps)
        assert kappa((0.0, 0.0), (4.0 * eps, 0.0), params) == pytest.approx(1.12e-7, rel=0.01)


def test_criterion_08():
    rng = np.random.default_rng(808)
    for _ in range(50):
        n = int(rng.integers(50, 400))
        k = int(rng.integers(1, 30))
        data = rng.uniform(-5, 5, size=(n, 2))
        sample = data[rng.choice(n, size=min(k, n), replace=False)]
        counts = attach_counts(sample, data)
        assert counts.sum() == n
        oracle = np.zeros(len(sample), dtype=np.int64)
        for p in data:
            d2 = np.square(sample - p).sum(axis=1)
            oracle[int(np.argmin(d2))] += 1
        assert np.array_equal(counts, oracle)


def test_criterion_09():
    assert balanced_allocation([1000, 10], 100) == [90, 10]


def test_criterion_10(tmp_path):
    rng = np.random.default_rng(1010)
    for n in (3, 4, 5, 6):
        wm = weights_from_points(rng.uniform(0, 2, size=(n, 2)), make_params(1.0))
        path = tmp_path / f"model_{n}.lp"
        export_mip_lp(wm, 2, path)
        text = path.read_text()
        sections = {}
        current = None
        for raw in text.splitlines():
            line = raw.strip()
            if line in ("Minimize", "Subject To", "Binary", "End"):
                current = line
                sections[current] = []
            elif line:
                sections[current].append(line)
        npairs = n * (n - 1) // 2
        assert len(sections["Binary"]) == n + npairs
        assert len(sections["Subject To"]) == 1 + 3 * npairs

    if shutil.which("glpsol"):  # optional external check, not required for the verdict
        wm = weights_from_points(rng.uniform(0, 2, size=(5, 2)), make_params(1.0))
        path = tmp_path / "solve.lp"
        export_mip_lp(wm, 2, path)
        subprocess.run(
            ["glpsol", "--lp", str(path), "-o", str(tmp_path / "sol.txt")],
            check=True,
            capture_output=True,
        )
        m = re.search(r"Objective:\s+obj = ([0-9.eE+-]+)", (tmp_path / "sol.txt").read_text())
        _, best = brute_force_vas(wm, 2)
        assert float(m.group(1)) == pytest.approx(best, abs=1e-9)


def test_criterion_11():
    data = np.arange(20, dtype=float).reshape(10, 2)
    runs = 20_000
    freq = np.zeros(10)
    for seed in range(runs):
        freq[reservoir_sample(data, 3, seed=seed).source_indices] += 1
    freq /= runs
    assert np.all(np.abs(freq - 0.3) < 0.02), freq


def test_criterion_12(monkeypatch):
    monkeypatch.setattr(interchange, "RECOMPUTE_INTERVAL", 7)
    rng = np.random.default_rng(1212)
    params = make_params(0.5)
    for trial in range(10):
        n = int(rng.integers(40, 120))
        k = int(rng.integers(4, 11))
        data = rng.uniform(0, 4, size=(n, 2))
        cfg = InterchangeConfig(
            k=k,
            mode="es" if trial % 2 == 0 else "noes",
            passes=PASS_CAP,
            seed=trial,
            record_trace=True,
        )
        _, stats = run_interchange(data, cfg, params)
        trace = stats.objective_trace
        assert trace, "trace must record every step"
        for prev, cur in zip(trace, trace[1:]):
            assert cur <= prev * (1 + 1e-12) + 1e-15
        assert stats.max_drift < 1e-9 * k
