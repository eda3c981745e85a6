import math
import re
import shutil
import subprocess
from itertools import combinations

import numpy as np
import pytest

from vizsample import exact
from vizsample.errors import BudgetExceededError, NoEdgesError
from vizsample.exact import (
    WeightedGraph,
    WeightMatrix,
    brute_force_vas,
    export_mip_lp,
    induced_edge_weight,
    reduce_mes_to_vas,
    solve_mes_brute,
    weights_from_points,
)
from vizsample.geometry import make_params

UNIT = make_params(1.0)


def parse_lp(text):
    """Minimal LP reader used as the round-trip oracle."""
    sections = {}
    current = None
    for raw in text.splitlines():
        line = raw.strip()
        if line in ("Minimize", "Subject To", "Binary", "End"):
            current = line
            sections[current] = []
        elif line:
            sections[current].append(line)
    constraints = [l for l in sections["Subject To"]]
    binaries = [l for l in sections["Binary"]]
    obj = " ".join(sections["Minimize"])
    return obj, constraints, binaries


def test_weights_from_points_examples():
    w = weights_from_points(np.array([[1.0, 1.0], [1.0, 1.0]]), UNIT).w
    assert w[0, 1] == 1.0
    w = weights_from_points(np.array([[0.0, 0], [1.0, 0], [2.0, 0]]), UNIT).w
    assert w[0, 1] == pytest.approx(math.exp(-0.5), rel=1e-12)
    assert w[0, 2] == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert w[1, 2] == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_weights_symmetry_random():
    rng = np.random.default_rng(1)
    wm = weights_from_points(rng.uniform(0, 5, size=(12, 2)), UNIT)
    assert np.array_equal(wm.w, wm.w.T)
    assert np.all(np.diagonal(wm.w) == 0)


def test_brute_force_full_set():
    rng = np.random.default_rng(2)
    wm = weights_from_points(rng.uniform(0, 3, size=(5, 2)), UNIT)
    subset, obj = brute_force_vas(wm, 5)
    assert subset == (0, 1, 2, 3, 4)
    assert obj == pytest.approx(sum(wm.w[i, j] for i, j in combinations(range(5), 2)))


def test_brute_force_collinear():
    wm = weights_from_points(np.array([[0.0, 0], [1.0, 0], [2.0, 0]]), UNIT)
    subset, obj = brute_force_vas(wm, 2)
    assert subset == (0, 2)
    assert obj == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_brute_force_beats_random_subsets():
    rng = np.random.default_rng(3)
    wm = weights_from_points(rng.uniform(0, 2, size=(10, 2)), make_params(0.5))
    _, best = brute_force_vas(wm, 3)
    for _ in range(50):
        subset = rng.choice(10, size=3, replace=False)
        obj = sum(wm.w[i, j] for i, j in combinations(sorted(subset), 2))
        assert best <= obj + 1e-12


def test_brute_force_budget_guard():
    wm = WeightMatrix(np.zeros((30, 30)))
    with pytest.raises(BudgetExceededError):
        brute_force_vas(wm, 15)


def test_reduction_triangle():
    g = WeightedGraph(3, [(0, 1, 5.0), (0, 2, 1.0), (1, 2, 2.0)])
    m = reduce_mes_to_vas(g, 2).w
    assert m[0, 1] == 0.0
    assert m[0, 2] == 4.0
    assert m[1, 2] == 3.0


def test_reduction_uniform_graph_and_no_edges():
    g = WeightedGraph(3, [(0, 1, 2.0), (0, 2, 2.0), (1, 2, 2.0)])
    m = reduce_mes_to_vas(g, 2).w
    assert np.all(m[~np.eye(3, dtype=bool)] == 0.0)
    with pytest.raises(NoEdgesError):
        reduce_mes_to_vas(WeightedGraph(3, []), 2)


def test_single_edge_graph():
    g = WeightedGraph(4, [(1, 3, 2.5)])
    subset, w = solve_mes_brute(g, 2)
    assert subset == (1, 3)
    assert w == 2.5
    vas_subset, _ = brute_force_vas(reduce_mes_to_vas(g, 2), 2)
    assert vas_subset == (1, 3)


def test_mes_triangle_and_full_set():
    g = WeightedGraph(3, [(0, 1, 5.0), (0, 2, 1.0), (1, 2, 2.0)])
    subset, w = solve_mes_brute(g, 2)
    assert subset == (0, 1)
    assert w == 5.0
    subset, w = solve_mes_brute(g, 3)
    assert subset == (0, 1, 2)
    assert w == 8.0


def test_reduction_soundness_random_graphs():
    rng = np.random.default_rng(4)
    for trial in range(10):
        nv = int(rng.integers(3, 8))
        pairs = list(combinations(range(nv), 2))
        keep = rng.random(len(pairs)) < 0.6
        edges = [(u, v, float(rng.uniform(0, 9))) for (u, v), kp in zip(pairs, keep) if kp]
        if not edges:
            continue
        g = WeightedGraph(nv, edges)
        for k in range(1, nv + 1):
            mes_subset, mes_w = solve_mes_brute(g, k)
            vas_subset, _ = brute_force_vas(reduce_mes_to_vas(g, k), k)
            assert induced_edge_weight(g, vas_subset) == pytest.approx(mes_w, abs=1e-9)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_lp_export_structure(n, tmp_path):
    rng = np.random.default_rng(n)
    wm = weights_from_points(rng.uniform(0, 2, size=(n, 2)), UNIT)
    path = tmp_path / "model.lp"
    export_mip_lp(wm, 2, path)
    obj, constraints, binaries = parse_lp(path.read_text())

    npairs = n * (n - 1) // 2
    assert len(binaries) == n + npairs
    assert len(constraints) == 1 + 3 * npairs
    assert constraints[0].startswith("card:")
    assert constraints[0].endswith("= 2")
    assert len(re.findall(r"b(\d+)_(\d+)", obj)) == npairs
    for i, j in combinations(range(1, n + 1), 2):
        names = {f"c{i}_{j}_1", f"c{i}_{j}_2", f"c{i}_{j}_3"}
        assert names <= {c.split(":")[0] for c in constraints}
    # objective coefficients round-trip to the matrix entries
    for coef, i, j in re.findall(r"\+ (\S+) b(\d+)_(\d+)", obj):
        assert float(coef) == wm.w[int(i) - 1, int(j) - 1]


@pytest.mark.skipif(shutil.which("glpsol") is None, reason="external MIP solver not installed")
def test_lp_solved_externally_matches_brute_force(tmp_path):
    rng = np.random.default_rng(8)
    wm = weights_from_points(rng.uniform(0, 2, size=(5, 2)), UNIT)
    path = tmp_path / "model.lp"
    export_mip_lp(wm, 2, path)
    out = subprocess.run(
        ["glpsol", "--lp", str(path), "-o", str(tmp_path / "sol.txt")],
        capture_output=True,
        text=True,
        check=True,
    )
    sol = (tmp_path / "sol.txt").read_text()
    m = re.search(r"Objective:\s+obj = ([0-9.eE+-]+)", sol)
    assert m is not None
    _, best = brute_force_vas(wm, 2)
    assert float(m.group(1)) == pytest.approx(best, abs=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_weights_of_huge_coordinates_are_zero_without_a_warning():
    wm = weights_from_points(np.array([[1e300, 0.0], [-1e300, 0.0], [0.0, 1.0]]), UNIT)
    assert not wm.w.any()


def test_weights_from_points_checks_its_size_before_allocating(monkeypatch):
    monkeypatch.setattr(exact, "MAX_WEIGHT_CELLS", 16)
    assert weights_from_points(np.zeros((4, 2)), UNIT).n == 4
    with pytest.raises(BudgetExceededError, match="5x5 weight matrix exceeds the budget of 16 cells"):
        weights_from_points(np.zeros((5, 2)), UNIT)
