"""Every argument guard raises its exception, with its own message."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vizsample import quality
from vizsample.baselines import StratifiedConfig, balanced_allocation, reservoir_sample, stratified_sample
from vizsample.density import attach_counts
from vizsample.errors import EmptyDatasetError, NoEdgesError, NonFiniteInputError, ZeroExtentError
from vizsample.exact import (
    WeightedGraph,
    WeightMatrix,
    check_budget,
    export_mip_lp,
    reduce_mes_to_vas,
    solve_mes_brute,
    weights_from_points,
)
from vizsample.geometry import default_epsilon, kappa, kappa_tilde, make_params
from vizsample.interchange import InterchangeConfig, ResponsibilitySet, run_interchange
from vizsample.spatial import GridIndex

UNIT = make_params(1.0)
POINTS = np.array([[0.0, 0.0], [1.0, 1.0]])


def _state(k, expands):
    state = ResponsibilitySet(k, UNIT, "es")
    for i in range(expands):
        state.expand((float(i), 0.0))
    return state


GUARDS = {
    "config-k": (lambda: InterchangeConfig(k=0), ValueError, "k must be >= 1"),
    "config-passes": (lambda: InterchangeConfig(k=1, passes=0), ValueError, "passes must be"),
    "config-mode": (lambda: InterchangeConfig(k=1, mode="fast"), ValueError, "mode must be one of"),
    "state-mode": (lambda: ResponsibilitySet(1, UNIT, mode="fast"), ValueError, "mode must be one of"),
    "state-k": (lambda: ResponsibilitySet(0, UNIT), ValueError, "k must be >= 1"),
    "state-k-negative": (lambda: ResponsibilitySet(-1, UNIT, mode="noes"), ValueError, "k must be >= 1"),
    "expand-expanded": (lambda: _state(1, 1).expand((5.0, 0.0)), ValueError, "expand on a full set"),
    "shrink-at-rest": (
        lambda: _state(2, 1).shrink(np.zeros(2), 1, np.arange(1), np.ones(1)),
        ValueError,
        "shrink requires",
    ),
    "step-not-at-rest": (lambda: _state(2, 1).step((5.0, 0.0)), ValueError, "step requires"),
    "stratified-grid": (lambda: StratifiedConfig(grid_cells_per_axis=0, k=1), ValueError, "grid_cells_per_axis"),
    "stratified-k": (lambda: StratifiedConfig(grid_cells_per_axis=1, k=0), ValueError, "k must be >= 1"),
    "reservoir-k": (lambda: reservoir_sample(POINTS, k=0), ValueError, "k must be >= 1"),
    "allocation-count": (lambda: balanced_allocation([1, -1], 0), ValueError, "non-negative"),
    "stratified-empty": (
        lambda: stratified_sample(np.empty((0, 2)), StratifiedConfig(1, 1)),
        EmptyDatasetError,
        "empty dataset",
    ),
    "matrix-square": (lambda: WeightMatrix(np.zeros((2, 3))), ValueError, "square"),
    "matrix-negative": (lambda: WeightMatrix([[0.0, -1.0], [-1.0, 0.0]]), ValueError, "non-negative"),
    "matrix-symmetric": (lambda: WeightMatrix([[0.0, 1.0], [2.0, 0.0]]), ValueError, "symmetric"),
    "matrix-diagonal": (lambda: WeightMatrix([[1.0, 0.0], [0.0, 0.0]]), ValueError, "diagonal"),
    "graph-self-loop": (lambda: WeightedGraph(2, [(0, 0, 1.0)]), ValueError, "self-loop"),
    "graph-range": (lambda: WeightedGraph(2, [(0, 2, 1.0)]), ValueError, "out of range"),
    "graph-weight": (lambda: WeightedGraph(2, [(0, 1, -1.0)]), ValueError, "edge weight"),
    "graph-duplicate": (lambda: WeightedGraph(2, [(0, 1, 1.0), (1, 0, 1.0)]), ValueError, "duplicate"),
    "budget-k": (lambda: check_budget(3, -1), ValueError, "must be >= 0"),
    "reduction-k": (lambda: reduce_mes_to_vas(WeightedGraph(2, [(0, 1, 1.0)]), 3), ValueError, "out of range"),
    "mes-no-edges": (lambda: solve_mes_brute(WeightedGraph(2, []), 1), NoEdgesError, "no edges"),
    "lp-size": (lambda: export_mip_lp(WeightMatrix(np.zeros((1, 1))), 1, os.devnull), ValueError, "n >= 2"),
    "lp-k": (lambda: export_mip_lp(WeightMatrix(np.zeros((2, 2))), 0, os.devnull), ValueError, "must be >= 1"),
    "epsilon-one-point": (lambda: default_epsilon(POINTS[:1]), ZeroExtentError, "at least 2 points"),
    "grid-cell": (lambda: GridIndex(0.0, POINTS), ValueError, "cell_size"),
    "grid-radius": (lambda: GridIndex(1.0, POINTS).within_radius((0.0, 0.0), -1.0), ValueError, "radius"),
    "grid-any-radius": (lambda: GridIndex(1.0, POINTS).any_within_radius(POINTS, -1.0), ValueError, "radius"),
    "domain-points": (lambda: quality.draw_domain_points(POINTS, 0, 0, 1.0), ValueError, "n_points"),
    "statistic": (lambda: quality._stat(np.zeros(1), "mode"), ValueError, "unknown statistic"),
}


@pytest.mark.parametrize("case", sorted(GUARDS))
def test_guard_raises(case):
    call, error, message = GUARDS[case]
    with pytest.raises(error, match=message):
        call()


# Every public entry that takes points: a call of its point arguments, and
# each argument's name in the error and whether it is one point.
POINT_ENTRIES = {
    "surrogate_objective": (lambda s: quality.surrogate_objective(s, UNIT), [("sample", False)]),
    "point_losses": (lambda xs, s: quality.point_losses(xs, s, UNIT), [("plot locations", False), ("sample", False)]),
    "point_loss": (lambda x, s: quality.point_loss(x, s, UNIT), [("plot locations", True), ("sample", False)]),
    "mc_loss": (lambda s, d: quality.mc_loss(s, d, UNIT, n_points=20), [("sample", False), ("data", False)]),
    "log_loss_ratio": (
        lambda s, d: quality.log_loss_ratio(s, d, UNIT, n_points=20),
        [("sample", False), ("data", False)],
    ),
    "evaluate": (lambda s, d: quality.evaluate(s, d, UNIT, n_points=20), [("sample", False), ("data", False)]),
    "draw_domain_points": (lambda d: quality.draw_domain_points(d, 20, 0, 10.0), [("data", False)]),
    "attach_counts": (attach_counts, [("sample", False), ("data", False)]),
    "default_epsilon": (default_epsilon, [("points", False)]),
    "weights_from_points": (lambda p: weights_from_points(p, UNIT), [("points", False)]),
    "submodular_f": (lambda p: quality.submodular_f(p, UNIT), [("points", False)]),
    "marginal_gain": (lambda p, x: quality.marginal_gain(p, x, UNIT), [("points", False), ("x", True)]),
    "any_within_radius": (lambda q: GridIndex(1.0, POINTS).any_within_radius(q, 1.0), [("queries", False)]),
    "nearest_neighbor": (lambda q: GridIndex(1.0, POINTS).nearest_neighbor(q), [("queries", False)]),
    "kappa": (lambda x, s: kappa(x, s, UNIT), [("x", True), ("s", True)]),
    "kappa_tilde": (lambda a, b: kappa_tilde(a, b, UNIT), [("a", True), ("b", True)]),
    "run_interchange": (lambda d: run_interchange(d, InterchangeConfig(k=1), UNIT), [("dataset", False)]),
    "reservoir_sample": (lambda d: reservoir_sample(d, 1), [("dataset", False)]),
    "stratified_sample": (lambda d: stratified_sample(d, StratifiedConfig(2, 1)), [("dataset", False)]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", sorted(POINT_ENTRIES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_point_entries_reject_non_finite_and_misshapen_points(entry, data):
    call, args = POINT_ENTRIES[entry]

    def run(rows):  # a single point is passed as its (2,) row
        return call(*(r[0] if one else r for r, (_, one) in zip(rows, args)))

    n = data.draw(st.integers(2, 12))
    pts = [data.draw(arrays(float, (1 if one else n, 2), elements=st.floats(0, 10))) for _, one in args]
    i = data.draw(st.integers(0, len(args) - 1))
    what, one = args[i]
    bad = [p.copy() for p in pts]
    row, col = data.draw(st.integers(0, len(bad[i]) - 1)), data.draw(st.integers(0, 1))
    bad[i][row, col] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    with pytest.raises(NonFiniteInputError, match=what):
        run(bad)
    wide = list(pts)
    wide[i] = np.hstack((pts[i], pts[i][:, :1]))
    with pytest.raises(ValueError, match=None if one else what):
        run(wide)
