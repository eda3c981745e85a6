"""Every argument guard raises its exception, with its own message."""

import os

import numpy as np
import pytest

from vizsample import quality
from vizsample.baselines import StratifiedConfig, balanced_allocation, reservoir_sample, stratified_sample
from vizsample.errors import EmptyDatasetError, NoEdgesError, ZeroExtentError
from vizsample.exact import (
    WeightedGraph,
    WeightMatrix,
    check_budget,
    export_mip_lp,
    reduce_mes_to_vas,
    solve_mes_brute,
)
from vizsample.geometry import default_epsilon, make_params
from vizsample.interchange import InterchangeConfig, ResponsibilitySet
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
    "expand-expanded": (lambda: _state(1, 2).expand((5.0, 0.0)), ValueError, "already-expanded"),
    "shrink-at-rest": (lambda: _state(1, 1).shrink(), ValueError, "shrink requires"),
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
