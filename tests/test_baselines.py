import numpy as np
import pytest

from vizsample.baselines import (
    StratifiedConfig,
    balanced_allocation,
    reservoir_sample,
    stratified_sample,
)
from vizsample.errors import EmptyDatasetError, InsufficientDataError, KTooLargeError


def waterfill_oracle(counts, k):
    """Unit-increment allocation: each unit goes to the non-full bin with the
    smallest quota, ties to the lowest index."""
    quotas = [0] * len(counts)
    for _ in range(k):
        open_bins = [i for i in range(len(counts)) if quotas[i] < counts[i]]
        best = min(open_bins, key=lambda i: (quotas[i], i))
        quotas[best] += 1
    return quotas


def test_reservoir_returns_all_when_k_covers_n():
    data = np.arange(10, dtype=float).reshape(5, 2)
    assert sorted(reservoir_sample(data, 5, seed=1).source_indices) == list(range(5))
    with pytest.raises(KTooLargeError, match="k=9 exceeds dataset size 5"):
        reservoir_sample(data, 9, seed=1)


def test_reservoir_empty_dataset():
    with pytest.raises(EmptyDatasetError):
        reservoir_sample(np.empty((0, 2)), 3)


def test_reservoir_deterministic_and_roughly_uniform():
    data = np.arange(20, dtype=float).reshape(10, 2)
    a = reservoir_sample(data, 3, seed=42).source_indices
    b = reservoir_sample(data, 3, seed=42).source_indices
    assert list(a) == list(b)
    freq = np.zeros(10)
    runs = 2000
    for seed in range(runs):
        freq[reservoir_sample(data, 3, seed=seed).source_indices] += 1
    freq /= runs
    assert np.all(np.abs(freq - 0.3) < 0.05)


def test_balanced_allocation_worked_example():
    assert balanced_allocation([1000, 10], 100) == [90, 10]


def test_balanced_allocation_symmetry_and_capacity():
    assert balanced_allocation([50, 50, 50], 90) == [30, 30, 30]
    assert balanced_allocation([5, 100, 100], 55) == [5, 25, 25]


def test_balanced_allocation_insufficient():
    with pytest.raises(InsufficientDataError):
        balanced_allocation([3, 4], 8)


def test_balanced_allocation_matches_unit_increment_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        nbins = int(rng.integers(1, 8))
        counts = [int(c) for c in rng.integers(0, 40, size=nbins)]
        total = sum(counts)
        if total == 0:
            continue
        k = int(rng.integers(1, total + 1))
        got = balanced_allocation(counts, k)
        assert got == waterfill_oracle(counts, k)
        assert sum(got) == k
        assert all(q <= c for q, c in zip(got, counts))
        uncapped = [q for q, c in zip(got, counts) if q < c]
        if uncapped:
            assert max(uncapped) - min(uncapped) <= 1


def test_stratified_single_cell_reduces_to_reservoir():
    rng = np.random.default_rng(3)
    data = rng.uniform(0, 1, size=(50, 2))
    strat = stratified_sample(data, StratifiedConfig(grid_cells_per_axis=1, k=10, seed=5))
    res = reservoir_sample(data, 10, seed=5)
    assert sorted(strat.source_indices) == sorted(res.source_indices)


def test_stratified_four_equal_cells():
    rng = np.random.default_rng(9)
    # 25 points well inside each quadrant of the unit square
    blocks = []
    for cx, cy in [(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)]:
        blocks.append(np.array([cx, cy]) + rng.uniform(-0.2, 0.2, size=(25, 2)))
    data = np.vstack(blocks)
    sample = stratified_sample(data, StratifiedConfig(grid_cells_per_axis=2, k=8, seed=0))
    assert len(sample) == 8
    quadrant = (data[sample.source_indices] > 0.5).astype(int)
    labels = quadrant[:, 0] + 2 * quadrant[:, 1]
    assert np.bincount(labels, minlength=4).tolist() == [2, 2, 2, 2]


def test_stratified_skewed_matches_waterfill_quotas():
    rng = np.random.default_rng(13)
    data = rng.normal(0, 1, size=(3000, 2))
    g, k = 10, 100
    sample = stratified_sample(data, StratifiedConfig(grid_cells_per_axis=g, k=k, seed=2))
    assert len(sample) == k

    lo = data.min(axis=0)
    hi = data.max(axis=0)
    wx, wy = (hi - lo) / g

    def cell(p):
        ix = min(int((p[0] - lo[0]) / wx), g - 1)
        iy = min(int((p[1] - lo[1]) / wy), g - 1)
        return iy * g + ix

    counts = np.bincount([cell(p) for p in data], minlength=g * g)
    nonempty = np.flatnonzero(counts)
    quotas = waterfill_oracle(counts[nonempty].tolist(), k)
    got = np.bincount([cell(p) for p in data[sample.source_indices]], minlength=g * g)
    assert got[nonempty].tolist() == quotas
    # every charged cell actually contains its sampled points
    assert got.sum() == k


def test_stratified_k_too_large():
    with pytest.raises(KTooLargeError):
        stratified_sample(np.zeros((3, 2)), StratifiedConfig(grid_cells_per_axis=2, k=4))


def reservoir_oracle(n, k, seed):
    """The row loop: one draw per row past the first k."""
    rng = np.random.default_rng(seed)
    chosen = list(range(min(k, n)))
    for i in range(k, n):
        j = int(rng.integers(0, i + 1))
        if j < k:
            chosen[j] = i
    return chosen


def stratified_oracle(data, g, k, seed):
    """The row loop: one reservoir per cell of quota q, fed in row order."""
    lo, hi = data.min(axis=0), data.max(axis=0)
    width = (hi - lo) / g
    c = np.clip(((data - lo) / np.where(width > 0, width, 1.0)).astype(np.int64), 0, g - 1)
    cells = c[:, 1] * g + c[:, 0]
    counts = np.bincount(cells, minlength=g * g)
    nonempty = np.flatnonzero(counts)
    quota = np.zeros(g * g, dtype=np.int64)
    quota[nonempty] = balanced_allocation(counts[nonempty].tolist(), k)
    rng = np.random.default_rng(seed)
    reservoirs = [[] for _ in range(g * g)]
    seen = np.zeros(g * g, dtype=np.int64)
    for i, c in enumerate(cells):
        q = quota[c]
        if q == 0:
            continue
        seen[c] += 1
        if len(reservoirs[c]) < q:
            reservoirs[c].append(i)
        else:
            j = int(rng.integers(0, seen[c]))
            if j < q:
                reservoirs[c][j] = i
    return [i for res in reservoirs for i in res]


def _baseline_data():
    rng = np.random.default_rng(29)
    blobs = np.vstack([rng.normal(m, 0.3, size=(700, 2)) for m in (0.0, 2.0, 5.0)])
    line = np.column_stack([rng.uniform(0, 1, 2100), np.full(2100, 4.0)])  # an axis of zero width
    return {"blobs": blobs, "line": line}


BASELINE_DATA = _baseline_data()


@pytest.mark.parametrize("kind", sorted(BASELINE_DATA))
@pytest.mark.parametrize("seed", [0, 1, 5, 1013])
@pytest.mark.parametrize("k", [1, 7, 200, 2099, 2100])
def test_baselines_match_their_row_loops(kind, seed, k):
    data = BASELINE_DATA[kind]
    got = reservoir_sample(data, k, seed=seed).source_indices
    assert got.dtype == np.int64 and got.tolist() == reservoir_oracle(len(data), k, seed)
    for g in (1, 3, 10, 25):
        got = stratified_sample(data, StratifiedConfig(grid_cells_per_axis=g, k=k, seed=seed)).source_indices
        assert got.dtype == np.int64 and got.tolist() == stratified_oracle(data, g, k, seed)


@pytest.mark.parametrize("g", [10**6, 3037000500, 10**12, 2**70, 2**1000])
def test_stratified_grid_of_any_size_ranks_the_occupied_cells(g):
    # cells far finer than the points: each point is its own cell, so the
    # water-filling gives one unit to each of the first k cells in row-major
    # order; a dense g-by-g grid would not fit in memory
    rng = np.random.default_rng(3)
    data = rng.uniform(0, 1, size=(200, 2))
    sample = stratified_sample(data, StratifiedConfig(grid_cells_per_axis=g, k=17, seed=1))
    assert sorted(sample.source_indices.tolist()) == sorted(np.lexsort(data.T)[:17].tolist())


def test_stratified_past_the_last_cell_stays_in_it():
    # g - 1 = 2**60 + 128 has no float; the nearest below, 2**60, is the cell
    # of row 1, so the top edge row 2 must not be merged into it
    g = 2**60 + 129
    data = np.array([[0.0, 0.0], [0.0, 1.0 - 2.0**-52], [0.0, 1.0]])
    for seed in range(10):
        sample = stratified_sample(data, StratifiedConfig(grid_cells_per_axis=g, k=2, seed=seed))
        assert sorted(sample.source_indices.tolist()) == [0, 1]
