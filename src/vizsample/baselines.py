"""Comparison samplers: uniform reservoir and grid-stratified sampling.

Stratified sampling runs two passes: the first counts points per grid cell,
quotas are assigned by max-min fair (water-filling) allocation over the
non-empty cells, and the second pass runs an independent reservoir per cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import Sample
from .errors import EmptyDatasetError, ExtentRangeError, InsufficientDataError, KTooLargeError
from .geometry import bounding_box


@dataclass
class StratifiedConfig:
    grid_cells_per_axis: int
    k: int
    seed: int = 0

    def __post_init__(self):
        if self.grid_cells_per_axis < 1:
            raise ValueError("grid_cells_per_axis must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")


def reservoir_sample(data: np.ndarray, k: int, seed: int = 0) -> Sample:
    """Uniform K-subset by single-pass reservoir; K > N is a ``KTooLargeError``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    data = np.asarray(data, dtype=float).reshape(-1, 2)
    n = len(data)
    if n == 0:
        raise EmptyDatasetError("cannot sample an empty dataset")
    if k > n:
        raise KTooLargeError(f"k={k} exceeds dataset size {n}")
    rng = np.random.default_rng(seed)
    # row i >= k draws its slot from [0, i]: one draw per row, in row order
    slots = np.concatenate([np.arange(k), rng.integers(0, np.arange(k + 1, n + 1))])
    idx = _last_writes(slots, k)
    return Sample(data[idx], idx)


def _last_writes(keys: np.ndarray, size: int) -> np.ndarray:
    """What a loop writing ``out[keys[i]] = i`` leaves in out[:size] (every
    key below size occurs): where each of those keys last occurs."""
    first = np.unique(keys[::-1], return_index=True)[1]
    return len(keys) - 1 - first[:size]


def balanced_allocation(bin_counts, k: int) -> list[int]:
    """Max-min fair (water-filling) quotas over bins with the given capacities.

    The level L is the largest integer with sum(min(c, L)) <= k; each bin
    gets min(c, L), and the units left over go one each to the
    lowest-indexed bins with capacity above L.
    """
    counts = [int(c) for c in bin_counts]
    if any(c < 0 for c in counts):
        raise ValueError("bin counts must be non-negative")
    if sum(counts) < k:
        raise InsufficientDataError(f"bins hold {sum(counts)} < k={k}")
    caps = np.array(counts, dtype=np.int64)
    lo, hi = 0, max(counts, default=0)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if np.minimum(caps, mid).sum() <= k:
            lo = mid
        else:
            hi = mid - 1
    quotas = np.minimum(caps, lo)
    quotas[np.flatnonzero(caps > lo)[: max(k - quotas.sum(), 0)]] += 1  # k < 0 asks for none
    return quotas.tolist()


def stratified_sample(data: np.ndarray, cfg: StratifiedConfig) -> Sample:
    """Two-pass stratified sample over a g-by-g grid of the bounding box."""
    data = np.asarray(data, dtype=float).reshape(-1, 2)
    n = len(data)
    if n == 0:
        raise EmptyDatasetError("cannot sample an empty dataset")
    if cfg.k > n:
        raise KTooLargeError(f"k={cfg.k} exceeds dataset size {n}")
    g = cfg.grid_cells_per_axis
    lo, hi = bounding_box(data)
    with np.errstate(over="ignore"):
        width = (hi - lo) / g
    if not np.isfinite(width).all():
        raise ExtentRangeError("no stratified grid over a bounding box wider than float64 can span")
    # column and row of each point, in floats for any g (past g - 1, the least
    # float >= g - 1); an axis of cell width 0 (or one that underflows) is one column
    last = float(g - 1) if float(g - 1) >= g - 1 else np.nextafter(float(g - 1), np.inf)
    c = np.minimum(np.floor((data - lo) / np.where(width > 0, width, 1.0)), last)
    # each point's rank among the occupied cells in row-major order: O(N log N)
    _, cells, counts = np.unique(c[:, ::-1], axis=0, return_inverse=True, return_counts=True)
    quota = np.array(balanced_allocation(counts.tolist(), cfg.k), dtype=np.int64)

    # one reservoir per cell over its rows in row order: a row's rank in its
    # cell is its reservoir's count before it; past the quota it draws its
    # slot from [0, rank], and one outside the quota is dropped
    rows = np.flatnonzero(quota[cells])
    c = cells[rows]
    by_cell = np.argsort(c, kind="stable")
    rank = np.empty(len(c), dtype=np.int64)
    rank[by_cell] = np.arange(len(c)) - np.searchsorted(c[by_cell], c[by_cell])
    q = quota[c]
    slot = rank.copy()
    full = rank >= q
    slot[full] = np.random.default_rng(cfg.seed).integers(0, rank[full] + 1)
    keys = np.where(slot < q, np.cumsum(quota)[c] - q + slot, cfg.k)
    idx = rows[_last_writes(keys, cfg.k)]
    return Sample(data[idx], idx)
