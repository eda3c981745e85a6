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
    """Uniform K-subset by single-pass reservoir; returns everything if n <= k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    data = np.asarray(data, dtype=float).reshape(-1, 2)
    n = len(data)
    if n == 0:
        raise EmptyDatasetError("cannot sample an empty dataset")
    rng = np.random.default_rng(seed)
    chosen = list(range(min(k, n)))
    for i in range(k, n):
        j = int(rng.integers(0, i + 1))
        if j < k:
            chosen[j] = i
    idx = np.array(chosen, dtype=np.int64)
    return Sample(points=data[idx], source_indices=idx, method="uniform")


def balanced_allocation(bin_counts, k: int) -> list[int]:
    """Max-min fair quotas over bins with the given capacities.

    Water-filling: no unit could be moved from a larger-quota bin to a
    smaller-quota bin that still has spare capacity.  Remainder units that
    cannot be split evenly go to lower-indexed bins.
    """
    counts = [int(c) for c in bin_counts]
    if any(c < 0 for c in counts):
        raise ValueError("bin counts must be non-negative")
    if sum(counts) < k:
        raise InsufficientDataError(f"bins hold {sum(counts)} < k={k}")
    nbins = len(counts)
    quotas = [0] * nbins
    by_cap = sorted(range(nbins), key=lambda i: counts[i])
    rem = k
    pos = 0
    while pos < nbins and rem > 0:
        m = nbins - pos
        share = rem // m
        i = by_cap[pos]
        if counts[i] <= share:
            quotas[i] = counts[i]
            rem -= counts[i]
            pos += 1
        else:
            # every remaining bin can absorb the even share (+1 for remainders)
            rest = sorted(by_cap[pos:])
            extra = rem - share * m
            for rank, b in enumerate(rest):
                quotas[b] = share + (1 if rank < extra else 0)
            rem = 0
    return quotas


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
    # column and row of each point; an axis of zero width is one column
    c = np.clip(((data - lo) / np.where(width > 0, width, 1.0)).astype(np.int64), 0, g - 1)
    cells = c[:, 1] * g + c[:, 0]
    counts = np.bincount(cells, minlength=g * g)
    nonempty = np.flatnonzero(counts)  # row-major cell order
    quotas_ne = balanced_allocation(counts[nonempty].tolist(), cfg.k)
    quota = np.zeros(g * g, dtype=np.int64)
    quota[nonempty] = quotas_ne

    rng = np.random.default_rng(cfg.seed)
    reservoirs: list[list[int]] = [[] for _ in range(g * g)]
    seen = np.zeros(g * g, dtype=np.int64)
    for i in range(n):
        c = cells[i]
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

    idx = np.array([i for res in reservoirs for i in res], dtype=np.int64)
    return Sample(points=data[idx], source_indices=idx, method="stratified")
