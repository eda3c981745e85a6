"""Density embedding: per-sample-point counters from a nearest-neighbor pass.

A second scan over the dataset charges every data point to its nearest
sample member (ties broken by the smallest sample index), so the counters
partition the dataset: counts always sum to N.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptySampleError
from .geometry import bounding_box
from .spatial import GridIndex


def attach_counts(sample_points: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Count, for each sample point, the dataset points it is nearest to."""
    sample = np.ascontiguousarray(sample_points, dtype=float).reshape(-1, 2)
    data = np.asarray(data, dtype=float).reshape(-1, 2)
    k = len(sample)
    if k == 0:
        raise EmptySampleError("cannot attach counts to an empty sample")

    # Sized from sample and data together, the grid (about sqrt(K) cells a
    # side) bounds every ring walk; a tiny sample alone could need ~1e10.
    lo, hi = bounding_box(np.vstack((sample, data)))
    diag = float(np.hypot(hi[0] - lo[0], hi[1] - lo[1]))
    cell = diag / max(1.0, np.sqrt(k)) if diag > 0 else 1.0
    index = GridIndex(cell, sample)
    for i in range(k):
        index.insert(i)

    counts = np.zeros(k, dtype=np.int64)
    for p in data:
        counts[index.nearest_neighbor(p)] += 1
    return counts
