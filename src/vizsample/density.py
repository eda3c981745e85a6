"""Density embedding: per-sample-point counters from a nearest-neighbor pass.

A second scan over the dataset charges every data point to its nearest
sample member (ties broken by the smallest sample index), so the counters
partition the dataset: counts always sum to N.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptySampleError
from .geometry import as_points, bounding_box
from .spatial import GridIndex


def attach_counts(sample_points: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Count, for each sample point, the dataset points it is nearest to."""
    sample, data = as_points(sample_points, "sample"), as_points(data, "data")
    k = len(sample)
    if k == 0:
        raise EmptySampleError("cannot attach counts to an empty sample")

    # About sqrt(K) / 1.5 cells, at least 3, along the diagonal of sample and
    # data: a few members a cell.  Corners divided first keep it finite.
    lo, hi = bounding_box(np.vstack((sample, data)))
    cells = max(3.0, np.sqrt(k) / 1.5)
    cell = float(np.hypot(*(hi / cells - lo / cells))) or 1.0
    return np.bincount(GridIndex(cell, sample).nearest_neighbor(data), minlength=k)
