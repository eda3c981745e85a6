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

    # About sqrt(K) / 1.5 cells along the diagonal of sample and data: a few
    # members a cell, so each query cell's block amortizes its numpy calls.
    lo, hi = bounding_box(np.vstack((sample, data)))
    diag = float(np.hypot(hi[0] - lo[0], hi[1] - lo[1]))
    cell = 1.5 * diag / max(1.0, np.sqrt(k)) if diag > 0 else 1.0
    return np.bincount(GridIndex(cell, sample, fill=True).nearest_neighbor(data), minlength=k)
