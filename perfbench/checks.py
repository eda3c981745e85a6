"""Output checks, written against the CSV files alone and without importing
the package, so that a defect in the package cannot hide itself here."""

from __future__ import annotations

import hashlib

import numpy as np

# Relative tolerance between the reported surrogate objective and the
# independent pair sum below.  Both sum the same float64 weights; only the
# summation order differs.
OBJECTIVE_RTOL = 1e-9


def read_csv(path) -> np.ndarray:
    """Rows of a numeric CSV with a one-line header."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def default_epsilon(data: np.ndarray) -> float:
    """The CLI's default bandwidth: bounding-box diagonal / 100."""
    lo, hi = data.min(axis=0), data.max(axis=0)
    return float(np.hypot(hi[0] - lo[0], hi[1] - lo[1])) / 100.0


def check_sample_rows(sample: np.ndarray, data: np.ndarray, k: int) -> str | None:
    """Exactly K sample rows, each a distinct row of the data.  Returns an
    error message, or None when the check passes."""
    if len(sample) != k:
        return f"{len(sample)} rows, expected K={k}"
    rows = {(x, y) for x, y in data.tolist()}
    picked = [(x, y) for x, y in sample[:, :2].tolist()]
    missing = sum(p not in rows for p in picked)
    if missing:
        return f"{missing} sample rows are not rows of the data"
    if len(set(picked)) != k:
        return f"{k - len(set(picked))} sample rows repeat"
    return None


# Cells per temporary block.  A child process inherits the peak RSS of the
# process that starts it, so the benchmark's own blocks must stay well below
# the peak RSS of the processes it measures.
BLOCK_CELLS = 250_000


def nearest_member_counts(members: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Brute-force density counts: each data point goes to its nearest member,
    ties to the smallest member index."""
    chunk = max(1, BLOCK_CELLS // len(members))
    counts = np.zeros(len(members), dtype=np.int64)
    mx, my = members[:, 0], members[:, 1]
    for i0 in range(0, len(data), chunk):
        block = data[i0 : i0 + chunk]
        dx = mx[None, :] - block[:, 0:1]
        dy = my[None, :] - block[:, 1:2]
        # np.argmin returns the first minimum, i.e. the smallest index
        nearest = np.argmin(dx * dx + dy * dy, axis=1)
        counts += np.bincount(nearest, minlength=len(members))
    return counts


def check_density(sample: np.ndarray, data: np.ndarray) -> str | None:
    if sample.shape[1] != 3:
        return "sample has no count column"
    counts = sample[:, 2].astype(np.int64)
    if int(counts.sum()) != len(data):
        return f"counts sum to {int(counts.sum())}, expected N={len(data)}"
    expect = nearest_member_counts(sample[:, :2], data)
    bad = int(np.count_nonzero(counts != expect))
    if bad:
        return f"{bad} counts differ from the brute-force nearest-member recount"
    return None


def pair_sum(points: np.ndarray, epsilon: float) -> float:
    """Sum over unordered pairs of exp(-d^2 / (2 eps^2)), by full blocks."""
    chunk = max(1, BLOCK_CELLS // len(points))
    inv = 1.0 / (2.0 * epsilon * epsilon)
    x, y = points[:, 0], points[:, 1]
    total = 0.0
    for i0 in range(0, len(points), chunk):
        dx = x[i0 : i0 + chunk, None] - x[None, :]
        dy = y[i0 : i0 + chunk, None] - y[None, :]
        total += float(np.exp(-(dx * dx + dy * dy) * inv).sum())
    # the diagonal contributes exp(0) = 1 per point; every pair appears twice
    return (total - len(points)) / 2.0


def check_objective(reported: float, sample: np.ndarray, epsilon: float) -> str | None:
    expect = pair_sum(sample[:, :2], epsilon)
    if abs(reported - expect) > OBJECTIVE_RTOL * max(abs(expect), 1e-300):
        return f"surrogate_objective {reported!r} != independent pair sum {expect!r}"
    return None
