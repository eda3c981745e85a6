"""Gaussian proximity kernels, kernel bandwidth heuristic, bounding boxes.

Two kernel forms appear throughout the package:

- ``kappa(x, s)   = exp(-||x - s||^2 / eps^2)``  -- proximity between a plot
  location and a sample point; drives the point-loss metric.
- ``kappa_tilde(a, b) = exp(-||a - b||^2 / (2 eps^2))`` -- the pairwise weight
  minimized by the subset-selection objective.

Both are symmetric, lie in (0, 1], and satisfy
``kappa_tilde = sqrt(kappa)`` for the same bandwidth.

Every kernel value in the package is ``gauss(sq_distances(a, b), inv)``,
with the exponent scale ``KernelParams.inv_eps2`` (kappa) or
``KernelParams.inv_2eps2`` (kappa_tilde).  Pair sums over many points walk
``row_blocks`` so that no block holds more than ``BLOCK_CELLS`` pair cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroExtentError

# Distance (in units of epsilon) beyond which pair weights are treated as
# zero by locality-accelerated paths.  kappa at 4*eps is ~1.12e-7 and
# kappa_tilde is exp(-8) ~ 3.4e-4 per skipped pair.
DEFAULT_CUTOFF_FACTOR = 4.0

# Most pair cells (rows x columns) in one kernel block: ~16 MiB per float64 temporary.
BLOCK_CELLS = 1 << 21


@dataclass(frozen=True)
class KernelParams:
    """Kernel bandwidth and the truncation radius for locality-based paths."""

    epsilon: float
    cutoff_radius: float

    def __post_init__(self):
        if not np.isfinite(self.epsilon) or self.epsilon <= 0:
            raise ValueError(f"epsilon must be a finite positive real, got {self.epsilon}")
        if not np.isfinite(self.cutoff_radius) or self.cutoff_radius < self.epsilon:
            raise ValueError(
                f"cutoff_radius must be finite and >= epsilon, got {self.cutoff_radius}"
            )

    @property
    def inv_eps2(self) -> float:
        """Exponent scale 1/eps^2 of ``kappa``."""
        return 1.0 / self.epsilon**2

    @property
    def inv_2eps2(self) -> float:
        """Exponent scale 1/(2 eps^2) of ``kappa_tilde``."""
        return 1.0 / (2.0 * self.epsilon**2)


def sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances dx*dx + dy*dy, shape (m, n), between float arrays
    ``a`` (m, 2) and ``b`` (n, 2); a single point (2,) drops its axis.  It
    converts nothing: the optimizer calls it on every step."""
    d2 = a[..., 0, None] - b[..., 0]
    dy = a[..., 1, None] - b[..., 1]
    d2 *= d2
    dy *= dy
    d2 += dy
    return d2


def gauss(d2: np.ndarray, inv: float, cutoff2: float | None = None) -> np.ndarray:
    """Gaussian kernel exp(-d2 * inv) of squared distances ``d2``; zero where
    ``d2`` exceeds ``cutoff2``."""
    w = d2 * -inv
    np.exp(w, out=w)
    if cutoff2 is not None:
        w[d2 > cutoff2] = 0.0
    return w


def row_blocks(m: int, n: int, rows: int | None = None):
    """Slices over the m rows of an (m, n) pair grid, ``rows`` at a time;
    by default as many as fit in ``BLOCK_CELLS`` (at least one)."""
    step = rows or max(1, BLOCK_CELLS // max(1, n))
    for i0 in range(0, m, step):
        yield slice(i0, min(i0 + step, m))


def _one_pair(a, b, inv: float) -> float:
    d2 = sq_distances(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    return float(gauss(d2, inv)[0])


def kappa(x, s, params: KernelParams) -> float:
    """Proximity exp(-d^2/eps^2) between plot location ``x`` and point ``s``."""
    return _one_pair(x, s, params.inv_eps2)


def kappa_tilde(a, b, params: KernelParams) -> float:
    """Pair weight exp(-d^2/(2 eps^2)) between two sample points."""
    return _one_pair(a, b, params.inv_2eps2)


def bounding_box(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned bounding box (min corner, max corner) of an (n, 2) array."""
    pts = np.asarray(points, dtype=float)
    return pts.min(axis=0), pts.max(axis=0)


def default_epsilon(points: np.ndarray, cutoff_factor: float = DEFAULT_CUTOFF_FACTOR) -> KernelParams:
    """Bandwidth heuristic: bounding-box diagonal / 100.

    The diagonal over-estimates the max pairwise distance by at most sqrt(2)
    and avoids the O(n^2) exact computation.  Raises ``ZeroExtentError`` when
    all points coincide.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) < 2:
        raise ZeroExtentError("need at least 2 points to derive a bandwidth")
    lo, hi = bounding_box(pts)
    diag = float(np.hypot(hi[0] - lo[0], hi[1] - lo[1]))
    if diag == 0.0:
        raise ZeroExtentError("all points coincide; specify epsilon explicitly")
    eps = diag / 100.0
    return KernelParams(epsilon=eps, cutoff_radius=cutoff_factor * eps)


def make_params(epsilon: float, cutoff_radius: float | None = None) -> KernelParams:
    """Build ``KernelParams`` with the default 4*eps cutoff when unspecified."""
    if cutoff_radius is None:
        cutoff_radius = DEFAULT_CUTOFF_FACTOR * epsilon
    return KernelParams(epsilon=epsilon, cutoff_radius=cutoff_radius)
