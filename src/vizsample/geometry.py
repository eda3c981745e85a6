"""Gaussian proximity kernels, kernel bandwidth heuristic, bounding boxes.

Two kernel forms appear throughout the package:

- ``kappa(x, s)   = exp(-||x - s||^2 / eps^2)``  -- proximity between a plot
  location and a sample point; drives the point-loss metric.
- ``kappa_tilde(a, b) = exp(-||a - b||^2 / (2 eps^2))`` -- the pairwise weight
  minimized by the subset-selection objective.

Both are symmetric, lie in [0, 1], and satisfy
``kappa_tilde = sqrt(kappa)`` for the same bandwidth, where neither is
truncated.

Every kernel value in the package is ``gauss(sq_distances(a, b), inv)``,
with the exponent scale ``KernelParams.inv_eps2`` (kappa) or
``KernelParams.inv_2eps2`` (kappa_tilde).  It is 0 where the exponent
passes ``EXP_FLOOR``: the pair sums drop weights below e**-700, as the
paper's locality cutoff drops those past it.  Batched distances walk
``pair_blocks`` (``kernel_blocks`` is ``gauss`` over it): the ``sq_distances``
values, one tile of ``BLOCK_CELLS`` = 2**16 pair cells at a time, in buffers
that the next tile reuses.  A 512 KiB float64 tile stays in L2; the 16 MiB
blocks of 2**21 cells did not, and a fresh buffer per block page-faults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDatasetError, ExtentRangeError, KTooLargeError, NonFiniteInputError, ZeroExtentError

# Distance (in units of epsilon) beyond which pair weights are treated as
# zero by locality-accelerated paths.  kappa at 4*eps is ~1.12e-7 and
# kappa_tilde is exp(-8) ~ 3.4e-4 per skipped pair.
DEFAULT_CUTOFF_FACTOR = 4.0

# Most pair cells (rows x columns) in one kernel tile: 512 KiB per float64
# buffer, so a tile's two float64 buffers and its bool mask (1.1 MiB) stay in a
# 2 MiB L2.  Timing point_losses, surrogate_objective and recompute at the
# benchmark shapes (2-core Xeon VM, numpy 2.4), 2**15 and 2**16 tied; against
# them 2**17 took 15% longer, 2**18 35%, 2**14 13% and 2**13 50% (per-tile
# call overhead).
BLOCK_CELLS = 1 << 16

# Exponent below which a kernel value is 0: e**-700 ~ 9.9e-305, so a sum
# above about 1e-283 loses nothing to the dropped lanes.  kappa is 0 beyond
# 26.5 eps and kappa_tilde beyond 37.4 eps.
EXP_FLOOR = -700.0


@dataclass(frozen=True)
class KernelParams:
    """Kernel bandwidth and the truncation radius for locality-based paths."""

    epsilon: float
    cutoff_radius: float

    def __post_init__(self):
        try:  # 1/eps**2 raises when eps**2 overflows or underflows to 0
            usable = 0 < self.epsilon < np.inf and np.isfinite(self.inv_eps2)
        except ArithmeticError:
            usable = False
        if not usable:
            raise ValueError(f"epsilon must be a positive real with a finite 1/eps^2, got {self.epsilon}")
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
        return 0.5 * self.inv_eps2  # 2 eps^2 can overflow where eps^2 does not


def sq_distances(a: np.ndarray, b: np.ndarray, d2=None, dy=None) -> np.ndarray:
    """Squared distances dx*dx + dy*dy, shape (m, n), between float arrays
    ``a`` (m, 2) and ``b`` (n, 2); a single point (2,) drops its axis.
    ``d2`` (the result) and ``dy`` are optional output buffers of that shape.
    It converts nothing: the optimizer calls it on every step."""
    d2 = np.subtract(a[..., 0, None], b[..., 0], out=d2)
    dy = np.subtract(a[..., 1, None], b[..., 1], out=dy)
    d2 *= d2
    dy *= dy
    d2 += dy
    return d2


def gauss(d2: np.ndarray, inv: float, cutoff2: float | None = None, w=None, keep=None) -> np.ndarray:
    """Gaussian kernel exp(-d2 * inv) of squared distances ``d2``: bitwise
    ``np.exp(d2 * -inv)`` where ``d2`` is within the reach, 0 beyond it.

    The reach is ``cutoff2``, or less where the exponent passes
    ``EXP_FLOOR``; it is unbounded when ``inv`` is 0.  The exponent is
    clamped at the reach, which keeps every lane on numpy's fast ``exp``
    (rounding is monotone, so no lane within the reach moves), and the
    lanes beyond it are zeroed by a multiply with the in-reach mask.
    ``w`` (float) and ``keep`` (bool), shaped like ``d2``, are optional
    buffers for the result and the mask."""
    reach2 = math.inf if cutoff2 is None else cutoff2
    if inv:
        reach2 = min(reach2, -EXP_FLOOR / inv)
    w = np.multiply(d2, -inv, w)
    if reach2 < math.inf:
        np.maximum(w, -reach2 * inv, out=w)
    np.exp(w, w)
    w *= np.less_equal(d2, reach2, keep)
    return w


def pair_blocks(a: np.ndarray, b: np.ndarray, bufs=None):
    """``(s, d2, w, keep)`` for each slice ``s`` of as many rows of ``a`` as
    fit in ``BLOCK_CELLS`` pairs with ``b`` (at least one): ``d2`` holds
    bitwise ``sq_distances(a[s], b)``, and ``w`` (float) and ``keep`` (bool)
    are free scratch tiles of its shape.

    Every tile is a view of one buffer that the next block overwrites: use
    it before advancing.  The reused buffers stay in cache and spare an
    allocation per block: with two or three block-sized temporaries alive,
    glibc hands the heap top back to the system and the next block
    page-faults it in again, which costs more than the kernel.  A caller
    with many small walks passes its own flat float, float and bool ``bufs``
    of at least max(``BLOCK_CELLS``, len(b)) cells, for the same reason."""
    m, n = len(a), len(b)
    b = np.asfortranarray(b)  # contiguous columns
    step = max(1, BLOCK_CELLS // max(1, n))
    if bufs is None:
        cells = min(m, step) * n
        bufs = (np.empty(cells), np.empty(cells), np.empty(cells, bool))
    for s in (slice(i, min(i + step, m)) for i in range(0, m, step)):
        shape = (s.stop - s.start, n)
        d2, w, keep = (x[: shape[0] * shape[1]].reshape(shape) for x in bufs)
        with np.errstate(over="ignore"):  # an inf is out of every reach
            sq_distances(a[s], b, d2, w)
        yield s, d2, w, keep


def kernel_blocks(
    a: np.ndarray, b: np.ndarray, inv: float, cutoff2: float | None = None, upper: bool = False, bufs=None
):
    """``(s, gauss(sq_distances(a[s], b), inv, cutoff2))`` for each block of
    ``pair_blocks(a, b, bufs)``, in its ``w`` tile; bitwise the same values.
    With ``upper`` (``a`` a prefix of ``b``) the entries with j <= i are zeroed:
    a block sums the unordered pairs of its rows, however rows are split."""
    for s, d2, w, keep in pair_blocks(a, b, bufs):
        gauss(d2, inv, cutoff2, w, keep)
        if upper:
            np.copyto(w[:, : s.stop], 0.0, where=np.tri(len(w), s.stop, s.start, dtype=bool))
        yield s, w


def as_points(points, what: str) -> np.ndarray:
    """``points`` as a C-contiguous (n, 2) float64 array, the one check of a
    point array at every public entry that takes one.  An empty input of any
    shape is (0, 2); another shape raises ``ValueError``, and a NaN or
    infinite coordinate ``NonFiniteInputError``, both naming ``what``."""
    pts = np.ascontiguousarray(points, dtype=float)
    if not pts.size:
        return pts.reshape(0, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"{what} must be an (n, 2) array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise NonFiniteInputError(f"{what} contains NaN or infinite coordinates")
    return pts


def as_dataset(data, k: int) -> np.ndarray:
    """``as_points(data, "dataset")`` for a sampler of ``k`` points: an empty
    dataset raises ``EmptyDatasetError``, one of fewer than ``k`` rows
    ``KTooLargeError``."""
    pts = as_points(data, "dataset")
    if not len(pts):
        raise EmptyDatasetError("cannot sample an empty dataset")
    if k > len(pts):
        raise KTooLargeError(f"k={k} exceeds dataset size {len(pts)}")
    return pts


@np.errstate(over="ignore")  # huge coordinates: an inf squared distance weighs 0
def _one_pair(a, b, inv: float, names) -> float:
    a, b = (as_points(np.reshape(p, (1, 2)), what) for p, what in zip((a, b), names))
    return float(gauss(sq_distances(a[0], b), inv)[0])


def kappa(x, s, params: KernelParams) -> float:
    """Proximity exp(-d^2/eps^2) between plot location ``x`` and point ``s``."""
    return _one_pair(x, s, params.inv_eps2, ("x", "s"))


def kappa_tilde(a, b, params: KernelParams) -> float:
    """Pair weight exp(-d^2/(2 eps^2)) between two sample points."""
    return _one_pair(a, b, params.inv_2eps2, ("a", "b"))


def bounding_box(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned bounding box (min corner, max corner) of an (n, 2) array."""
    pts = np.asarray(points, dtype=float)
    return pts.min(axis=0), pts.max(axis=0)


def default_epsilon(points: np.ndarray) -> KernelParams:
    """Bandwidth heuristic: bounding-box diagonal / 100, with the default
    ``DEFAULT_CUTOFF_FACTOR`` * eps cutoff.

    The diagonal over-estimates the max pairwise distance by at most sqrt(2)
    and avoids the O(n^2) exact computation.  Raises ``ZeroExtentError`` when
    all points coincide, ``ExtentRangeError`` when eps has no finite 1/eps^2.
    """
    pts = as_points(points, "points")
    if len(pts) < 2:
        raise ZeroExtentError("need at least 2 points to derive a bandwidth")
    lo, hi = bounding_box(pts)
    with np.errstate(over="ignore"):
        diag = float(np.hypot(hi[0] - lo[0], hi[1] - lo[1]))
    if diag == 0.0:
        raise ZeroExtentError("all points coincide; specify epsilon explicitly")
    eps = diag / 100.0
    try:
        return KernelParams(epsilon=eps, cutoff_radius=DEFAULT_CUTOFF_FACTOR * eps)
    except ValueError as exc:
        raise ExtentRangeError(f"no bandwidth from a bounding-box diagonal of {diag:g}: {exc}") from None


def make_params(epsilon: float, cutoff_radius: float | None = None) -> KernelParams:
    """Build ``KernelParams`` with the default 4*eps cutoff when unspecified."""
    if cutoff_radius is None:
        cutoff_radius = DEFAULT_CUTOFF_FACTOR * epsilon
    return KernelParams(epsilon=epsilon, cutoff_radius=cutoff_radius)
