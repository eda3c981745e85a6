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
``KernelParams.inv_2eps2`` (kappa_tilde).  Dense pair sums over many points
walk ``kernel_blocks``: the same values, one tile of ``BLOCK_CELLS`` = 2**16
pair cells at a time, in buffers that the next tile reuses.  A 512 KiB
float64 tile stays in L2; the 16 MiB blocks of 2**21 cells did not, and a
fresh buffer per block page-faults.  Large blocks also keep every lane on
numpy's fast ``exp`` path, bitwise: ``exp`` costs ~1.4 ns per lane above
-700, ~160 ns in the subnormal band (-745.13, -708) and ~23 ns below it,
where it is 0.0; in ``point_losses`` over the stream-12k benchmark data 57%
of the lanes lie below -708.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ExtentRangeError, ZeroExtentError

# Distance (in units of epsilon) beyond which pair weights are treated as
# zero by locality-accelerated paths.  kappa at 4*eps is ~1.12e-7 and
# kappa_tilde is exp(-8) ~ 3.4e-4 per skipped pair.
DEFAULT_CUTOFF_FACTOR = 4.0

# Most pair cells (rows x columns) in one kernel tile: 512 KiB per float64
# buffer, so a tile's two float64 and two bool buffers (1.1 MiB) stay in a
# 2 MiB L2.  Timing point_losses, surrogate_objective and recompute at the
# benchmark shapes (2-core Xeon VM, numpy 2.4), 2**15 and 2**16 tied; against
# them 2**17 took 15% longer, 2**18 35%, 2**14 13% and 2**13 50% (per-tile
# call overhead).
BLOCK_CELLS = 1 << 16

# Fast-path exp bounds (cost bands in the module docstring): the exponent is
# clamped at FAST_EXP_FLOOR, above which numpy's exp stays fast, and lanes at
# or below EXP_ZERO_BELOW, where exp rounds to 0.0 (from -745.1332191019411
# down), are zeroed.  Blocks under FAST_EXP_MIN_CELLS are not worth the fast
# path's fixed cost of about eight ufunc calls.
FAST_EXP_FLOOR = -700.0
EXP_ZERO_BELOW = -745.2
FAST_EXP_MIN_CELLS = 1 << 12


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
    ``d2`` exceeds ``cutoff2``.  Bitwise equal to ``np.exp(d2 * -inv)`` with
    the lanes beyond the cutoff zeroed afterwards.

    Blocks of ``FAST_EXP_MIN_CELLS`` or more go through ``_exp_block``.  A
    smaller one, such as the optimizer's per-step row, is not worth its
    fixed cost: it takes the plain ``exp``, with the exponent clamped at the
    cutoff (lanes inside the cutoff keep their value: rounding is monotone)."""
    w = d2 * -inv
    if w.size >= FAST_EXP_MIN_CELLS:
        _exp_block(w, d2, inv, cutoff2)
    elif cutoff2 is None:
        np.exp(w, w)  # positional ``out``: a little less call overhead
    else:
        np.maximum(w, -cutoff2 * inv, out=w)
        np.exp(w, w)
        np.putmask(w, d2 > cutoff2, 0.0)
    return w


def _exp_block(w, d2, inv: float, cutoff2: float | None, keep=None, band=None) -> None:
    """Turn the block ``w = d2 * -inv`` into ``gauss(d2, inv, cutoff2)`` in
    place; ``keep`` and ``band`` are optional bool buffers shaped like ``w``.

    A cutoff at or inside ``-FAST_EXP_FLOOR`` bounds the exponent by itself,
    so the exponent is clamped there; otherwise ``_exp_fast`` runs.  Lanes
    beyond the cutoff are zeroed by a multiply with the in-cutoff mask,
    which, unlike a masked write, does not branch per lane."""
    if cutoff2 is not None and cutoff2 * inv <= -FAST_EXP_FLOOR:
        np.maximum(w, -cutoff2 * inv, out=w)
        np.exp(w, w)
    else:
        _exp_fast(w, keep, band)
    if cutoff2 is not None:
        w *= np.less_equal(d2, cutoff2, out=keep)


def _exp_fast(w: np.ndarray, keep=None, band=None) -> None:
    """``np.exp(w, out=w)``, bitwise, with every lane on the fast path: the
    exponent is clamped at ``FAST_EXP_FLOOR``, lanes at or below
    ``EXP_ZERO_BELOW`` (where ``exp`` is exactly 0.0) are zeroed by a
    multiply, and the few lanes in between get ``exp`` of their own value."""
    keep = np.greater_equal(w, FAST_EXP_FLOOR, out=keep)
    band = np.greater(w, EXP_ZERO_BELOW, out=band)
    band ^= keep
    slow = w[band] if band.any() else None
    np.maximum(w, FAST_EXP_FLOOR, out=w)
    np.exp(w, out=w)
    w *= keep
    if slow is not None:
        w[band] = np.exp(slow)


def _block_rows(n: int, rows: int | None) -> int:
    return rows or max(1, BLOCK_CELLS // max(1, n))


def row_blocks(m: int, n: int, rows: int | None = None):
    """Slices over the m rows of an (m, n) pair grid, ``rows`` at a time;
    by default as many as fit in ``BLOCK_CELLS`` (at least one)."""
    step = _block_rows(n, rows)
    for i0 in range(0, m, step):
        yield slice(i0, min(i0 + step, m))


def kernel_blocks(
    a: np.ndarray,
    b: np.ndarray,
    inv: float,
    cutoff2: float | None = None,
    rows: int | None = None,
    upper: bool = False,
):
    """``(s, gauss(sq_distances(a[s], b), inv, cutoff2))`` for each row block
    ``s`` of ``row_blocks(len(a), len(b), rows)``; bitwise the same values.

    With ``upper`` (``b`` is ``a``) a block holds only the columns j >= s.start
    and its entries with j <= i are zeroed, so it sums the unordered pairs
    of its rows.  Every block is a view of one buffer that the next block
    overwrites: use it before advancing.  The reused buffers stay in cache
    and spare an allocation per block: with two or three block-sized
    temporaries alive, glibc hands the heap top back to the system and the
    next block page-faults it in again, which costs more than the kernel."""
    m, n = len(a), len(b)
    bx = np.ascontiguousarray(b[:, 0])
    by = np.ascontiguousarray(b[:, 1])
    cells = min(m, _block_rows(n, rows)) * n
    bufs = (np.empty(cells), np.empty(cells), np.empty(cells, bool), np.empty(cells, bool))
    for s in row_blocks(m, n, rows):
        c0 = s.start if upper else 0
        shape = (s.stop - s.start, n - c0)
        d2, w, keep, band = (x[: shape[0] * shape[1]].reshape(shape) for x in bufs)
        # sq_distances' arithmetic, in the tile buffers
        np.subtract(a[s, 0, None], bx[c0:], out=d2)
        np.subtract(a[s, 1, None], by[c0:], out=w)
        d2 *= d2
        w *= w
        d2 += w
        np.multiply(d2, -inv, out=w)
        _exp_block(w, d2, inv, cutoff2, keep, band)
        if upper:
            for r in range(shape[0]):
                w[r, : r + 1] = 0.0
        yield s, w


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
    all points coincide, ``ExtentRangeError`` when eps has no finite 1/eps^2.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) < 2:
        raise ZeroExtentError("need at least 2 points to derive a bandwidth")
    lo, hi = bounding_box(pts)
    with np.errstate(over="ignore"):
        diag = float(np.hypot(hi[0] - lo[0], hi[1] - lo[1]))
    if diag == 0.0:
        raise ZeroExtentError("all points coincide; specify epsilon explicitly")
    eps = diag / 100.0
    try:
        return KernelParams(epsilon=eps, cutoff_radius=cutoff_factor * eps)
    except ValueError as exc:
        raise ExtentRangeError(f"no bandwidth from a bounding-box diagonal of {diag:g}: {exc}") from None


def make_params(epsilon: float, cutoff_radius: float | None = None) -> KernelParams:
    """Build ``KernelParams`` with the default 4*eps cutoff when unspecified."""
    if cutoff_radius is None:
        cutoff_radius = DEFAULT_CUTOFF_FACTOR * epsilon
    return KernelParams(epsilon=epsilon, cutoff_radius=cutoff_radius)
