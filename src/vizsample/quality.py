"""Quality metrics for samples.

- ``surrogate_objective``: the pairwise kappa_tilde sum the optimizer minimizes.
- ``point_loss`` / ``mc_loss``: Monte-Carlo estimate of the visualization loss
  (reciprocal kernel-density coverage), evaluated on seeded points restricted
  to the data domain.
- ``log_loss_ratio``: log10 of a sample's loss relative to the full dataset's,
  computed on the identical Monte-Carlo point set for both sides.
- ``submodular_f`` / ``marginal_gain``: the complementary pair-sum variant and
  its closed-form gains, used as algebraic diagnostics.
- ``bound_check``: the normalized 1/4 additive bound between an approximate
  objective and the optimum.

The objective walks ``geometry.kernel_blocks`` over sorted strips one kernel
reach wide, skipping pairs below e**-50 (``surrogate_objective``); the
complement ``submodular_f`` walks every pair.  The point losses walk grid
windows (``GridIndex.scan``) that skip only points below e**-40 times a row's
largest weight, so a sum over n points loses at most n * e**-40 of itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainRejectionError, EmptySampleError, ExtentRangeError, LossRangeError, NonFiniteInputError
from .geometry import BLOCK_CELLS, EXP_FLOOR, KernelParams, bounding_box, gauss, kernel_blocks, sq_distances
from .spatial import GridIndex

_ACCEPT_FLOOR = 1e-6

# Rows per block of ``_strip_sum``: 64 beat 32, 128 and 256 at K = 5,000.
STRIP_ROWS = 64


@dataclass
class QualityReport:
    surrogate_objective: float
    mc_loss_mean: float
    mc_loss_median: float
    log_loss_ratio: float
    n_mc_points: int
    seed: int

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    def to_text(self) -> str:
        return "\n".join(f"{k}={v!r}" for k, v in asdict(self).items())


def surrogate_objective(points: np.ndarray, params: KernelParams) -> float:
    """Sum of kappa_tilde over unordered pairs; 0 for a singleton.

    ``_strip_sum`` skips pairs weighing below e**-50: n points lose under
    n(n-1)/2 * e**-50.  Where that bound passes 2**-52 of the sum, a second
    walk reaches as far as the bound calls for (at most past ``EXP_FLOOR``),
    so the result is the dense pair sum to within 2**-52 of itself, besides
    summation order."""
    pts = _finite(points, "sample")
    if len(pts) < 1:
        raise EmptySampleError("objective of an empty sample")
    inv, pairs = params.inv_2eps2, len(pts) * (len(pts) - 1) / 2
    total = _strip_sum(pts, inv, 50.0)
    # the exponent a at which pairs * e**-a is 2**-52 of the first sum
    need = math.log(pairs) + 52 * math.log(2) - math.log(total) if total else math.inf
    if need > 50.0:
        # one past the floor, so no rounding at a strip's edge drops a pair gauss keeps
        total = _strip_sum(pts, inv, min(need, 1 - EXP_FLOOR))
    return total


def _strip_sum(pts: np.ndarray, inv: float, exponent: float) -> float:
    """Sum of kappa_tilde over the pairs of ``pts`` within reach =
    sqrt(exponent / inv) of each other, and some beyond it.  One sorted copy
    holds strips of x at least one reach wide (one strip where an x
    difference overflows), by y within each.  Blocks of ``STRIP_ROWS`` rows
    meet two contiguous slices of it: the rest of their strip up to their
    last y + reach, and the next strip's rows within reach in y."""
    reach = math.sqrt(exponent / inv) if inv else math.inf
    with np.errstate(over="ignore", invalid="ignore"):  # an inf difference: inf / inf is NaN, strip 0
        x = pts[:, 0] - pts[:, 0].min()
        # strips narrower than STRIP_ROWS points on average would cost more calls than they skip lanes
        strip = np.nan_to_num(np.floor(x / max(reach, x.max() * STRIP_ROWS / len(x))), nan=0.0)
    order = np.lexsort((pts[:, 1], strip))
    p, strip = pts[order], strip[order]
    y = p[:, 1]
    cells = max(BLOCK_CELLS, len(p))
    bufs = (np.empty(cells), np.empty(cells), np.empty(cells, bool))

    def tiles(a, b, upper=False):
        return sum(w.sum() for _, w in kernel_blocks(a, b, inv, upper=upper, bufs=bufs))

    edges = [0, *(np.flatnonzero(np.diff(strip)) + 1).tolist(), len(p)]
    total = 0.0
    for i, (a0, a1) in enumerate(zip(edges, edges[1:])):
        a2 = edges[i + 2] if a1 < len(p) and strip[a1] == strip[a0] + 1 else a1
        r0 = np.arange(a0, a1, STRIP_ROWS)
        r1 = np.minimum(r0 + STRIP_ROWS, a1)
        top = y[r1 - 1] + reach
        for lo, hi, own, n0, n1 in zip(*(v.tolist() for v in (
            r0, r1, a0 + np.searchsorted(y[a0:a1], top, "right"),
            a1 + np.searchsorted(y[a1:a2], y[r0] - reach), a1 + np.searchsorted(y[a1:a2], top, "right"),
        ))):
            total += tiles(p[lo:hi], p[lo:own], upper=True)
            if n0 < n1:
                total += tiles(p[lo:hi], p[n0:n1])
    return float(total)


def point_loss(x, sample_points: np.ndarray, params: KernelParams) -> float:
    """Quality degradation 1 / sum_i kappa(x, s_i), summed as ``point_losses``
    sums it; inf when every kappa(x, s_i) is below e**-700 (``EXP_FLOOR``)."""
    return float(point_losses(np.asarray(x, dtype=float).reshape(1, 2), sample_points, params)[0])


@np.errstate(over="ignore", divide="ignore")  # a vanishing sum maps to the +inf loss sentinel
def point_losses(xs: np.ndarray, sample_points: np.ndarray, params: KernelParams) -> np.ndarray:
    """Vectorized ``point_loss`` for an (m, 2) array of plot locations.

    Each row sums kappa over a ``GridIndex.scan`` window of the n sample
    points.  A row is settled once every point outside its window weighs
    below e**-40 times its largest weight, or 0 (past the e**-700 reach), so
    a sum loses at most n * e**-40 of itself.  Cells of sqrt(45) eps settle
    the rows with a point within sqrt(5) eps in their first window."""
    S = _finite(sample_points, "sample")
    if len(S) < 1:
        raise EmptySampleError("point loss against an empty sample")
    xs, inv = _finite(xs, "plot locations"), params.inv_eps2
    sums = np.empty(len(xs))

    def visit(rows, ids, far2, d2, w, keep):
        best = d2.min(axis=1, initial=math.inf)
        sums[rows] = gauss(d2, inv, None, w, keep).sum(axis=1)
        return (best * inv + 40 <= far2 * inv) | (far2 * inv > -EXP_FLOOR)

    GridIndex(math.sqrt(45.0) * params.epsilon, S).scan(xs, visit)
    return 1.0 / sums


def _finite(points, what: str) -> np.ndarray:
    pts = np.ascontiguousarray(points, dtype=float).reshape(-1, 2)
    if not np.isfinite(pts).all():
        raise NonFiniteInputError(f"{what} contains NaN or infinite coordinates")
    return pts


def draw_domain_points(data: np.ndarray, n_points: int, seed: int, domain_radius: float) -> np.ndarray:
    """Seeded uniform points in the data bounding box, kept only when within
    ``domain_radius`` of some dataset point, until ``n_points`` are accepted.

    Points are drawn in batches of ``max(256, n_points)``, and tested 1, 2,
    4, ... batches at a time (at most 2**16 points): the same draws, in one
    membership query each."""
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    data = np.ascontiguousarray(data, dtype=float).reshape(-1, 2)
    lo, hi = bounding_box(data)
    with np.errstate(over="ignore"):
        if not np.isfinite(hi - lo).all():
            raise ExtentRangeError("no uniform draws in a bounding box wider than float64 can span")
    rng = np.random.default_rng(seed)
    # with cells of r/3, a point in the 3x3 cells around a draw accepts it
    index = GridIndex(domain_radius / 3 or 1.0, data)

    accepted: list[np.ndarray] = []
    taken = drawn = 0
    batch = max(256, n_points)
    runs = 1
    while taken < n_points:
        qs = rng.uniform(lo, hi, size=(runs, batch, 2))
        hits = index.any_within_radius(qs.reshape(-1, 2), domain_radius).reshape(runs, batch)
        for q, hit in zip(qs, hits):
            drawn += batch
            accepted.append(q[hit])
            taken = min(taken + len(accepted[-1]), n_points)
            if drawn >= 1_000_000 and taken / drawn < _ACCEPT_FLOOR:
                raise DomainRejectionError(f"acceptance rate {taken}/{drawn} below {_ACCEPT_FLOOR}")
            if taken == n_points:
                break
        runs = min(2 * runs, max(1, 2**16 // batch))
    return np.concatenate(accepted)[:n_points]


def _median(a: np.ndarray) -> float:
    """Bitwise ``np.median`` of a NaN-free 1-D array, without the ``numpy.ma``
    import (about 6 ms) that ``np.median`` costs a process."""
    mid = [(len(a) - 1) // 2, len(a) // 2]
    return float(np.mean(np.partition(a, mid)[mid[0] : mid[1] + 1]))


def _stat(losses: np.ndarray, stat: str) -> float:
    if stat == "median":
        return _median(losses)
    if stat == "mean":
        return float(np.mean(losses))
    raise ValueError(f"unknown statistic {stat!r}")


def _mc_points(data, params: KernelParams, n_points: int, seed: int, domain_radius) -> np.ndarray:
    """The seeded Monte-Carlo plot locations; ``domain_radius`` defaults to 10 eps."""
    if domain_radius is None:
        domain_radius = 10.0 * params.epsilon
    return draw_domain_points(data, n_points, seed, domain_radius)


def _log_ratio(losses: np.ndarray, xs: np.ndarray, data, params: KernelParams, stat: str) -> float:
    """log10 of the sample's loss statistic over the full dataset's on ``xs``."""
    full = _stat(point_losses(xs, data, params), stat)
    if full == math.inf:  # zero kernel sums: the sample's loss is inf too, and inf / inf is nan
        raise LossRangeError(f"the dataset's own {stat} loss is infinite at epsilon {params.epsilon:g}")
    return math.log10(_stat(losses, stat) / full)


def mc_loss(
    sample_points: np.ndarray,
    data: np.ndarray,
    params: KernelParams,
    n_points: int = 1000,
    seed: int = 0,
    domain_radius: float | None = None,
    stat: str = "median",
) -> float:
    """Monte-Carlo visualization loss of a sample over the data domain."""
    xs = _mc_points(data, params, n_points, seed, domain_radius)
    return _stat(point_losses(xs, sample_points, params), stat)


def log_loss_ratio(
    sample_points: np.ndarray,
    data: np.ndarray,
    params: KernelParams,
    n_points: int = 1000,
    seed: int = 0,
    domain_radius: float | None = None,
    stat: str = "median",
) -> float:
    """log10(loss(sample)/loss(data)) on one shared Monte-Carlo point set."""
    xs = _mc_points(data, params, n_points, seed, domain_radius)
    return _log_ratio(point_losses(xs, sample_points, params), xs, data, params, stat)


def evaluate(
    sample_points: np.ndarray,
    data: np.ndarray,
    params: KernelParams,
    n_points: int = 1000,
    seed: int = 0,
    domain_radius: float | None = None,
    stat: str = "median",
) -> QualityReport:
    """Full quality report; numerator and denominator share one MC point set.
    An infinite loss, which JSON cannot carry, raises ``LossRangeError``."""
    xs = _mc_points(data, params, n_points, seed, domain_radius)
    losses = point_losses(xs, sample_points, params)
    report = QualityReport(
        surrogate_objective=surrogate_objective(sample_points, params),
        mc_loss_mean=float(np.mean(losses)),
        mc_loss_median=_median(losses),
        log_loss_ratio=_log_ratio(losses, xs, data, params, stat),
        n_mc_points=n_points,
        seed=seed,
    )
    for name in ("mc_loss_mean", "mc_loss_median", "log_loss_ratio"):
        if getattr(report, name) == math.inf:
            raise LossRangeError(f"the sample's {name} is infinite at epsilon {params.epsilon:g}")
    return report


def submodular_f(points: np.ndarray, params: KernelParams) -> float:
    """Pair sum of (1 - kappa_tilde); complements the surrogate objective:
    f(S) + objective(S) = |S|(|S|-1)/2."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    blocks = kernel_blocks(pts, pts, params.inv_2eps2, upper=True)
    return float(sum(np.triu(1.0 - w, 1).sum() for _, w in blocks))


@np.errstate(over="ignore")  # huge coordinates: an inf squared distance weighs 0
def marginal_gain(points: np.ndarray, x, params: KernelParams) -> float:
    """Closed-form f(S + {x}) - f(S) = sum_i (1 - kappa_tilde(x, s_i))."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    w = gauss(sq_distances(np.asarray(x, dtype=float), pts), params.inv_2eps2)
    return float((1.0 - w).sum())


def bound_check(approx_objective: float, opt_objective: float, k: int) -> tuple[float, float, bool]:
    """Normalized additive bound: obj(approx)/(K(K-1)) <= 1/4 + obj(opt)/(K(K-1))."""
    if k < 2:
        raise ValueError("bound requires K >= 2")
    norm = 1.0 / (k * (k - 1))
    lhs = norm * approx_objective
    rhs = 0.25 + norm * opt_objective
    return lhs, rhs, lhs <= rhs
