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

Every kernel sum here walks ``geometry.kernel_blocks``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainRejectionError, EmptySampleError, ExtentRangeError, LossRangeError
from .geometry import KernelParams, bounding_box, gauss, kernel_blocks, sq_distances
from .spatial import GridIndex

_ACCEPT_FLOOR = 1e-6


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
    """Sum of kappa_tilde over unordered pairs; 0 for a singleton.  Walks
    ``kernel_blocks``, so large samples never materialize the pair matrix."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) < 1:
        raise EmptySampleError("objective of an empty sample")
    blocks = kernel_blocks(pts, pts, params.inv_2eps2, upper=True)
    return float(sum(w.sum() for _, w in blocks))


def point_loss(x, sample_points: np.ndarray, params: KernelParams) -> float:
    """Quality degradation 1 / sum_i kappa(x, s_i); inf when the sum is 0,
    which it is when every kappa(x, s_i) is below e**-700 (``EXP_FLOOR``)."""
    return float(point_losses(np.asarray(x, dtype=float).reshape(1, 2), sample_points, params)[0])


def point_losses(xs: np.ndarray, sample_points: np.ndarray, params: KernelParams) -> np.ndarray:
    """Vectorized ``point_loss`` for an (m, 2) array of plot locations."""
    S = np.asarray(sample_points, dtype=float).reshape(-1, 2)
    if len(S) < 1:
        raise EmptySampleError("point loss against an empty sample")
    xs = np.asarray(xs, dtype=float).reshape(-1, 2)
    out = np.empty(len(xs))
    for s, w in kernel_blocks(xs, S, params.inv_eps2):
        denom = w.sum(axis=1)
        # a vanishing denominator maps to the +inf loss sentinel
        with np.errstate(divide="ignore", over="ignore"):
            out[s] = 1.0 / denom
    return out


def draw_domain_points(
    data: np.ndarray, n_points: int, seed: int, domain_radius: float
) -> np.ndarray:
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


def _stat(losses: np.ndarray, stat: str) -> float:
    if stat == "median":
        return float(np.median(losses))
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
        mc_loss_median=float(np.median(losses)),
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
