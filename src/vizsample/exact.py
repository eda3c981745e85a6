"""Ground-truth solvers and the hardness reduction.

- ``brute_force_vas``: exhaustive minimizer of the pair-weight objective for
  tiny instances (the in-repo oracle for the streaming optimizer).
- ``export_mip_lp``: LP-format export of the binary linearized model, for
  optional solving with an external MIP toolkit.
- ``reduce_mes_to_vas`` / ``solve_mes_brute``: the maximum-edge-subgraph
  reduction and its brute-force counterpart, exercised as an executable
  soundness check.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import BudgetExceededError, InsufficientDataError, KTooLargeError, NoEdgesError
from .geometry import KernelParams, gauss, sq_distances

DEFAULT_SUBSET_BUDGET = 10**7


@dataclass
class WeightMatrix:
    """Symmetric non-negative pair weights with a zero diagonal."""

    w: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        if self.w.ndim != 2 or self.w.shape[0] != self.w.shape[1]:
            raise ValueError("weight matrix must be square")
        if not np.all(np.isfinite(self.w)) or np.any(self.w < 0):
            raise ValueError("weights must be finite and non-negative")
        if not np.allclose(self.w, self.w.T):
            raise ValueError("weight matrix must be symmetric")
        if np.any(np.diagonal(self.w) != 0):
            raise ValueError("diagonal must be zero")

    @property
    def n(self) -> int:
        return self.w.shape[0]


@dataclass
class WeightedGraph:
    vertex_count: int
    edges: list[tuple[int, int, float]]

    def __post_init__(self):
        seen = set()
        for u, v, w in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u},{v}) out of range")
            if not math.isfinite(w) or w < 0:
                raise ValueError(f"edge weight {w} must be finite and >= 0")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)


def weights_from_points(points: np.ndarray, params: KernelParams) -> WeightMatrix:
    """Pairwise kappa_tilde matrix of a point set."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) < 2:
        raise InsufficientDataError(f"need at least 2 points, got {len(pts)}")
    w = gauss(sq_distances(pts, pts), params.inv_2eps2)
    np.fill_diagonal(w, 0.0)
    return WeightMatrix(w)


def _check_budget(n: int, k: int, budget: int) -> None:
    if k < 0:
        raise ValueError(f"k={k} must be >= 0")
    if k > n:
        raise KTooLargeError(f"k={k} exceeds dataset size {n}")
    if math.comb(n, k) > budget:
        raise BudgetExceededError(f"C({n},{k}) exceeds the budget of {budget} subsets")


def brute_force_vas(
    wm: WeightMatrix, k: int, budget: int = DEFAULT_SUBSET_BUDGET
) -> tuple[tuple[int, ...], float]:
    """Exhaustive K-subset minimizer of the induced pair-weight sum.

    Ties keep the lexicographically smallest index tuple (the enumeration
    order of ``itertools.combinations``).
    """
    _check_budget(wm.n, k, budget)
    w = wm.w
    best: tuple[int, ...] | None = None
    best_obj = math.inf
    for subset in combinations(range(wm.n), k):
        obj = 0.0
        for a, b in combinations(subset, 2):
            obj += w[a, b]
        if obj < best_obj:
            best_obj = obj
            best = subset
    return best, best_obj


def reduce_mes_to_vas(g: WeightedGraph, k: int) -> WeightMatrix:
    """Map a maximum-edge-subgraph instance to a pair-weight matrix.

    Each edge (u, v, w) becomes entry w_max - w; vertex pairs without an edge
    get w_max (equivalent to an edge of weight zero), where w_max is the
    maximum edge weight of the graph.
    """
    if not g.edges:
        raise NoEdgesError("graph has no edges")
    if not (0 <= k <= g.vertex_count):
        raise ValueError(f"k={k} out of range for {g.vertex_count} vertices")
    w_max = max(w for _, _, w in g.edges)
    m = np.full((g.vertex_count, g.vertex_count), w_max, dtype=float)
    np.fill_diagonal(m, 0.0)
    for u, v, w in g.edges:
        m[u, v] = w_max - w
        m[v, u] = w_max - w
    return WeightMatrix(m)


def solve_mes_brute(
    g: WeightedGraph, k: int, budget: int = DEFAULT_SUBSET_BUDGET
) -> tuple[tuple[int, ...], float]:
    """Exhaustive K-vertex subset maximizing induced edge weight."""
    if not g.edges:
        raise NoEdgesError("graph has no edges")
    _check_budget(g.vertex_count, k, budget)
    adj = {}
    for u, v, w in g.edges:
        adj[(min(u, v), max(u, v))] = w
    best: tuple[int, ...] | None = None
    best_w = -math.inf
    for subset in combinations(range(g.vertex_count), k):
        total = 0.0
        for a, b in combinations(subset, 2):
            total += adj.get((a, b), 0.0)
        if total > best_w:
            best_w = total
            best = subset
    return best, best_w


def induced_edge_weight(g: WeightedGraph, subset) -> float:
    """Total edge weight induced by a vertex subset."""
    members = set(subset)
    return sum(w for u, v, w in g.edges if u in members and v in members)


def export_mip_lp(wm: WeightMatrix, k: int, sink) -> None:
    """Write the binary linearized exact model in LP text format.

    Variables: a<i> selects point i; b<i>_<j> (i < j, 1-based) linearizes
    a<i> AND a<j> via the three rows c<i>_<j>_1..3.  The objective minimizes
    the pair-weight sum over selected pairs subject to sum a<i> = K.
    """
    if wm.n < 2:
        raise ValueError("model requires n >= 2")
    if k < 1:
        raise ValueError(f"k={k} must be >= 1")
    if k > wm.n:
        raise KTooLargeError(f"k={k} exceeds dataset size {wm.n}")
    if isinstance(sink, (str, bytes)) or hasattr(sink, "__fspath__"):
        with open(sink, "w", encoding="utf-8") as fh:
            _write_lp(wm, k, fh)
    else:
        _write_lp(wm, k, sink)


def _write_lp(wm: WeightMatrix, k: int, fh: io.TextIOBase) -> None:
    n = wm.n
    fh.write("Minimize\n")
    terms = [
        f"+ {format(wm.w[i - 1, j - 1], '.17g')} b{i}_{j}"
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    ]
    fh.write(" obj: " + " ".join(terms) + "\n")
    fh.write("Subject To\n")
    fh.write(" card: " + " + ".join(f"a{i}" for i in range(1, n + 1)) + f" = {k}\n")
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            fh.write(f" c{i}_{j}_1: b{i}_{j} - a{i} <= 0\n")
            fh.write(f" c{i}_{j}_2: b{i}_{j} - a{j} <= 0\n")
            fh.write(f" c{i}_{j}_3: b{i}_{j} - a{i} - a{j} >= -1\n")
    fh.write("Binary\n")
    for i in range(1, n + 1):
        fh.write(f" a{i}\n")
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            fh.write(f" b{i}_{j}\n")
    fh.write("End\n")
