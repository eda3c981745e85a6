"""Streaming Interchange local search over a K-point responsibility set.

The optimizer keeps the current sample together with one responsibility
accumulator per member: the (unhalved) sum of pair weights to every other
member.  Each incoming point is tentatively added (``expand``), then the
member with the largest responsibility is evicted (``shrink``), which is
equivalent to taking the best single replacement, or keeping the set when no
replacement lowers the objective.

Three execution modes:

- ``noes``  -- reference path (the oracle for the other two): responsibilities
  of the expanded set are recomputed from scratch (O(K^2) per point), then
  the same eviction rule as ``es`` applies.
- ``es``    -- incremental expand/shrink bookkeeping (O(K) per point).
- ``esloc`` -- like ``es`` but pair weights beyond the cutoff radius are
  treated as zero, with a grid index over the member slots locating the
  affected members.

``noes`` and ``es`` produce identical samples on identical streams; ``esloc``
differs only by per-pair truncation error.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .dataio import Sample
from .errors import EmptyDatasetError, KTooLargeError, NonFiniteInputError
from .geometry import KernelParams, gauss, row_blocks, sq_distances
from .quality import surrogate_objective
from .spatial import GridIndex

MODES = ("noes", "es", "esloc")


@dataclass
class InterchangeConfig:
    k: int
    passes: int = 1
    seed: int = 0
    shuffle: bool = True
    mode: str = "esloc"
    recompute_interval: int = 100_000
    until_converged: bool = False
    time_budget_secs: float | None = None
    record_trace: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.passes < 1:
            raise ValueError("passes must be >= 1")
        if self.recompute_interval < 1:
            raise ValueError("recompute_interval must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass
class RunStats:
    points_seen: int = 0
    replacements: int = 0
    final_objective: float = 0.0
    wall_time: float = 0.0
    passes_run: int = 0
    max_drift: float = 0.0
    objective_trace: list[float] = field(default_factory=list)


class _SlotGrid(GridIndex):
    """The members' grid.  Its ids are slots of ``pts``, so ``within_radius``
    tests distances in numpy, returns an array of slots, and leaves their
    squared distances in ``d2`` for the kernel."""

    def __init__(self, cell_size: float, pts: np.ndarray):
        super().__init__(cell_size)
        self._slot_pts = pts

    def _in_ball(self, ids: list[int], center, r: float) -> np.ndarray:
        slots = np.array(ids, dtype=np.intp)
        d2 = sq_distances(center, self._slot_pts[slots])
        keep = d2 <= r * r
        self.d2 = d2[keep]
        return slots[keep]


class ResponsibilitySet:
    """The optimizer state: points, responsibilities, insertion order.

    Capacity is K+1; the set transiently holds K+1 entries between ``expand``
    and ``shrink``.  In ``esloc`` mode a grid index over the members is kept
    in sync; its ids are slots, relabelled in place when a removal moves the
    last slot, so the cell order of its members is their insertion order.
    """

    def __init__(self, k: int, params: KernelParams, mode: str = "es"):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        cap = k + 1
        self.k = k
        self.params = params
        self.mode = mode
        self.pts = np.empty((cap, 2), dtype=float)
        self.rsp = np.zeros(cap, dtype=float)
        self.order = np.empty(cap, dtype=np.int64)
        self.src = np.empty(cap, dtype=np.int64)
        self.n = 0
        self._seq = 0
        self.last_removed_src = -1
        self._inv = params.inv_2eps2
        self.index = _SlotGrid(params.cutoff_radius, self.pts) if mode == "esloc" else None
        # contributions of the most recent expand: (slot array, weight array)
        self._last_slots: np.ndarray | None = None
        self._last_contrib: np.ndarray | None = None

    # -- queries ---------------------------------------------------------

    @property
    def points(self) -> np.ndarray:
        return self.pts[: self.n]

    @property
    def source_indices(self) -> np.ndarray:
        return self.src[: self.n]

    def objective(self) -> float:
        """Surrogate objective implied by the stored responsibilities."""
        return float(self.rsp[: self.n].sum()) / 2.0

    def exact_objective(self) -> float:
        """Untruncated pair-sum objective recomputed from the points."""
        if self.n < 2:
            return 0.0
        return surrogate_objective(self.points, self.params)

    # -- kernel helpers --------------------------------------------------

    def _weights_to(self, p) -> tuple[np.ndarray, np.ndarray]:
        """(slots, kappa_tilde weights) of the members interacting with the
        float point ``p``: all of them, or in ``esloc`` those within the
        cutoff radius, in ``within_radius`` order."""
        if self.mode != "esloc":
            d2 = sq_distances(p, self.pts[: self.n])
            return np.arange(self.n, dtype=np.intp), gauss(d2, self._inv)
        slots = self.index.within_radius(p, self.params.cutoff_radius)
        return slots, gauss(self.index.d2, self._inv)

    # -- mutations -------------------------------------------------------

    def expand(self, point, source_index: int = -1) -> None:
        """Insert ``point``; its responsibility is the weight sum to current
        members, whose responsibilities grow by their weight to ``point``."""
        if self.n > self.k:
            raise ValueError("expand on an already-expanded set")
        p = np.asarray(point, dtype=float)
        slots, contrib = self._weights_to(p)
        if len(slots):
            self.rsp[slots] += contrib
        slot = self.n
        self.pts[slot] = p
        self.rsp[slot] = float(contrib.sum())
        self.order[slot] = self._seq
        self.src[slot] = source_index
        if self.index is not None:
            self.index.insert(slot, p)
        self._seq += 1
        self.n += 1
        self._last_slots = slots
        self._last_contrib = contrib

    def shrink(self) -> bool:
        """Evict the max-responsibility entry (ties: most recently inserted).

        Returns True when the evicted entry is not the most recent insertion,
        i.e. the step replaced an incumbent.
        """
        n = self.n
        if n != self.k + 1:
            raise ValueError("shrink requires an expanded set of size K+1")
        rsp = self.rsp[:n]
        m = rsp.max()
        cand = np.flatnonzero(rsp == m)
        j = int(cand[np.argmax(self.order[cand])])
        newest_slot = n - 1  # expand always appends

        if j == newest_slot and self._last_slots is not None:
            slots, contrib = self._last_slots, self._last_contrib
        else:
            slots, contrib = self._weights_to(self.pts[j])
            # exclude the entry itself (self-weight 1 at distance 0)
            keep = slots != j
            slots, contrib = slots[keep], contrib[keep]
        if len(slots):
            self.rsp[slots] -= contrib

        replaced = j != newest_slot
        self._remove_slot(j)
        self._last_slots = None
        self._last_contrib = None
        return replaced

    def _remove_slot(self, j: int) -> None:
        last = self.n - 1
        self.last_removed_src = int(self.src[j])
        if self.index is not None:
            self.index.remove(j)
        if j != last:
            self.pts[j] = self.pts[last]
            self.rsp[j] = self.rsp[last]
            self.order[j] = self.order[last]
            self.src[j] = self.src[last]
            if self.index is not None:
                self.index.relabel(last, j)
        self.n = last

    def step(self, point, source_index: int = -1) -> bool:
        """Process one streamed point; returns True when it replaced a member."""
        if self.n != self.k:
            raise ValueError("step requires a set at rest (|R| = K)")
        self.expand(point, source_index)
        if self.mode == "noes":
            self.recompute()
        return self.shrink()

    def recompute(self) -> float:
        """Recompute responsibilities from scratch (mode-consistent truncation);
        returns the max relative drift of the stored values."""
        n = self.n
        if n == 0:
            return 0.0
        pts = self.pts[:n]
        cutoff2 = self.params.cutoff_radius**2 if self.mode == "esloc" else None
        fresh = np.empty(n)
        for s in row_blocks(n, n):
            w = gauss(sq_distances(pts[s], pts), self._inv, cutoff2)
            rows = np.arange(s.stop - s.start)
            w[rows, rows + s.start] = 0.0
            fresh[s] = w.sum(axis=1)
        scale = np.maximum(np.abs(fresh), 1e-300)
        drift = float(np.max(np.abs(self.rsp[:n] - fresh) / scale))
        self.rsp[:n] = fresh
        return drift


def run_interchange(
    data: np.ndarray, cfg: InterchangeConfig, params: KernelParams
) -> tuple[Sample, RunStats]:
    """Run the streaming local search over ``data`` and return the sample.

    The state is seeded with the first K streamed points (after the optional
    seeded shuffle of the stream order); every later point goes through one
    ``step``.  Passes repeat over the same order and stop early when a full
    pass makes no replacement.
    """
    data = np.asarray(data, dtype=float).reshape(-1, 2)
    n = len(data)
    if n == 0:
        raise EmptyDatasetError("cannot sample an empty dataset")
    if not np.isfinite(data).all():
        raise NonFiniteInputError("dataset contains NaN or infinite coordinates")
    if cfg.k > n:
        raise KTooLargeError(f"k={cfg.k} exceeds dataset size {n}")

    t0 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(n) if cfg.shuffle else np.arange(n)

    state = ResponsibilitySet(cfg.k, params, cfg.mode)
    for i in order[: cfg.k]:
        state.expand(data[i], int(i))

    stats = RunStats(points_seen=cfg.k)
    if cfg.k == n:
        stats.final_objective = state.exact_objective()
        stats.wall_time = time.perf_counter() - t0
        return _to_sample(state), stats

    max_passes = 10**9 if cfg.until_converged else cfg.passes
    since_recompute = 0
    out_of_time = False
    member_src = {int(i) for i in order[: cfg.k]}
    for p in range(max_passes):
        stream = order[cfg.k :] if p == 0 else order
        pass_repl = 0
        for step_no, i in enumerate(stream):
            ii = int(i)
            if ii in member_src:
                # swapping a member with itself can never improve; skipping
                # also avoids fp-noise evictions between exact duplicates
                continue
            replaced = state.step(data[ii], ii)
            if replaced:
                member_src.discard(state.last_removed_src)
                member_src.add(ii)
            stats.points_seen += 1
            pass_repl += replaced
            if cfg.record_trace:
                stats.objective_trace.append(state.exact_objective())
            since_recompute += 1
            if since_recompute >= cfg.recompute_interval:
                stats.max_drift = max(stats.max_drift, state.recompute())
                since_recompute = 0
            if (
                cfg.time_budget_secs is not None
                and step_no % 1024 == 0
                and time.perf_counter() - t0 > cfg.time_budget_secs
            ):
                out_of_time = True
                break
        stats.replacements += pass_repl
        stats.passes_run += 1
        if pass_repl == 0 or out_of_time:
            break

    stats.max_drift = max(stats.max_drift, state.recompute())
    stats.final_objective = state.exact_objective()
    stats.wall_time = time.perf_counter() - t0
    return _to_sample(state), stats


def _to_sample(state: ResponsibilitySet) -> Sample:
    return Sample(
        points=state.points.copy(),
        source_indices=state.source_indices.copy(),
        method="vas",
    )
