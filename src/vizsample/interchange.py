"""Streaming Interchange local search over a K-point responsibility set.

The optimizer keeps the current sample together with one responsibility
accumulator per member: the (unhalved) sum of pair weights to every other
member.  Each incoming point is scored against the members first: when it
would itself carry the largest responsibility, no replacement lowers the
objective and it is dropped, writing nothing.  Otherwise it is added
(``expand``) and the member with the largest responsibility is evicted
(``shrink``), which is equivalent to taking the best single replacement.

Three execution modes:

- ``noes``  -- reference path (the oracle for the other two): every point is
  expanded, the responsibilities of the expanded set are recomputed from
  scratch (O(K^2) per point), then ``shrink`` evicts.
- ``es``    -- scored, then incremental bookkeeping: a dropped point reads its
  weights and a cached top responsibility, a commit one O(K) max and ``==``.
- ``esloc`` -- like ``es`` but pair weights beyond the cutoff radius are
  treated as zero, with a grid index over the member slots locating the
  affected members, so a dropped point reads only its grid window.

``noes`` and ``es`` produce identical samples on identical streams; ``esloc``
differs only by per-pair truncation error.

Seeding (``load``) copies the first K streamed points at once, sorts them
into the ``esloc`` grid in one step and sums their responsibilities in one
``recompute``, which in ``esloc`` walks only grid-cell neighbourhoods.

Batched rejection (``es`` and ``esloc``): at small K almost every point is
dropped.  ``run_interchange`` hands a block of upcoming candidates to
``ResponsibilitySet.reject_run``, which scores them against all members in
one kernel block and settles the leading ones that ``step`` would drop.  The
first candidate that is not clearly dropped goes through ``step``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dataio import Sample
from .errors import EmptyDatasetError, KTooLargeError, NonFiniteInputError
from .geometry import KernelParams, bounding_box, gauss, kernel_blocks, sq_distances
from .quality import surrogate_objective
from .spatial import GridIndex

MODES = ("noes", "es", "esloc")

# Most passes of an ``until_converged`` run.  Exact ties between points can
# keep a run swapping members on rounding noise forever.
PASS_CAP = 100

# Most pair cells in one ``reject_run`` block; batching needs room for at
# least 8 candidate rows, so it runs only for K <= 1024.
REJECT_BLOCK_CELLS = 8192


@dataclass
class InterchangeConfig:
    k: int
    passes: int = 1
    seed: int = 0
    shuffle: bool = True
    mode: str = "esloc"
    recompute_interval: int = 100_000
    until_converged: bool = False
    time_budget_secs: float | None = None  # counts the seed load; read after each step or block
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
    """What a run did.  ``final_objective`` (untruncated) and ``max_drift``
    (the largest relative drift a recompute saw, a final one included) are
    O(K^2) passes over the finished ``state``, run on first read; so
    ``wall_time`` leaves them out."""

    points_seen: int = 0
    replacements: int = 0
    wall_time: float = 0.0
    passes_run: int = 0
    stop_reason: str = ""  # "converged", "passes", "pass_cap" or "time_budget"
    batch_rejects: int = 0  # candidates settled by ``reject_run``, not ``step``
    objective_trace: list[float] = field(default_factory=list)
    drift: float = 0.0  # largest drift of the recomputes during the stream
    state: ResponsibilitySet | None = field(default=None, repr=False)

    @cached_property
    def final_objective(self) -> float:
        return self.state.exact_objective() if self.state else 0.0

    @cached_property
    def max_drift(self) -> float:  # K = N streams nothing: no final recompute
        return max(self.drift, self.state.recompute()) if self.state and self.passes_run else self.drift


class ResponsibilitySet:
    """The optimizer state: points, responsibilities, insertion order.

    Capacity is K+1; the set transiently holds K+1 entries between ``expand``
    and ``shrink``.  In ``esloc`` mode a grid index over the members is kept
    in sync; its ids are slots, relabelled in place when a removal moves the
    last slot, so the cell order of its members is their insertion order.
    The K+1-th entry joins the grid only when ``shrink`` evicts another.
    ``box`` (lo, hi) is the region the points come from, which sizes that
    grid; points outside it are still found, in the grid's edge cells.
    """

    def __init__(self, k: int, params: KernelParams, mode: str = "es", box=((0.0, 0.0), (0.0, 0.0))):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        cap = k + 1
        self.k = k
        self.params = params
        self.mode = mode
        self.pts = np.empty((cap, 2), dtype=float)
        self.rsp = np.zeros(cap, dtype=float)
        self._rsp_max = None  # max of rsp[:n] at rest, or None: whoever writes rsp resets it
        self.order = np.empty(cap, dtype=np.int64)
        self.src = np.empty(cap, dtype=np.int64)
        self.n = 0
        self._seq = 0
        self.last_removed_src = -1
        self._inv = params.inv_2eps2
        # squared cutoff of ``esloc``; inf where it overflows: every pair in reach
        self._cutoff2 = params.cutoff_radius * params.cutoff_radius if mode == "esloc" else None
        self.index = GridIndex(params.cutoff_radius, self.pts, box) if mode == "esloc" else None

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
        float point ``p``: all K, or in ``esloc`` those within the cutoff
        radius, in ``within_radius`` order, for the cost of a grid window."""
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
        self._append(p, source_index, *self._weights_to(p))

    def _append(self, p: np.ndarray, source_index: int, slots: np.ndarray, contrib: np.ndarray) -> None:
        """``expand`` with the weights of ``p`` in hand."""
        self.rsp[slots] += contrib
        self._rsp_max = None
        slot = self.n
        self.pts[slot] = p
        self.rsp[slot] = float(contrib.sum())
        self.order[slot] = self._seq
        self.src[slot] = source_index
        if self.index is not None and slot < self.k:
            self.index.insert(slot)
        self._seq += 1
        self.n += 1

    def shrink(self, j: int | None = None) -> bool:
        """Evict slot ``j``, as ``step`` scored it, or the max-responsibility
        entry (ties: most recently inserted), where an entry at exactly the
        newest point's coordinates gives way to the newest: rounding noise in
        the responsibilities of duplicates must not count as a replacement.

        Returns True when the evicted entry is not the most recent insertion,
        i.e. the step replaced an incumbent.
        """
        n = self.n
        if n != self.k + 1:
            raise ValueError("shrink requires an expanded set of size K+1")
        newest_slot = n - 1  # expand always appends
        if j is None:
            j = self._top(self.rsp[:n].max())
            if j != newest_slot and self.pts[j].tolist() == self.pts[newest_slot].tolist():
                j = newest_slot

        replaced = j != newest_slot
        if replaced and self.index is not None:
            self.index.insert(newest_slot)  # the newest stays: it joins the grid now
        slots, contrib = self._weights_to(self.pts[j])
        self.rsp[slots] -= contrib  # rsp[j] goes with its slot
        self._remove_slot(j)
        return replaced

    def _top(self, top: float, also: np.ndarray = np.arange(0)) -> int:
        """Newest slot whose responsibility is ``top``, among the entries and ``also``."""
        cand = np.concatenate((np.flatnonzero(self.rsp[: self.n] == top), also))
        return int(cand[np.argmax(self.order[cand])])

    def _remove_slot(self, j: int) -> None:
        last = self.n - 1
        self.last_removed_src = int(self.src[j])
        if j != last:  # else j is the newest, which is not in the grid
            if self.index is not None:
                self.index.remove(j)
            self.pts[j] = self.pts[last]
            self.rsp[j] = self.rsp[last]
            self.order[j] = self.order[last]
            self.src[j] = self.src[last]
            if self.index is not None:
                self.index.relabel(last, j)
        self.n = last

    def load(self, points: np.ndarray, sources: np.ndarray) -> None:
        """Seed an empty set with up to K points, as one ``expand`` each would (up to rounding)."""
        k = len(points)
        if self.n or k > self.k:
            raise ValueError("load fills an empty set with at most K points")
        self.pts[:k], self.src[:k], self.order[:k] = points, sources, np.arange(k)
        self.n = self._seq = k
        if self.index is not None:
            self.index.load(k)
        self.recompute()

    def step(self, point, source_index: int = -1) -> bool:
        """Process one streamed point; returns True when it replaced a member.
        ``es`` and ``esloc`` append and shrink only a replacement: a point
        ``shrink`` would evict again moves nothing but the insertion counter."""
        if self.n != self.k:
            raise ValueError("step requires a set at rest (|R| = K)")
        p = np.asarray(point, dtype=float)
        if self.mode == "noes":
            self.expand(p, source_index)
            self.recompute()
            return self.shrink()
        slots, w = self._weights_to(p)
        if self._rsp_max is None:
            self._rsp_max = self.rsp[: self.n].max()
        g = self.rsp[slots] + w
        top = max(self._rsp_max, g.max(initial=-np.inf))
        if w.sum() >= top or self.pts[j := self._top(top, slots[g == top])].tolist() == p.tolist():
            self._seq += 1
            return False
        self._append(p, source_index, slots, w)
        return self.shrink(j)

    def reject_run(self, cands: np.ndarray) -> int:
        """Settle the leading rows of ``cands`` (m, 2) that ``step`` would
        drop, all scored in one block against the same state; returns how
        many, L, and moves the insertion counter by L, as L steps would.

        A row is settled when its weight sum, less a 1e-9 relative margin,
        exceeds the largest member responsibility with its weights added:
        the block sums in slot order, ``step`` in cell order, and the two
        differ by less than n * 2**-53 relative.  A sum of at most one
        nonzero weight has no rounding, so it is settled on a tie too.
        """
        if self.mode == "noes":
            raise ValueError("reject_run scores es/esloc steps; noes recomputes")
        if self.n != self.k:
            raise ValueError("reject_run requires a set at rest (|R| = K)")
        n = self.n
        w = gauss(sq_distances(cands, self.pts[:n]), self._inv, self._cutoff2)
        total = w.sum(axis=1)
        exact = np.count_nonzero(w, axis=1) <= 1
        w += self.rsp[:n]
        top = w.max(axis=1)
        ok = np.where(exact, total >= top, total * (1.0 - 1e-9) > top)
        settled = len(ok) if ok.all() else int(ok.argmin())
        self._seq += settled
        return settled

    def recompute(self) -> float:
        """Recompute responsibilities from scratch (mode-consistent truncation;
        ``esloc`` at rest sums over ``cell_windows``); returns the max drift."""
        n = self.n
        if n == 0:
            return 0.0
        pts = self.pts[:n]
        fresh = np.empty(n)
        gridded = self.index is not None and self.index.starts[-1] == n
        groups = self.index.cell_windows(self.params.cutoff_radius) if gridded else [(np.arange(n),) * 2]
        for rows, cols in groups:
            off = int(np.flatnonzero(cols == rows[0])[0])  # rows = cols[off : off + len(rows)]
            a, b = np.take(pts, rows, axis=0), np.take(pts, cols, axis=0)
            for s, w in kernel_blocks(a, b, self._inv, self._cutoff2):
                lane = np.arange(s.stop - s.start)
                w[lane, lane + off + s.start] = 0.0  # self weights: subtracting 1.0 would round
                fresh[rows[s]] = w.sum(axis=1)
        scale = np.maximum(np.abs(fresh), 1e-300)
        drift = float(np.max(np.abs(self.rsp[:n] - fresh) / scale))
        self.rsp[:n], self._rsp_max = fresh, None
        return drift


@np.errstate(over="ignore")  # huge coordinates: an inf squared distance weighs 0
def run_interchange(
    data: np.ndarray, cfg: InterchangeConfig, params: KernelParams
) -> tuple[Sample, RunStats]:
    """Run the streaming local search over ``data`` and return the sample.

    The state is seeded with the first K streamed points (after the optional
    seeded shuffle of the stream order) by one ``load``; every later point
    goes through one ``step``, or is settled in a ``reject_run`` block whose
    first unsettled row goes through ``step``.  A block has one row per
    candidate dropped so far, halved at each replacement, at most
    ``REJECT_BLOCK_CELLS // K`` and none past the next recompute.  Passes
    repeat over the same order and stop early when a full pass makes no
    replacement, ``until_converged`` after at most ``PASS_CAP`` passes; the
    time budget is checked after every step or block.
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

    state = ResponsibilitySet(cfg.k, params, cfg.mode, bounding_box(data))
    state.load(data[order[: cfg.k]], order[: cfg.k])

    stats = RunStats(points_seen=cfg.k, state=state)
    if cfg.k == n:
        stats.stop_reason = "converged"
        stats.wall_time = time.perf_counter() - t0
        return _to_sample(state), stats

    max_passes = PASS_CAP if cfg.until_converged else cfg.passes
    # rows of one reject_run block; 0 keeps every candidate on ``step``
    rows = REJECT_BLOCK_CELLS // cfg.k
    if cfg.mode == "noes" or cfg.record_trace or rows < 8:
        rows = 0
    # rows of the next block; halving at a replacement keeps frequent
    # replacements on ``step``, where a block would be scored in vain
    run = 0
    since_recompute = 0
    out_of_time = False
    member = np.zeros(n, dtype=bool)
    member[order[: cfg.k]] = True
    for p in range(max_passes):
        stream = order[cfg.k :] if p == 0 else order
        pass_repl = 0
        pos = 0
        while pos < len(stream):
            ii = int(stream[pos])
            if member[ii]:
                # swapping a member with itself can never improve; skipping
                # also avoids fp-noise evictions between exact duplicates
                pos += 1
                continue
            b = min(run, rows, len(stream) - pos, cfg.recompute_interval - since_recompute)
            settled_all = False
            if b >= 2:
                window = stream[pos : pos + b + cfg.k]
                offs = np.flatnonzero(~member[window])[:b]
                settled = state.reject_run(np.take(data, window[offs], axis=0))
                stats.batch_rejects += settled
                run += settled
                stats.points_seen += settled
                since_recompute += settled
                settled_all = settled == len(offs)
                if settled_all:
                    pos += int(offs[-1]) + 1
                else:
                    # the first candidate not clearly dropped goes through step
                    pos += int(offs[settled])
                    ii = int(stream[pos])
            if not settled_all:
                replaced = state.step(data[ii], ii)
                if replaced:
                    member[state.last_removed_src] = False
                    member[ii] = True
                run = run // 2 if replaced else run + 1
                stats.points_seen += 1
                pass_repl += replaced
                if cfg.record_trace:
                    stats.objective_trace.append(state.exact_objective())
                since_recompute += 1
                pos += 1
            if since_recompute >= cfg.recompute_interval:
                stats.drift = max(stats.drift, state.recompute())
                since_recompute = 0
            if cfg.time_budget_secs is not None and time.perf_counter() - t0 > cfg.time_budget_secs:
                out_of_time = True
                break
        stats.replacements += pass_repl
        stats.passes_run += 1
        if out_of_time:
            stats.stop_reason = "time_budget"
            break
        if pass_repl == 0:
            stats.stop_reason = "converged"
            break
    else:
        stats.stop_reason = "pass_cap" if cfg.until_converged else "passes"
    stats.wall_time = time.perf_counter() - t0
    return _to_sample(state), stats


def _to_sample(state: ResponsibilitySet) -> Sample:
    return Sample(points=state.points.copy(), source_indices=state.source_indices.copy(), method="vas")
