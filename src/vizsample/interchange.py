"""Streaming Interchange local search over a K-point responsibility set.

The optimizer keeps the current sample together with one responsibility
accumulator per member: the (unhalved) sum of pair weights to every other
member.  Each incoming point p goes to ``shrink``, which shrinks the expanded
set R + {p} back to K without building it: when p would itself carry the
largest responsibility, no replacement lowers the objective and it is
dropped, writing nothing.  Otherwise p overwrites the member with the
largest responsibility in its slot, which is equivalent to taking the best
single replacement.  ``expand`` only grows a set below K.

Three execution modes:

- ``noes``  -- reference path (the oracle for the other two): every point is
  scored on the responsibilities of the expanded set summed from scratch by
  ``pair_sums`` (O(K^2) per point).
- ``es``    -- incremental bookkeeping: a dropped point reads its weights and
  a cached top responsibility, a commit one O(K) max and ``==``.
- ``esloc`` -- like ``es`` but pair weights beyond the cutoff radius are
  treated as zero, with a grid index over the member slots locating the
  affected members, so a dropped point reads only its grid window.

``noes`` and ``es`` produce identical samples on identical streams; ``esloc``
differs only by per-pair truncation error.

Seeding (``load``) copies the first K streamed points at once, sorts them
into the ``esloc`` grid in one step and sums their responsibilities in one
``recompute``, the objective's strip walk (one cutoff wide in ``esloc``).

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
from .geometry import KernelParams, as_dataset, bounding_box, gauss, sq_distances
from .quality import pair_sums, surrogate_objective
from .spatial import GridIndex

MODES = ("noes", "es", "esloc")

# Most passes of ``sample --until-converged``.  Exact ties between points
# can keep a run swapping members on rounding noise forever.
PASS_CAP = 100

# Streamed candidates between two ``recompute`` calls, which reset the drift.
RECOMPUTE_INTERVAL = 100_000

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
    time_budget_secs: float | None = None  # counts the seed load; read after each step or block
    record_trace: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.passes < 1:
            raise ValueError("passes must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass
class RunStats:
    """What a run did.  ``final_objective`` (``surrogate_objective``'s strip
    walk, to within 2**-52 of the untruncated sum) and ``max_drift`` (the
    largest relative drift a recompute saw, a final one included) are
    computed from the finished ``state`` on first read; so ``wall_time``
    leaves them out."""

    points_seen: int = 0
    replacements: int = 0
    wall_time: float = 0.0
    passes_run: int = 0
    stop_reason: str = ""  # "converged", "passes" or "time_budget"
    batch_rejects: int = 0  # candidates settled by ``reject_run``, not ``step``
    objective_trace: list[float] = field(default_factory=list)
    drift: float = 0.0  # largest drift of the recomputes during the stream
    state: ResponsibilitySet | None = field(default=None, repr=False)

    @cached_property
    def final_objective(self) -> float:
        return self.state.exact_objective() if self.state else 0.0

    @cached_property
    def max_drift(self) -> float:
        return max(self.drift, self.state.recompute()) if self.state else self.drift


class ResponsibilitySet:
    """The optimizer state: points, responsibilities, insertion order.

    Capacity is K: a commit overwrites the evicted member's slot in place.
    ``order`` numbers the entries in insertion order; only its order among
    the entries counts.  In ``esloc`` mode a grid index holds every entry;
    its ids are slots, and a commit removes the slot before it is overwritten
    and inserts it after, at the end of its cell, so the cell order of its
    members is their insertion order.  ``box`` (lo, hi) is the region the
    points come from, which sizes that grid; points outside it are still
    found, in the grid's edge cells.
    """

    def __init__(self, k: int, params: KernelParams, mode: str = "es", box=((0.0, 0.0), (0.0, 0.0))):
        if k < 1:
            raise ValueError("k must be >= 1")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.k = k
        self.params = params
        self.mode = mode
        self.pts = np.empty((k, 2), dtype=float)
        self.rsp = np.zeros(k, dtype=float)
        self._rsp_max = None  # max of rsp[:n] at rest, or None: whoever writes rsp resets it
        self.order = np.empty(k, dtype=np.int64)
        self.src = np.empty(k, dtype=np.int64)
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
        """Add ``point`` to a set below K; its responsibility is the weight sum
        to current members, whose responsibilities grow by their weight to it."""
        if self.n == self.k:
            raise ValueError("expand on a full set: a set of K entries takes points through shrink")
        p = np.asarray(point, dtype=float)
        slots, contrib = self._weights_to(p)
        self.rsp[slots] += contrib
        self._rsp_max = None
        self.pts[self.n], self.rsp[self.n] = p, float(contrib.sum())
        self._write(self.n, source_index)
        self.n += 1

    def shrink(self, p: np.ndarray, source_index: int, slots: np.ndarray, w: np.ndarray) -> bool:
        """Shrink the expanded set R + {p} back to K entries without writing p
        to a slot of its own; ``w`` are p's weights to the member ``slots``.
        The largest responsibility goes (ties: the newest entry, p), and a
        member at exactly p's coordinates gives way to p, so rounding noise
        between duplicates is no replacement.  ``noes`` scores on
        ``pair_sums`` of the K+1 points, ``es`` and ``esloc`` on the stored
        responsibilities and a cached top.  Returns False, writing nothing,
        when p goes; otherwise p overwrites the evicted slot and it is True."""
        n = self.n
        if n != self.k:
            raise ValueError("shrink requires a set at rest (|R| = K)")
        if self.mode == "noes":
            fresh = pair_sums(np.vstack((self.pts[:n], p)), self._inv, np.inf)
            top, mine, grown = fresh.max(), fresh[n], fresh[:n]
        else:
            if self._rsp_max is None:
                self._rsp_max = self.rsp[:n].max()
            grown = self.rsp[slots] + w
            top, mine = max(self._rsp_max, grown.max(initial=-np.inf)), w.sum()
        if mine >= top:
            return False
        tied = slots[grown == top]
        if self.index is not None:  # members outside p's window may hold the top
            tied = np.concatenate((np.flatnonzero(self.rsp[:n] == top), tied))
        if self.pts[j := int(tied[np.argmax(self.order[tied])])].tolist() == p.tolist():
            return False
        out, w_out = self._weights_to(self.pts[j])  # j's window, before p is written
        self.rsp[slots] += w
        self.rsp[out] -= w_out
        # squared distances are bitwise symmetric, so p's window holds w(j, p):
        # at position j where the window is every slot, else once or not at all
        self.rsp[j] = float(w.sum()) - float(w[j] if self.index is None else w[slots == j].sum())
        self._rsp_max = None
        self.last_removed_src = int(self.src[j])
        if self.index is not None:
            self.index.remove(j)
        self.pts[j] = p
        self._write(j, source_index)
        return True

    def _write(self, slot: int, source_index: int) -> None:
        """Stamp the point just written to ``slot`` as the newest entry and index it."""
        self.order[slot], self.src[slot] = self._seq, source_index
        if self.index is not None:
            self.index.insert(slot)
        self._seq += 1

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
        """Process one streamed point; returns True when it replaced a member."""
        if self.n != self.k:
            raise ValueError("step requires a set at rest (|R| = K)")
        p = np.asarray(point, dtype=float)
        return self.shrink(p, source_index, *self._weights_to(p))

    def reject_run(self, cands: np.ndarray) -> int:
        """Settle the leading rows of ``cands`` (m, 2) that ``step`` would
        drop, all scored in one block against the same state; returns how
        many.  It writes nothing, as those steps would not.

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
        return len(ok) if ok.all() else int(ok.argmin())

    def recompute(self) -> float:
        """Recompute responsibilities from scratch, as ``pair_sums`` (every
        pair, or in ``esloc`` those within the cutoff); returns the max drift."""
        n = self.n
        if n == 0:
            return 0.0
        # the margin keeps every pair that gauss keeps at d2 <= cutoff2, whatever the rounding
        reach = np.inf if self._cutoff2 is None else self.params.cutoff_radius * (1 + 1e-9)
        fresh = pair_sums(self.pts[:n], self._inv, reach, self._cutoff2)
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
    seeded shuffle of the stream order) by one ``load``.  Every pass streams
    the whole order and skips the current members, the seeds among them;
    every other point goes through one ``step``, or is settled in a
    ``reject_run`` block whose first unsettled row goes through ``step``.  A
    block has one row per candidate dropped so far, halved at each
    replacement, at most ``REJECT_BLOCK_CELLS // K`` and none past the next
    recompute (every ``RECOMPUTE_INTERVAL`` candidates).  The run stops as
    ``converged`` after a pass without a replacement (K = N after one), as
    ``passes`` after ``cfg.passes``, or as ``time_budget``, checked after
    every step or block.  A traced run appends the exact objective once per
    streamed candidate.
    """
    data = as_dataset(data, cfg.k)
    n = len(data)

    t0 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(n) if cfg.shuffle else np.arange(n)

    state = ResponsibilitySet(cfg.k, params, cfg.mode, bounding_box(data))
    state.load(data[order[: cfg.k]], order[: cfg.k])

    stats = RunStats(points_seen=cfg.k, state=state)
    # rows of one reject_run block; 0 keeps every candidate on ``step``
    rows = REJECT_BLOCK_CELLS // cfg.k
    if cfg.mode == "noes" or rows < 8:
        rows = 0
    # rows of the next block; halving at a replacement keeps frequent
    # replacements on ``step``, where a block would be scored in vain
    run = 0
    since_recompute = 0
    member = np.zeros(n, dtype=bool)
    member[order[: cfg.k]] = True
    stats.stop_reason = "passes"
    for _ in range(cfg.passes):
        pass_repl = 0
        pos = 0
        while pos < n:
            ii = int(order[pos])
            if member[ii]:
                # swapping a member with itself can never improve; skipping
                # also avoids fp-noise evictions between exact duplicates
                pos += 1
                continue
            b = min(run, rows, n - pos, RECOMPUTE_INTERVAL - since_recompute)
            settled_all = False
            if b >= 2:
                window = order[pos : pos + b + cfg.k]
                offs = np.flatnonzero(~member[window])[:b]
                settled = state.reject_run(np.take(data, window[offs], axis=0))
                stats.batch_rejects += settled
                run += settled
                stats.points_seen += settled
                since_recompute += settled
                if cfg.record_trace and settled:  # a settled row leaves the state as it is
                    stats.objective_trace += [state.exact_objective()] * settled
                settled_all = settled == len(offs)
                if settled_all:
                    pos += int(offs[-1]) + 1
                else:
                    # the first candidate not clearly dropped goes through step
                    pos += int(offs[settled])
                    ii = int(order[pos])
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
            if since_recompute >= RECOMPUTE_INTERVAL:
                stats.drift = max(stats.drift, state.recompute())
                since_recompute = 0
            if cfg.time_budget_secs is not None and time.perf_counter() - t0 > cfg.time_budget_secs:
                stats.stop_reason = "time_budget"
                break
        stats.replacements += pass_repl
        stats.passes_run += 1
        if stats.stop_reason == "time_budget":
            break
        if pass_repl == 0:
            stats.stop_reason = "converged"
            break
    stats.wall_time = time.perf_counter() - t0
    return Sample(state.points.copy(), state.source_indices.copy()), stats
