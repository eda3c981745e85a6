"""Uniform grid of buckets over the rows of a caller-owned point array.

``GridIndex(cell_size, pts)`` buckets row ids of an (n, 2) float64 array
that the caller keeps: it writes row ``i`` before ``insert(i)``, calls
``remove(i)`` before it overwrites that row, and copies a row to its new
place before ``relabel``; ``fill=True`` indexes every row at once.  The
index keeps no copy of the coordinates.

It answers closed-ball radius queries one centre at a time (truncated
pair-weight updates), and membership and nearest-neighbor queries for a whole
(m, 2) array (the Monte-Carlo domain test, the density pass) with a loop over
the occupied query cells of a dense numpy grid.  The ``sq_distances``
arithmetic decides every answer, so each is the linear scan's (see the tests).

Semantics fixed here:
- closed balls: squared distance <= r*r.
- ``within_radius`` lists ids cell by cell, in insertion order within a cell;
  ``relabel`` keeps that place.
- nearest-neighbor ties are broken by the smallest id.
- single writer; concurrent readers are safe between mutations.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .errors import EmptyIndexError
from .geometry import row_blocks, sq_distances

# Most cells a side of the dense grid behind the whole-array queries: its
# three count arrays then stay under 1.6 MB.
GRID_SIDE = 256
# Slack, in cells, for the rounding of (p - lo) / cell: it moves a grid
# coordinate below 2**40 by at most 2**-12 cells.
_SLACK = 2.0**-10


class GridIndex:
    """Uniform-grid index over the row ids of ``pts``."""

    def __init__(self, cell_size: float, pts: np.ndarray, fill: bool = False):
        if not (cell_size > 0) or not math.isfinite(cell_size):
            raise ValueError(f"cell_size must be a finite positive real, got {cell_size}")
        if pts.dtype != np.float64 or pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"pts must be an (n, 2) float64 array, got {pts.dtype} {pts.shape}")
        self.cell_size = float(cell_size)
        self.pts = pts
        self._mv = memoryview(pts)
        self._cells: dict[tuple[int, int], list[int]] = {}
        self._n = len(pts) if fill else 0
        if fill:  # the buckets ``insert`` would build in id order
            for rows, (cx, cy) in _groups(np.floor(pts.T / self.cell_size), np.arange(len(pts))):
                self._cells[int(cx), int(cy)] = rows.tolist()
        # squared distances of the last ``within_radius`` result, in its order
        self.d2: np.ndarray | None = None

    def _cell_of(self, id_: int) -> tuple[int, int]:
        cs = self.cell_size
        return (math.floor(self._mv[id_, 0] / cs), math.floor(self._mv[id_, 1] / cs))

    def insert(self, id_: int) -> None:
        self._cells.setdefault(self._cell_of(id_), []).append(id_)
        self._n += 1

    def remove(self, id_: int) -> None:
        cell = self._cell_of(id_)
        bucket = self._cells[cell]
        bucket.remove(id_)
        if not bucket:
            del self._cells[cell]
        self._n -= 1

    def relabel(self, old: int, new: int) -> None:
        """Move id ``old`` to row ``new``, which already holds its point; it
        keeps its place in its cell, and so in the order of query results."""
        bucket = self._cells[self._cell_of(new)]
        bucket[bucket.index(old)] = new

    def within_radius(self, center, r: float) -> np.ndarray:
        """Ids of all points with Euclidean distance <= r from ``center``;
        their squared distances are left in ``d2``."""
        if r < 0:
            raise ValueError("radius must be non-negative")
        cx, cy = float(center[0]), float(center[1])
        cs = self.cell_size
        cells = self._cells
        ids: list[int] = []
        for ix in range(math.floor((cx - r) / cs), math.floor((cx + r) / cs) + 1):
            for iy in range(math.floor((cy - r) / cs), math.floor((cy + r) / cs) + 1):
                bucket = cells.get((ix, iy))
                if bucket:
                    ids += bucket
        slots = np.array(ids, dtype=np.intp)
        d2 = sq_distances(np.asarray(center, dtype=float), self.pts[slots])
        keep = d2 <= r * r
        self.d2 = d2[keep]
        return slots[keep]

    def any_within_radius(self, centers, r: float):
        """Whether a live point lies within distance r of each centre: a bool
        for one point (2,), an (m,) bool array for (m, 2) centres.  Centres
        with a point in their 3x3 cells (when three cells fit into r) or none
        in reach are settled in numpy; the rest get a distance block."""
        if r < 0:
            raise ValueError("radius must be non-negative")
        qs, one = _queries(centers)
        hit = np.zeros(len(qs), dtype=bool)
        if self._n:
            grid = _Grid(self)
            f = grid.coords(qs)
            cells = np.floor(f)
            # a point with d2 <= r*r is within r, or 2**-536 where d2 underflows;
            # where r*r overflows, every point is
            reach = (r + 1e-161) * (1 + 1e-9) / grid.cell + _SLACK if r * r < math.inf else math.inf
            if 3 * grid.cell <= r and r * r > 1e-300:
                # points of neighbouring cells are less than sqrt(8) cells apart
                hit = grid.count(cells - 1, cells + 1) > 0
            near = grid.count(np.floor(f - reach), np.floor(f + reach)) > 0
            for rows, cell in _groups(cells, np.flatnonzero(near & ~hit)):
                ids = grid.window(np.floor(cell - reach), np.floor(cell + 1 + reach))
                for s in row_blocks(len(rows), len(ids)):
                    hit[rows[s]] = (sq_distances(qs[rows[s]], self.pts[ids]) <= r * r).any(axis=1)
        return bool(hit[0]) if one else hit

    def nearest_neighbor(self, queries):
        """Id of the live point closest to each query, ties to the smallest
        id: an int for one point (2,), an (m,) int64 array for (m, 2).  Each
        query cell's window grows, at least doubling, until its queries' best
        squared distances beat any point outside, or it holds every point."""
        if not self._n:
            raise EmptyIndexError("nearest_neighbor on an empty index")
        qs, one = _queries(queries)
        grid = _Grid(self)
        out = np.empty(len(qs), dtype=np.int64)
        for rows, cell in _groups(np.floor(grid.coords(qs)), np.arange(len(qs))):
            ring = float(max(1.0, *-cell, *(cell + 1 - grid.shape)))  # reaches the points' box
            while True:
                ids = grid.window(cell - ring, cell + ring)
                if not len(ids):
                    ring *= 2
                    continue
                best = np.empty(len(rows))
                for s in row_blocks(len(rows), len(ids)):
                    d2 = sq_distances(qs[rows[s]], self.pts[ids])
                    best[s] = d2.min(axis=1)
                    out[rows[s]] = np.where(d2 == best[s, None], ids, len(self.pts)).min(axis=1)
                # a point outside the window is more than ``ring`` cells away
                bound = grid.cell * (ring - _SLACK)
                left = best >= bound * bound * (1 - 1e-9) - 1e-300
                if len(ids) == self._n or not left.any():
                    break
                rows, best = rows[left], best[left]
                ring = max(2 * ring, float(np.ceil(np.sqrt(best.max()) / grid.cell)) + 1)
        return int(out[0]) if one else out


class _Grid:
    """The live ids of a ``GridIndex`` in a dense grid from their lower corner,
    on the index's cells, or on larger ones where those would make more than
    min(GRID_SIDE, 2*sqrt(ids) + 2) a side.  Grid coordinates are (2, m)
    arrays, column then row, clipped to 2**40: towards the points, so no
    window loses a point."""

    def __init__(self, index: GridIndex):
        every = index._n == len(index.pts)  # then no gather from the buckets
        ids = np.arange(index._n) if every else np.fromiter(chain(*index._cells.values()), np.intp)
        p = index.pts[ids].T.copy()
        self.lo = p.min(axis=1, keepdims=True)
        side = min(GRID_SIDE, 2 * math.isqrt(index._n) + 2)
        self.cell = max(index.cell_size, float((p.max(axis=1) / side - self.lo[:, 0] / side).max()))
        c = np.floor(self.coords(p.T)).astype(np.intp)
        self.shape = c.max(axis=1) + 1
        keys = c[0] * self.shape[1] + c[1]
        self.ids = ids[np.argsort(keys)]
        counts = np.bincount(keys, minlength=self.shape.prod())
        self.starts = np.r_[0, counts.cumsum()]  # cell k holds ids[starts[k]:starts[k + 1]]
        self.sums = np.zeros(self.shape + 1, dtype=np.intp)  # 2-D prefix sums of counts
        self.sums[1:, 1:] = counts.reshape(self.shape).cumsum(0).cumsum(1)

    def coords(self, q: np.ndarray) -> np.ndarray:
        """Unfloored grid coordinates of the rows of ``q``, shape (2, m)."""
        return np.clip((q.T - self.lo) / self.cell, -(2.0**40), 2.0**40)

    def _clip(self, lo, hi):
        """Integer bounds [lo, hi + 1) of cell ranges, clipped to the grid."""
        n = self.shape if lo.ndim == 1 else self.shape[:, None]
        return np.clip(lo, 0, n).astype(np.intp), np.clip(hi + 1, 0, n).astype(np.intp)

    def count(self, lo, hi) -> np.ndarray:
        """Number of ids in the cells lo[:, i] <= (column, row) <= hi[:, i]."""
        (x0, y0), (x1, y1) = self._clip(lo, hi)
        s = self.sums
        return s[x1, y1] - s[x0, y1] - s[x1, y0] + s[x0, y0]

    def window(self, lo, hi) -> np.ndarray:
        """Ids in the cells lo <= (column, row) <= hi."""
        (x0, y0), (x1, y1) = self._clip(lo, hi)
        col = np.arange(x0, x1) * self.shape[1]
        spans = zip(self.starts[col + y0].tolist(), self.starts[col + y1].tolist())
        return np.concatenate([self.ids[:0], *(self.ids[a:b] for a, b in spans)])


def _queries(q) -> tuple[np.ndarray, bool]:
    """Queries as an (m, 2) float array, and whether one point (2,) was given."""
    q = np.asarray(q, dtype=float)
    if not np.isfinite(q).all():
        raise ValueError("query coordinates must be finite")
    return q.reshape(-1, 2), q.ndim == 1


def _groups(cells: np.ndarray, rows: np.ndarray):
    """(rows, cell) for each distinct cell among the (2, m) ``cells[:, rows]``."""
    c = cells[:, rows]
    order = np.lexsort(c[::-1])
    rows, c = rows[order], c[:, order]
    starts = np.flatnonzero((np.diff(c, prepend=np.nan) != 0).any(axis=0))
    return zip(np.split(rows, starts[1:]), c[:, starts].T)
