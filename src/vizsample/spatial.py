"""Uniform grid over the rows of a caller-owned point array, in one CSR layout.

``GridIndex(cell_size, pts, box)`` indexes row ids of an (n, 2) float64
array that the caller keeps: it writes row ``i`` before ``insert(i)`` (rows
below n before ``load(n)``), and calls ``remove(i)`` before it overwrites
that row and ``insert(i)`` after.  Without a ``box`` it holds every row, on
their bounding box.  It keeps no copy of the points.

``ids`` lists the live ids sorted by (cell column, cell row, insertion); cell
k = column * rows + row holds ``ids[starts[k]:starts[k + 1]]``.  Cells fall
on multiples of ``cell``: ``cell_size``, or more where the box would need
more than min(GRID_SIDE, 2*sqrt(n) + 2) a side.  An edge cell on each side of
the box holds the rows outside it; query cell ranges are clamped into the
same range at both ends, which is monotone, so no query loses a row.

Radius queries take one centre at a time (truncated pair-weight updates).
Batched queries take an (m, 2) array: ``windows`` groups its rows by
occupied cell and yields the ids that a ball around each group reaches.
The membership test (the Monte-Carlo domain) walks the
``geometry.pair_blocks`` tiles of each group against its window; ``scan``
also re-windows the rows left open with a doubled radius (the
nearest-neighbor search of the density pass, and the point losses).
The ``sq_distances`` arithmetic decides every answer, so each is the linear
scan's (see the tests).  Closed balls: squared distance <= r*r; nearest ties
go to the smallest id.  Besides the mutations, ``within_radius`` writes
state: it leaves its distances in ``d2``, so two concurrent lookups overwrite
each other's.  The batched queries write none, and may run together between
mutations.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EmptyIndexError
from .geometry import pair_blocks

# Most cells a side of the box: the cell arrays then stay under 1.6 MB.
GRID_SIDE = 256
# Slack, in cells, for the rounding of x / cell: cells of at least 2**-40 of
# the box's largest coordinate keep grid coordinates below 2**40 (error 2**-13).
_SLACK = 2.0**-10


class GridIndex:
    """Uniform-grid index over the row ids of ``pts``: empty, for rows inside
    ``box`` (lo, hi), or without one over every row, on their bounding box."""

    def __init__(self, cell_size: float, pts: np.ndarray, box=None):
        if not (cell_size > 0) or not math.isfinite(cell_size):
            raise ValueError(f"cell_size must be a finite positive real, got {cell_size}")
        if pts.dtype != np.float64 or pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"pts must be an (n, 2) float64 array, got {pts.dtype} {pts.shape}")
        self.pts = pts
        self._mv = memoryview(pts)
        n = len(pts) if box is None else 0
        if box is None:
            box = (pts.min(axis=0), pts.max(axis=0)) if len(pts) else np.zeros((2, 2))
        lo, hi = np.asarray(box, dtype=float)
        side = min(GRID_SIDE, 2 * math.isqrt(len(pts)) + 2)
        extent = float((hi / side - lo / side).max())  # never overflows
        self.cell = max(float(cell_size), extent, float(np.abs([lo, hi]).max()) * 2.0**-40)
        # x / cell of the lower corners of the edge cells, (2, 1)
        self._lo = np.floor(lo / self.cell)[:, None] - 1
        self._hi = np.floor(hi / self.cell)[:, None] + 1
        self._span = [(int(a), int(b)) for a, b in zip(self._lo[:, 0], self._hi[:, 0])]
        self.shape = (self._hi - self._lo)[:, 0].astype(np.intp) + 1
        self._ny = int(self.shape[1])
        self.load(n)
        # squared distances of the last ``within_radius`` result, in its order
        self.d2: np.ndarray | None = None

    def load(self, n: int) -> None:
        """Index rows 0..n-1 only, as ``insert(0)``, ..., ``insert(n - 1)`` would."""
        keys = self._keys(self.pts[:n])
        self.ids = np.zeros(len(self.pts), dtype=np.intp)
        self.ids[:n] = np.argsort(keys, kind="stable")
        self.starts = np.zeros(self.shape.prod() + 1, dtype=np.intp)
        np.cumsum(np.bincount(keys, minlength=self.shape.prod()), out=self.starts[1:])
        self._iv, self._sv = memoryview(self.ids), memoryview(self.starts)

    def _key(self, id_: int) -> int:
        (x0, x1), (y0, y1) = self._span
        cs = self.cell
        return _at(self._mv[id_, 0] / cs, x0, x1) * self._ny + _at(self._mv[id_, 1] / cs, y0, y1)

    def insert(self, id_: int) -> None:
        k = self._key(id_)
        p, n = self._sv[k + 1], self._sv[-1]
        self._iv[p + 1 : n + 1] = self._iv[p:n]  # a memmove
        self._iv[p] = id_
        self.starts[k + 1 :] += 1

    def remove(self, id_: int) -> None:
        k = self._key(id_)
        a, n = self._sv[k], self._sv[-1]
        p = a + self._iv[a : self._sv[k + 1]].tolist().index(id_)
        self._iv[p : n - 1] = self._iv[p + 1 : n]
        self.starts[k + 1 :] -= 1

    def within_radius(self, center, r: float) -> np.ndarray:
        """Ids of all points with Euclidean distance <= r from ``center``, read
        from the cells its ball touches (3x3 at most while r <= ``cell``);
        their squared distances, bitwise ``sq_distances``, are left in ``d2``."""
        if r < 0:
            raise ValueError("radius must be non-negative")
        cx, cy = float(center[0]), float(center[1])
        (x0, x1), (y0, y1) = self._span
        cs, ny, s, ids = self.cell, self._ny, self._sv, self.ids
        a, b = _at((cy - r) / cs, y0, y1), _at((cy + r) / cs, y0, y1) + 1
        cols = range(_at((cx - r) / cs, x0, x1) * ny, _at((cx + r) / cs, x0, x1) * ny + 1, ny)
        slots = np.concatenate([ids[s[k + a] : s[k + b]] for k in cols])
        xy = self.pts.take(slots, axis=0).T  # b - a squares to the bits of a - b
        d2 = np.square(xy[0] - cx) + np.square(xy[1] - cy)
        keep = d2 <= r * r
        self.d2 = d2[keep]
        return slots[keep]

    def windows(self, qs: np.ndarray, r: float):
        """(rows, ids) for each occupied cell of the (m, 2) queries ``qs``, in
        (column, row) order: the rows of ``qs`` in it, in row order, and the
        ids of the cells that a radius-r ball around any of them reaches,
        column by column."""
        keys = self._keys(qs)
        order = np.argsort(keys, kind="stable")
        starts = np.flatnonzero(np.diff(keys[order], prepend=-1))
        xy = np.take(qs, order, axis=0)
        with np.errstate(over="ignore"):  # an overflow to inf clips to an edge cell
            lo = np.floor((np.minimum.reduceat(xy, starts) - r) / self.cell).T - self._lo
            hi = np.floor((np.maximum.reduceat(xy, starts) + r) / self.cell).T - self._lo
        (x0, y0), (x1, y1) = (c.tolist() for c in self._clip(lo, hi))
        for rows, i0, i1, j0, j1 in zip(np.split(order, starts[1:]), x0, x1, y0, y1):
            col = np.arange(i0, i1) * self._ny
            spans = zip(self.starts[col + j0].tolist(), self.starts[col + j1].tolist())
            yield rows, np.concatenate([self.ids[:0], *(self.ids[a:b] for a, b in spans)])

    def any_within_radius(self, centers, r: float) -> np.ndarray:
        """Whether a live point lies within distance r of each of the (m, 2)
        centres, as an (m,) bool array.  Centres with a point in their 3x3
        cells (when three cells fit into r) or none in reach are settled in
        numpy; the rest are scanned over their ``windows``."""
        if r < 0:
            raise ValueError("radius must be non-negative")
        qs = _queries(centers)
        hit = np.zeros(len(qs), dtype=bool)
        f = self._clamped(qs) - self._lo
        cells = np.floor(f)
        # a point with d2 <= r*r is within r, or 2**-536 where d2 underflows;
        # where r*r overflows, every point is
        reach = (r + 1e-161) * (1 + 1e-9) / self.cell + _SLACK if r * r < math.inf else math.inf
        if 3 * self.cell <= r * (1 + 1e-9) and r * r > 1e-300:
            # points of neighbouring cells are less than sqrt(8) cells apart,
            # so cells of r / 3 that round above it fit too; but the edge
            # cells hold points from anywhere outside
            inner = self.shape[:, None] - 2
            mid = ((cells >= 1) & (cells <= inner)).all(axis=0)
            hit = mid & (self._count(np.maximum(cells - 1, 1), np.minimum(cells + 1, inner)) > 0)
        near = self._count(np.floor(f - reach), np.floor(f + reach)) > 0
        todo = np.flatnonzero(near & ~hit)
        q = np.take(qs, todo, axis=0)
        for rows, ids in self.windows(q, reach * self.cell):
            for s, d2, *_ in pair_blocks(np.take(q, rows, axis=0), np.take(self.pts, ids, axis=0)):
                hit[todo[rows[s]]] = (d2 <= r * r).any(axis=1)
        return hit

    def nearest_neighbor(self, queries) -> np.ndarray:
        """Id of the live point closest to each of the (m, 2) queries, ties to
        the smallest id, as an (m,) int64 array, from a ``scan`` that settles
        the rows whose best squared distance beats every point outside."""
        if not self.starts[-1]:
            raise EmptyIndexError("nearest_neighbor on an empty index")
        qs = _queries(queries)
        out, no_id = np.empty(len(qs), dtype=np.int64), len(self.pts)

        def visit(rows, ids, far2, d2, *_):
            best = d2.min(axis=1, initial=math.inf)  # overflows tie at inf, as in a scan
            out[rows] = np.where(d2 == best[:, None], ids, no_id).min(axis=1, initial=no_id)
            return best < far2

        self.scan(qs, visit)
        return out

    def scan(self, qs: np.ndarray, visit) -> None:
        """Walk the ``pair_blocks`` tiles of the (m, 2) queries ``qs`` against
        their ``windows``, with a radius that doubles from one cell, until every
        row is settled: ``visit(rows, ids, far2, d2, w, keep)`` gets a tile's rows
        of ``qs``, window ids, ``far2`` (below the d2 of every id outside) and the
        tile, and says which rows it settles; a window of all ids settles all."""
        rows, reach = np.arange(len(qs)), self.cell
        while len(rows):
            q, left = np.take(qs, rows, axis=0), [rows[:0]]
            # a point outside a window is more than ``bound`` away
            bound = reach - _SLACK * self.cell
            far2 = bound * bound * (1 - 1e-9) - 1e-300
            for grp, ids in self.windows(q, reach):
                for s, *tile in pair_blocks(np.take(q, grp, axis=0), np.take(self.pts, ids, axis=0)):
                    done = visit(rows[grp[s]], ids, far2, *tile)
                    if len(ids) < self.starts[-1]:
                        left.append(rows[grp[s][~done]])
            rows, reach = np.concatenate(left), 2 * reach

    def _keys(self, q: np.ndarray) -> np.ndarray:
        """Cell number column * rows + row of each row of ``q``."""
        c = (np.floor(self._clamped(q)) - self._lo).astype(np.intp)
        return c[0] * self._ny + c[1]

    def _clamped(self, q: np.ndarray) -> np.ndarray:
        """x / cell and y / cell of the rows of ``q``, shape (2, m), clamped
        into the edge cells."""
        with np.errstate(over="ignore"):  # an overflow to inf clips to an edge cell
            return np.clip(q.T / self.cell, self._lo, self._hi)

    def _clip(self, lo, hi):
        """Integer bounds [lo, hi + 1) of cell ranges, clamped at both ends."""
        top = self.shape[:, None] - 1
        return np.clip(lo, 0, top).astype(np.intp), np.clip(hi, 0, top).astype(np.intp) + 1

    def _count(self, lo, hi) -> np.ndarray:
        """Number of ids in the cells lo[:, i] <= (column, row) <= hi[:, i]."""
        s = np.zeros(self.shape + 1, dtype=np.intp)  # 2-D prefix sums of the cell sizes
        s[1:, 1:] = np.diff(self.starts).reshape(self.shape).cumsum(0).cumsum(1)
        (x0, y0), (x1, y1) = self._clip(lo, hi)
        return s[x1, y1] - s[x0, y1] - s[x1, y0] + s[x0, y0]


def _at(u: float, lo: int, hi: int) -> int:
    """Column (or row) of grid coordinate u, clamped into the edge cells lo..hi."""
    return math.floor(lo if u < lo else hi if u > hi else u) - lo  # min/max: 2x slower


def _queries(q) -> np.ndarray:
    """Queries as an (m, 2) float array of finite coordinates."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[1] != 2 or not np.isfinite(q).all():
        raise ValueError(f"queries must be an (m, 2) array of finite coordinates, got {q.shape}")
    return q

