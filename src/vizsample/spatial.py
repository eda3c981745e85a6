"""Uniform grid of buckets over the rows of a caller-owned point array.

``GridIndex(cell_size, pts)`` buckets row ids of an (n, 2) float64 array
that the caller keeps: it writes row ``i`` before ``insert(i)``, calls
``remove(i)`` before it overwrites that row, and copies a row to its new
place before ``relabel``.  The index keeps no copy of the coordinates.

It answers the queries the package needs: closed-ball radius queries
(truncated pair-weight updates), membership queries (the Monte-Carlo domain
test) and nearest-neighbor queries (the density-embedding pass).
Correctness is defined against a brute-force linear scan; see the test suite.

Semantics fixed here:
- ``within_radius`` uses a closed ball (distance <= r) and lists ids cell by
  cell, in insertion order within a cell; ``relabel`` keeps that place.
- nearest-neighbor ties are broken by the smallest id.
- single writer; concurrent readers are safe between mutations.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EmptyIndexError
from .geometry import sq_distances


class GridIndex:
    """Uniform-grid index over the row ids of ``pts``."""

    def __init__(self, cell_size: float, pts: np.ndarray):
        if not (cell_size > 0) or not math.isfinite(cell_size):
            raise ValueError(f"cell_size must be a finite positive real, got {cell_size}")
        if pts.dtype != np.float64 or pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"pts must be an (n, 2) float64 array, got {pts.dtype} {pts.shape}")
        self.cell_size = float(cell_size)
        self.pts = pts
        self._mv = memoryview(pts)
        self._cells: dict[tuple[int, int], list[int]] = {}
        self._n = 0
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

    def any_within_radius(self, center, r: float) -> bool:
        """Membership test with early exit; same closed-ball semantics."""
        if r < 0:
            raise ValueError("radius must be non-negative")
        cx, cy = float(center[0]), float(center[1])
        cs = self.cell_size
        r2 = r * r
        mv = self._mv
        cells = self._cells
        for ix in range(math.floor((cx - r) / cs), math.floor((cx + r) / cs) + 1):
            for iy in range(math.floor((cy - r) / cs), math.floor((cy + r) / cs) + 1):
                bucket = cells.get((ix, iy))
                if not bucket:
                    continue
                for id_ in bucket:
                    dx = mv[id_, 0] - cx
                    dy = mv[id_, 1] - cy
                    if dx * dx + dy * dy <= r2:
                        return True
        return False

    def nearest_neighbor(self, q) -> int:
        """Id of the point closest to ``q``; ties go to the smallest id."""
        if not self._n:
            raise EmptyIndexError("nearest_neighbor on an empty index")
        qx, qy = float(q[0]), float(q[1])
        cs = self.cell_size
        qc = (math.floor(qx / cs), math.floor(qy / cs))
        best_d2 = math.inf
        best_id = -1
        seen = 0
        mv = self._mv
        cells = self._cells
        ring = 0
        # Stop once every live id has been seen, or when the next ring's cells
        # (at least (ring-1)*cs away) cannot beat the best found.
        while seen < self._n and not (best_id >= 0 and (ring - 1) * cs > math.sqrt(best_d2)):
            for ix, iy in _ring_cells(qc, ring):
                bucket = cells.get((ix, iy))
                if not bucket:
                    continue
                seen += len(bucket)
                for id_ in bucket:
                    dx = mv[id_, 0] - qx
                    dy = mv[id_, 1] - qy
                    d2 = dx * dx + dy * dy
                    if d2 < best_d2 or (d2 == best_d2 and id_ < best_id):
                        best_d2 = d2
                        best_id = id_
            ring += 1
        return best_id


def _ring_cells(center: tuple[int, int], ring: int):
    cx, cy = center
    if ring == 0:
        yield (cx, cy)
        return
    for ix in range(cx - ring, cx + ring + 1):
        yield (ix, cy - ring)
        yield (ix, cy + ring)
    for iy in range(cy - ring + 1, cy + ring):
        yield (cx - ring, iy)
        yield (cx + ring, iy)
