"""Dynamic 2-D point index backed by a uniform grid of buckets.

Supports the queries the rest of the package needs: closed-ball radius
queries (truncated pair-weight updates), membership queries (the Monte-Carlo
domain test) and nearest-neighbor queries (the density-embedding pass).
Correctness is defined against a brute-force linear scan; see the test suite.

Semantics fixed here:
- ``within_radius`` uses a closed ball (distance <= r) and lists ids cell by
  cell, in insertion order within a cell; ``relabel`` keeps that place.
- nearest-neighbor ties are broken by the smallest id.
- single writer; concurrent readers are safe between mutations.
"""

from __future__ import annotations

import math

from .errors import DuplicateIdError, EmptyIndexError, UnknownIdError


class GridIndex:
    """Uniform-grid index over points with integer id handles."""

    def __init__(self, cell_size: float):
        if not (cell_size > 0) or not math.isfinite(cell_size):
            raise ValueError(f"cell_size must be a finite positive real, got {cell_size}")
        self.cell_size = float(cell_size)
        self._pts: dict[int, tuple[float, float]] = {}
        self._cells: dict[tuple[int, int], list[int]] = {}
        self._cell_of: dict[int, tuple[int, int]] = {}

    def _cell(self, x: float, y: float) -> tuple[int, int]:
        return (math.floor(x / self.cell_size), math.floor(y / self.cell_size))

    def insert(self, id_: int, point) -> None:
        if id_ in self._pts:
            raise DuplicateIdError(f"id {id_} already present")
        x, y = float(point[0]), float(point[1])
        cell = self._cell(x, y)
        self._pts[id_] = (x, y)
        self._cells.setdefault(cell, []).append(id_)
        self._cell_of[id_] = cell

    def remove(self, id_: int) -> None:
        if id_ not in self._pts:
            raise UnknownIdError(f"id {id_} not present")
        cell = self._cell_of.pop(id_)
        del self._pts[id_]
        bucket = self._cells[cell]
        bucket.remove(id_)
        if not bucket:
            del self._cells[cell]

    def relabel(self, old: int, new: int) -> None:
        """Give point ``old`` the id ``new``; it keeps its place in its cell,
        and so in the order of query results."""
        if old not in self._pts:
            raise UnknownIdError(f"id {old} not present")
        if new in self._pts:
            raise DuplicateIdError(f"id {new} already present")
        cell = self._cell_of.pop(old)
        self._cell_of[new] = cell
        self._pts[new] = self._pts.pop(old)
        bucket = self._cells[cell]
        bucket[bucket.index(old)] = new

    def _candidates(self, center, r: float) -> list[int]:
        """Ids in the cells that the square of half-side ``r`` around
        ``center`` overlaps, by x and then y."""
        cx, cy = float(center[0]), float(center[1])
        cs = self.cell_size
        cells = self._cells
        out: list[int] = []
        for ix in range(math.floor((cx - r) / cs), math.floor((cx + r) / cs) + 1):
            for iy in range(math.floor((cy - r) / cs), math.floor((cy + r) / cs) + 1):
                bucket = cells.get((ix, iy))
                if bucket:
                    out += bucket
        return out

    def within_radius(self, center, r: float) -> list[int]:
        """Ids of all points with Euclidean distance <= r from ``center``."""
        if r < 0:
            raise ValueError("radius must be non-negative")
        return self._in_ball(self._candidates(center, r), center, r)

    def _in_ball(self, ids: list[int], center, r: float) -> list[int]:
        """The ``ids`` at distance <= r from ``center``, in their order."""
        cx, cy = float(center[0]), float(center[1])
        r2 = r * r
        pts = self._pts
        out: list[int] = []
        for id_ in ids:
            px, py = pts[id_]
            dx = px - cx
            dy = py - cy
            if dx * dx + dy * dy <= r2:
                out.append(id_)
        return out

    def any_within_radius(self, center, r: float) -> bool:
        """Membership test with early exit; same closed-ball semantics."""
        if r < 0:
            raise ValueError("radius must be non-negative")
        cx, cy = float(center[0]), float(center[1])
        cs = self.cell_size
        r2 = r * r
        pts = self._pts
        cells = self._cells
        for ix in range(math.floor((cx - r) / cs), math.floor((cx + r) / cs) + 1):
            for iy in range(math.floor((cy - r) / cs), math.floor((cy + r) / cs) + 1):
                bucket = cells.get((ix, iy))
                if not bucket:
                    continue
                for id_ in bucket:
                    px, py = pts[id_]
                    dx = px - cx
                    dy = py - cy
                    if dx * dx + dy * dy <= r2:
                        return True
        return False

    def nearest_neighbor(self, q) -> int:
        """Id of the point closest to ``q``; ties go to the smallest id."""
        if not self._pts:
            raise EmptyIndexError("nearest_neighbor on an empty index")
        qx, qy = float(q[0]), float(q[1])
        cs = self.cell_size
        qc = self._cell(qx, qy)
        # Max ring that can contain any occupied cell.
        max_ring = 0
        for (ix, iy) in self._cells:
            max_ring = max(max_ring, abs(ix - qc[0]), abs(iy - qc[1]))

        best_d2 = math.inf
        best_id = -1
        pts = self._pts
        cells = self._cells
        for ring in range(max_ring + 1):
            # A cell at Chebyshev ring distance R is at least (R-1)*cs away.
            if best_id >= 0 and (ring - 1) * cs > math.sqrt(best_d2):
                break
            for ix, iy in _ring_cells(qc, ring):
                bucket = cells.get((ix, iy))
                if not bucket:
                    continue
                for id_ in bucket:
                    px, py = pts[id_]
                    dx = px - qx
                    dy = py - qy
                    d2 = dx * dx + dy * dy
                    if d2 < best_d2 or (d2 == best_d2 and id_ < best_id):
                        best_d2 = d2
                        best_id = id_
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
