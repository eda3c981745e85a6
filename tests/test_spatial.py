import math

import numpy as np
import pytest

from vizsample.errors import EmptyIndexError
from vizsample.spatial import GridIndex


def scan_within(points: dict, center, r):
    cx, cy = center
    return sorted(
        i for i, (x, y) in points.items() if (x - cx) ** 2 + (y - cy) ** 2 <= r * r
    )


def scan_nearest(points: dict, q):
    qx, qy = q
    return min(points, key=lambda i: ((points[i][0] - qx) ** 2 + (points[i][1] - qy) ** 2, i))


def grid_over(cell, rows):
    """An index over ten rows, with ``rows`` (id -> point) inserted in turn."""
    pts = np.zeros((10, 2))
    idx = GridIndex(cell, pts)
    for i, p in rows.items():
        pts[i] = p
        idx.insert(i)
    return idx


def test_self_retrieval():
    idx = grid_over(1.0, {7: (2.5, -1.0)})
    assert 7 in idx.within_radius((2.5, -1.0), 0.5)


def test_rejects_non_float64_rows():
    with pytest.raises(ValueError):
        GridIndex(1.0, np.zeros((3, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        GridIndex(1.0, np.zeros(6))


def test_remove_then_queries():
    idx = grid_over(1.0, {1: (0, 0), 2: (3, 3)})
    idx.remove(1)
    assert idx.nearest_neighbor((0, 0)) == 2
    assert idx.within_radius((0, 0), 10).tolist() == [2]
    assert idx.d2.tolist() == [18.0]


def test_relabel_keeps_query_order():
    idx = grid_over(1.0, {i: (0.5, 0.1 * i) for i in (1, 2, 3)})
    idx.pts[7] = idx.pts[1]
    idx.relabel(1, 7)
    assert idx.within_radius((0.5, 0.2), 0.15).tolist() == [7, 2, 3]


def test_within_radius_empty_and_boundary():
    idx = grid_over(1.0, {3: (1, 1), 4: (1, 3)})
    assert idx.within_radius((9, 9), 5).tolist() == []
    assert not idx.any_within_radius((9, 9), 5)
    # closed ball: r = 0 at the exact location still matches
    assert idx.within_radius((1, 1), 0.0).tolist() == [3]
    assert idx.any_within_radius((1, 1), 0.0)
    # boundary distance exactly r is included
    assert sorted(idx.within_radius((1, 1), 2.0).tolist()) == [3, 4]
    assert idx.any_within_radius((1, 5), 2.0)


def test_nearest_single_and_tie_rule():
    assert grid_over(1.0, {5: (9, 9)}).nearest_neighbor((0, 0)) == 5
    assert grid_over(1.0, {7: (1, 0), 3: (-1, 0)}).nearest_neighbor((0, 0)) == 3


def test_nearest_on_empty_index():
    with pytest.raises(EmptyIndexError):
        GridIndex(1.0, np.zeros((0, 2))).nearest_neighbor((0, 0))
    idx = grid_over(1.0, {0: (0, 0)})
    idx.remove(0)
    with pytest.raises(EmptyIndexError):
        idx.nearest_neighbor((0, 0))


@pytest.mark.parametrize("cell", [0.05, 0.7, 3.0])
def test_random_workload_matches_linear_scan(cell):
    rng = np.random.default_rng(20240 + int(cell * 10))
    pts = np.full((600, 2), np.nan)
    idx = GridIndex(cell, pts)
    live: dict[int, tuple[float, float]] = {}
    free = list(range(len(pts)))
    for _ in range(600):
        op = rng.random()
        if op < 0.55 or not live:
            i = free.pop(int(rng.integers(len(free))))
            pts[i] = rng.uniform(-5, 5, size=2)
            idx.insert(i)
            live[i] = tuple(pts[i])
        elif op < 0.65:
            victim = int(rng.choice(list(live)))
            idx.remove(victim)
            pts[victim] = np.nan
            del live[victim]
            free.append(victim)
        elif op < 0.75:
            old = int(rng.choice(list(live)))
            new = free.pop(int(rng.integers(len(free))))
            pts[new] = pts[old]
            idx.relabel(old, new)
            pts[old] = np.nan
            live[new] = live.pop(old)
            free.append(old)
        else:
            q = tuple(rng.uniform(-6, 6, size=2))
            r = float(rng.uniform(0, 4))
            got = idx.within_radius(q, r)
            want = scan_within(live, q, r)
            assert sorted(got.tolist()) == want
            dx = [live[i][0] - q[0] for i in got]
            dy = [live[i][1] - q[1] for i in got]
            assert idx.d2.tolist() == [a * a + b * b for a, b in zip(dx, dy)]
            assert idx.any_within_radius(q, r) == bool(want)
            assert idx.nearest_neighbor(q) == scan_nearest(live, q)


def test_thousand_random_nearest_queries():
    rng = np.random.default_rng(99)
    pts = rng.uniform(0, 10, size=(300, 2))
    idx = GridIndex(0.8, pts)
    live = {}
    for i, p in enumerate(pts):
        idx.insert(i)
        live[i] = tuple(p)
    for _ in range(1000):
        q = tuple(rng.uniform(-1, 11, size=2))
        nn = idx.nearest_neighbor(q)
        assert nn == scan_nearest(live, q)
        # one-ulp slack: sqrt of the squared distance can round below it
        d = math.dist(q, live[nn]) * (1 + 1e-12)
        assert nn in idx.within_radius(q, d)
        assert idx.any_within_radius(q, d)
