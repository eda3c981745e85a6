import math

import numpy as np
import pytest

from vizsample.errors import DuplicateIdError, EmptyIndexError, UnknownIdError
from vizsample.spatial import GridIndex


def scan_within(points: dict, center, r):
    cx, cy = center
    return sorted(
        i for i, (x, y) in points.items() if (x - cx) ** 2 + (y - cy) ** 2 <= r * r
    )


def scan_nearest(points: dict, q):
    qx, qy = q
    return min(points, key=lambda i: ((points[i][0] - qx) ** 2 + (points[i][1] - qy) ** 2, i))


def test_self_retrieval():
    idx = GridIndex(1.0)
    idx.insert(7, (2.5, -1.0))
    assert 7 in idx.within_radius((2.5, -1.0), 0.5)


def test_duplicate_id_rejected():
    idx = GridIndex(1.0)
    idx.insert(1, (0, 0))
    with pytest.raises(DuplicateIdError):
        idx.insert(1, (5, 5))


def test_remove_then_queries():
    idx = GridIndex(1.0)
    idx.insert(1, (0, 0))
    idx.insert(2, (3, 3))
    idx.remove(1)
    assert idx.nearest_neighbor((0, 0)) == 2
    assert idx.within_radius((0, 0), 10) == [2]


def test_remove_unknown_id():
    idx = GridIndex(1.0)
    with pytest.raises(UnknownIdError):
        idx.remove(99)
    with pytest.raises(UnknownIdError):
        idx.relabel(99, 1)
    idx.insert(1, (0, 0))
    idx.insert(2, (0, 0))
    with pytest.raises(DuplicateIdError):
        idx.relabel(1, 2)


def test_relabel_keeps_query_order():
    idx = GridIndex(1.0)
    for i in (1, 2, 3):
        idx.insert(i, (0.5, 0.1 * i))
    idx.relabel(1, 7)
    assert idx.within_radius((0.5, 0.2), 0.15) == [7, 2, 3]


def test_within_radius_empty_and_boundary():
    idx = GridIndex(1.0)
    assert idx.within_radius((0, 0), 5) == []
    idx.insert(3, (1, 1))
    # closed ball: r = 0 at the exact location still matches
    assert idx.within_radius((1, 1), 0.0) == [3]
    # boundary distance exactly r is included
    idx.insert(4, (1, 3))
    assert sorted(idx.within_radius((1, 1), 2.0)) == [3, 4]


def test_nearest_single_and_tie_rule():
    idx = GridIndex(1.0)
    idx.insert(5, (9, 9))
    assert idx.nearest_neighbor((0, 0)) == 5
    idx2 = GridIndex(1.0)
    idx2.insert(7, (1, 0))
    idx2.insert(3, (-1, 0))
    assert idx2.nearest_neighbor((0, 0)) == 3


def test_nearest_on_empty_index():
    with pytest.raises(EmptyIndexError):
        GridIndex(1.0).nearest_neighbor((0, 0))


@pytest.mark.parametrize("cell", [0.05, 0.7, 3.0])
def test_random_workload_matches_linear_scan(cell):
    rng = np.random.default_rng(20240 + int(cell * 10))
    idx = GridIndex(cell)
    live: dict[int, tuple[float, float]] = {}
    next_id = 0
    for _ in range(600):
        op = rng.random()
        if op < 0.55 or not live:
            p = tuple(rng.uniform(-5, 5, size=2))
            idx.insert(next_id, p)
            live[next_id] = p
            next_id += 1
        elif op < 0.65:
            victim = int(rng.choice(list(live)))
            idx.remove(victim)
            del live[victim]
        elif op < 0.75:
            old = int(rng.choice(list(live)))
            idx.relabel(old, next_id)
            live[next_id] = live.pop(old)
            next_id += 1
        else:
            q = tuple(rng.uniform(-6, 6, size=2))
            r = float(rng.uniform(0, 4))
            assert sorted(idx.within_radius(q, r)) == scan_within(live, q, r)
            assert idx.nearest_neighbor(q) == scan_nearest(live, q)


def test_thousand_random_nearest_queries():
    rng = np.random.default_rng(99)
    pts = rng.uniform(0, 10, size=(300, 2))
    idx = GridIndex(0.8)
    live = {}
    for i, p in enumerate(pts):
        idx.insert(i, p)
        live[i] = tuple(p)
    for _ in range(1000):
        q = tuple(rng.uniform(-1, 11, size=2))
        nn = idx.nearest_neighbor(q)
        assert nn == scan_nearest(live, q)
        # one-ulp slack: sqrt of the squared distance can round below it
        d = math.dist(q, live[nn]) * (1 + 1e-12)
        assert nn in idx.within_radius(q, d)
