import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vizsample.errors import EmptyIndexError, NonFiniteInputError
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
    """An index over ten rows, on the box of ``rows`` (id -> point), with them
    inserted in turn."""
    pts = np.zeros((10, 2))
    corners = np.array(list(rows.values()), dtype=float)
    idx = GridIndex(cell, pts, (corners.min(axis=0), corners.max(axis=0)))
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
    assert idx.nearest_neighbor([(0, 0)]).tolist() == [2]
    assert idx.within_radius((0, 0), 10).tolist() == [2]
    assert idx.d2.tolist() == [18.0]


def test_overwritten_row_goes_to_the_end_of_its_cell():
    idx = grid_over(1.0, {i: (0.5, 0.1 * i) for i in (1, 2, 3)})
    idx.remove(1)
    idx.pts[1] = (0.5, 0.25)
    idx.insert(1)
    assert idx.within_radius((0.5, 0.2), 0.15).tolist() == [2, 3, 1]


def test_within_radius_empty_and_boundary():
    idx = grid_over(1.0, {3: (1, 1), 4: (1, 3)})
    assert idx.within_radius((9, 9), 5).tolist() == []
    assert idx.any_within_radius([(9, 9)], 5).tolist() == [False]
    # closed ball: r = 0 at the exact location still matches
    assert idx.within_radius((1, 1), 0.0).tolist() == [3]
    assert idx.any_within_radius([(1, 1)], 0.0).tolist() == [True]
    # boundary distance exactly r is included
    assert sorted(idx.within_radius((1, 1), 2.0).tolist()) == [3, 4]
    assert idx.any_within_radius([(1, 5)], 2.0).tolist() == [True]


def test_nearest_single_and_tie_rule():
    assert grid_over(1.0, {5: (9, 9)}).nearest_neighbor([(0, 0)]).tolist() == [5]
    assert grid_over(1.0, {7: (1, 0), 3: (-1, 0)}).nearest_neighbor([(0, 0)]).tolist() == [3]


def test_nearest_on_empty_index():
    with pytest.raises(EmptyIndexError):
        GridIndex(1.0, np.zeros((0, 2))).nearest_neighbor([(0, 0)])
    idx = grid_over(1.0, {0: (0, 0)})
    idx.remove(0)
    with pytest.raises(EmptyIndexError):
        idx.nearest_neighbor([(0, 0)])


@pytest.mark.parametrize("cell", [0.05, 0.7, 3.0])
def test_random_workload_matches_linear_scan(cell):
    # rows and queries reach past the box, so the edge cells hold rows too
    rng = np.random.default_rng(20240 + int(cell * 10))
    pts = np.full((600, 2), np.nan)
    lo, hi = np.array([-3.0, -2.0]), np.array([3.0, 4.0])
    idx = GridIndex(cell, pts, (lo, hi))
    edges = np.floor(lo / idx.cell) - 1, np.floor(hi / idx.cell) + 1
    live: dict[int, tuple[float, float]] = {}
    seq: dict[int, int] = {}  # insertion number of each live id
    free = list(range(len(pts)))

    def place(i):
        """(column, row, insertion) of live id i: the within_radius order."""
        col, row = np.clip(np.floor(np.array(live[i]) / idx.cell), *edges)
        return col, row, seq[i]

    for t in range(600):
        op = rng.random()
        if op < 0.55 or not live:
            i = free.pop(int(rng.integers(len(free))))
            pts[i] = rng.uniform(-5, 5, size=2)
            idx.insert(i)
            live[i] = tuple(pts[i])
            seq[i] = t
        elif op < 0.65:
            victim = int(rng.choice(list(live)))
            idx.remove(victim)
            pts[victim] = np.nan
            del live[victim], seq[victim]
            free.append(victim)
        elif op < 0.75:
            # overwrite a live row in place: remove it first, insert it after
            i = int(rng.choice(list(live)))
            idx.remove(i)
            pts[i] = rng.uniform(-5, 5, size=2)
            idx.insert(i)
            live[i] = tuple(pts[i])
            seq[i] = t
        else:
            q = tuple(rng.uniform(-6, 6, size=2))
            r = float(rng.uniform(0, 4))
            got = idx.within_radius(q, r)
            assert got.tolist() == sorted(scan_within(live, q, r), key=place)
            dx = [live[i][0] - q[0] for i in got]
            dy = [live[i][1] - q[1] for i in got]
            assert idx.d2.tolist() == [a * a + b * b for a, b in zip(dx, dy)]
            qs = np.vstack([q, rng.uniform(-7, 7, size=(5, 2))])
            assert idx.any_within_radius(qs, r).tolist() == [bool(scan_within(live, x, r)) for x in qs]
            assert idx.nearest_neighbor(qs).tolist() == [scan_nearest(live, x) for x in qs]


def test_thousand_random_nearest_queries():
    rng = np.random.default_rng(99)
    pts = rng.uniform(0, 10, size=(300, 2))
    idx = GridIndex(0.8, pts, (pts.min(axis=0), pts.max(axis=0)))
    live = {}
    for i, p in enumerate(pts):
        idx.insert(i)
        live[i] = tuple(p)
    qs = rng.uniform(-1, 11, size=(1000, 2))
    for q, nn in zip(qs, idx.nearest_neighbor(qs).tolist()):
        assert nn == scan_nearest(live, q)
        # one-ulp slack: sqrt of the squared distance can round below it
        d = math.dist(q, live[nn]) * (1 + 1e-12)
        assert nn in idx.within_radius(q, d)
        assert idx.any_within_radius(q[None], d).tolist() == [True]


# -- whole-array queries against the linear scan -------------------------------

def full_index(cell, pts):
    return GridIndex(cell, np.ascontiguousarray(pts, dtype=float))


def scan_nearest_all(pts, qs):
    d2 = np.square(qs[:, None, :] - pts[None]).sum(axis=2)
    return np.array([int(np.flatnonzero(row == row.min())[0]) for row in d2])


def scan_any_all(pts, qs, r):
    return (np.square(qs[:, None, :] - pts[None]).sum(axis=2) <= r * r).any(axis=1)


coords = st.floats(-50, 50, allow_nan=False)
lattice = st.integers(-4, 4).map(float)


@settings(max_examples=100, deadline=None)
@given(
    pts=st.lists(st.tuples(lattice, lattice), min_size=1, max_size=30),
    qs=st.lists(st.tuples(coords, coords) | st.tuples(lattice, lattice), min_size=1, max_size=30),
    cell=st.sampled_from([0.3, 1.0, 7.0, 1e3]),
)
def test_batched_nearest_matches_scan_on_lattice_ties(pts, qs, cell):
    # integer points give exact distance ties and duplicated members; queries
    # far outside the members' box come from the wide coordinate range
    pts, qs = np.array(pts), np.array(qs)
    got = full_index(cell, pts).nearest_neighbor(qs)
    assert got.dtype == np.int64
    assert got.tolist() == scan_nearest_all(pts, qs).tolist()


@settings(max_examples=100, deadline=None)
@given(
    pts=st.lists(st.tuples(coords, coords), min_size=1, max_size=30),
    qs=st.lists(st.tuples(coords, coords), min_size=0, max_size=30),
    r=st.sampled_from([0.0, 1e-300, 1e-9, 0.5, 3.0, 40.0, 1e300]),
    cell=st.sampled_from([0.05, 1.0, 25.0]),
)
def test_batched_membership_matches_scan(pts, qs, r, cell):
    pts, qs = np.array(pts), np.array(qs).reshape(-1, 2)
    idx = full_index(cell, pts)
    got = idx.any_within_radius(qs, r)
    assert got.dtype == bool
    assert got.tolist() == scan_any_all(pts, qs, r).tolist()
    # each member is at distance 0 from itself, and about r from itself + (r, 0)
    assert idx.any_within_radius(pts, 0.0).all()
    if r < 1e100:
        shifted = pts + [r, 0.0]
        assert idx.any_within_radius(shifted, r).tolist() == scan_any_all(pts, shifted, r).tolist()


@pytest.mark.parametrize("r", [0.0, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("cell", [1 / 3, 1.0, 4.0])
def test_batched_membership_at_exactly_r(r, cell):
    # integer points and centres: many squared distances equal r*r exactly
    rng = np.random.default_rng(40)
    pts = rng.integers(0, 12, size=(25, 2)).astype(float)
    qs = np.stack(np.meshgrid(np.arange(-3.0, 15.0), np.arange(-3.0, 15.0)), axis=-1).reshape(-1, 2)
    assert full_index(cell, pts).any_within_radius(qs, r).tolist() == scan_any_all(pts, qs, r).tolist()


@pytest.mark.parametrize("k", [1, 2, 50])
def test_batched_nearest_single_cell_and_far_queries(k):
    # every member in one cell, queries spread around it and far away; the
    # last one over a small cell overflows to inf, which clips to an edge cell
    rng = np.random.default_rng(k)
    pts = rng.uniform(0, 1e-3, size=(k, 2))
    qs = np.vstack([rng.uniform(-5, 5, size=(300, 2)), [[1e12, -1e12], [-3e15, 0.0], [0.0, 1.7e308]]])
    with np.errstate(over="ignore"):  # the scans square the last query's distances
        nearest, near = scan_nearest_all(pts, qs), scan_any_all(pts, qs, 0.5)
    for cell in (1.0, 1e-9):
        idx = full_index(cell, pts)
        assert idx.nearest_neighbor(qs).tolist() == nearest.tolist()
        assert idx.any_within_radius(qs, 0.5).tolist() == near.tolist()


def test_batched_queries_use_live_ids_only():
    # rows 2 and 3 lie outside the box, in its edge cells
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [9.0, 9.0]])
    idx = GridIndex(1.0, pts, ((0.0, 0.0), (1.0, 1.0)))
    for i in (1, 2, 3):
        idx.insert(i)
    idx.remove(2)
    qs = np.array([[0.0, 0.0], [5.0, 5.0], [8.0, 8.0]])
    assert idx.nearest_neighbor(qs).tolist() == [1, 3, 3]
    assert idx.any_within_radius(qs, 1.0).tolist() == [True, False, False]
    assert idx.nearest_neighbor(np.empty((0, 2))).tolist() == []
    assert idx.any_within_radius(np.empty((0, 2)), 1.0).tolist() == []
    with pytest.raises(NonFiniteInputError, match="queries"):
        idx.nearest_neighbor([[np.nan, 0.0]])
    with pytest.raises(ValueError):  # one point is a (1, 2) array
        idx.nearest_neighbor([0.0, 0.0])


def test_fill_builds_the_buckets_of_inserts_in_id_order():
    # an index over every row holds what inserting them in id order builds
    rng = np.random.default_rng(4)
    pts = rng.integers(-3, 3, size=(40, 2)).astype(float)
    grown = GridIndex(0.7, pts, (pts.min(axis=0), pts.max(axis=0)))
    for i in range(len(pts)):
        grown.insert(i)
    full = full_index(0.7, pts)
    assert full.ids.tolist() == grown.ids.tolist()
    assert full.starts.tolist() == grown.starts.tolist()
    for i in rng.permutation(len(pts)).tolist():
        full.remove(i)
    assert not full.starts.any()


def test_batched_nearest_blocks_stay_bounded():
    # all 2000 members in one cell, 1000 queries in another: one window
    # holds every member, and its block is split by rows
    pts = np.random.default_rng(8).uniform(0, 1e-6, size=(2000, 2))
    qs = np.random.default_rng(9).uniform(0.5, 0.5 + 1e-6, size=(1000, 2))
    got = full_index(1.0, pts).nearest_neighbor(qs)
    assert got.tolist() == scan_nearest_all(pts, qs).tolist()


@pytest.mark.parametrize("cell", [1 / 3, 1 / 2, 0.1])
def test_batched_membership_many_centres(cell):
    # the Monte-Carlo setting: sparse points, cells a fraction of r = 1, and
    # centres anywhere in the box, near and far from every point
    rng = np.random.default_rng(int(cell * 30))
    pts = rng.uniform(0, 10, size=(200, 2))
    qs = rng.uniform(-1, 11, size=(20_000, 2))
    got = full_index(cell, pts).any_within_radius(qs, 1.0)
    assert got.tolist() == scan_any_all(pts, qs, 1.0).tolist()


def test_batched_queries_on_huge_coordinates():
    # squared distances overflow to inf: the scan's ties, and no error
    rng = np.random.default_rng(12)
    pts = rng.uniform(-1, 1, size=(40, 2)) * 1e300
    qs = np.vstack([rng.uniform(-1, 1, size=(60, 2)) * 1.7e308, pts[:5]])
    with np.errstate(over="ignore", invalid="ignore"):
        idx = full_index(1e299, pts)
        assert idx.nearest_neighbor(qs).tolist() == scan_nearest_all(pts, qs).tolist()
        for r in (1e299, 1e308):
            assert idx.any_within_radius(qs, r).tolist() == scan_any_all(pts, qs, r).tolist()


# -- the window walker ---------------------------------------------------------

wide = st.floats(-1e3, 1e3, allow_nan=False) | lattice | st.sampled_from([1e300, -1e300, 1.7e308, -1.7e308])


@settings(max_examples=150, deadline=None)
@given(
    pts=st.lists(st.tuples(coords, coords) | st.tuples(lattice, lattice), min_size=0, max_size=30),
    qs=st.lists(st.tuples(wide, wide), min_size=0, max_size=30),
    live=st.integers(0, 30),
    r=st.sampled_from([0.0, 1e-300, 0.3, 1.0, 7.5, 1e3, 1e300, math.inf]),
    cell=st.sampled_from([0.05, 1.0, 25.0]),
)
# a query over a small cell that overflows to inf
@example(pts=[(0.0, 0.0)] * 25, qs=[(0.0, 1.7e308)], live=25, r=0.0, cell=0.05)
def test_windows_partition_the_queries_and_reach_every_id_in_range(pts, qs, live, r, cell):
    # an index on the box [-5, 5]^2 holding the first ``live`` rows, so rows
    # and queries lie outside it too, and it may be empty
    pts, qs = np.array(pts, dtype=float).reshape(-1, 2), np.array(qs, dtype=float).reshape(-1, 2)
    idx = GridIndex(cell, pts, ((-5.0, -5.0), (5.0, 5.0)))
    for i in range(min(live, len(pts))):
        idx.insert(i)
    ids_live = idx.ids[: idx.starts[-1]].tolist()
    groups = list(idx.windows(qs, r))
    rows = [g.tolist() for g, _ in groups]
    assert sorted(sum(rows, [])) == list(range(len(qs)))
    keys = idx._keys(qs)
    assert all(g == sorted(g) and len(set(keys[g])) == 1 for g in rows)
    assert [keys[g[0]] for g in rows] == sorted({int(k) for k in keys})
    # linear scan, less a margin for rounding: the slack of the callers'
    # radii, and 1e-9 relative for coordinates far larger than a cell
    reach = r * (1 - 1e-9) - 2.0**-10 * idx.cell
    with np.errstate(over="ignore", invalid="ignore"):
        for g, ids in groups:
            window = set(ids.tolist())
            assert len(window) == len(ids) and window <= set(ids_live)
            for q in qs[g]:
                d = np.hypot(*(pts[ids_live] - q).T)  # no overflow of a squared radius
                if reach > 0:
                    assert {i for i, di in zip(ids_live, d) if di <= reach} <= window
                # and every id ``within_radius`` finds: no lookup keeps an id a window misses
                if math.isfinite(r):
                    assert set(idx.within_radius(q, r).tolist()) <= window
