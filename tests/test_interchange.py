import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vizsample import interchange, spatial
from vizsample.errors import EmptyDatasetError, KTooLargeError, NonFiniteInputError
from vizsample.geometry import bounding_box, make_params
from vizsample.interchange import MODES, PASS_CAP, InterchangeConfig, ResponsibilitySet, run_interchange
from vizsample.quality import surrogate_objective

from test_quality import dense_pair_sums

UNIT = make_params(1.0)


def pair_objective(points, params):
    pts = np.asarray(points, dtype=float)
    total = 0.0
    for i, j in combinations(range(len(pts)), 2):
        total += math.exp(-float(np.sum((pts[i] - pts[j]) ** 2)) / (2 * params.epsilon**2))
    return total


def fresh_set(k, params, mode="es"):
    return ResponsibilitySet(k, params, mode)


def test_expand_into_empty_set():
    r = fresh_set(3, UNIT)
    r.expand((1.0, 2.0))
    assert r.n == 1
    assert r.rsp[0] == 0.0


def test_expand_duplicate_point():
    r = fresh_set(2, UNIT)
    r.expand((0.0, 0.0))
    r.expand((0.0, 0.0))
    assert r.rsp[0] == pytest.approx(1.0)
    assert r.rsp[1] == pytest.approx(1.0)


def test_expand_line_example():
    r = fresh_set(3, UNIT)
    r.expand((0.0, 0.0))
    r.expand((1.0, 0.0))
    r.expand((2.0, 0.0))
    e05, e2 = math.exp(-0.5), math.exp(-2.0)
    got = {tuple(p): v for p, v in zip(r.points, r.rsp[: r.n])}
    assert got[(0.0, 0.0)] == pytest.approx(e05 + e2, rel=1e-12)
    assert got[(1.0, 0.0)] == pytest.approx(2 * e05, rel=1e-12)
    assert got[(2.0, 0.0)] == pytest.approx(e2 + e05, rel=1e-12)


def shrink_with(r, point, source_index=-1):
    """``shrink`` of R + {point}, with the weights ``step`` would hand it."""
    p = np.asarray(point, dtype=float)
    return r.shrink(p, source_index, *r._weights_to(p))


def test_shrink_line_example_removes_middle():
    r = fresh_set(2, UNIT)
    for x in (0.0, 1.0):
        r.expand((x, 0.0))
    replaced = shrink_with(r, (2.0, 0.0))
    assert replaced  # evicted the middle incumbent, not the newest point
    assert sorted(p[0] for p in r.points) == [0.0, 2.0]
    assert r.objective() == pytest.approx(math.exp(-2.0), rel=1e-9)


def test_shrink_all_identical_removes_newest():
    r = fresh_set(3, UNIT)
    for _ in range(3):
        r.expand((5.0, 5.0))
    before = _state_record(r)
    replaced = shrink_with(r, (5.0, 5.0))
    assert not replaced
    assert _state_record(r) == before  # the newest copy went, writing nothing


def test_shrink_matches_recomputation_oracle():
    rng = np.random.default_rng(11)
    params = make_params(0.4)
    for _ in range(50):
        pts = rng.uniform(0, 1, size=(6, 2))
        r = fresh_set(5, params)
        for p in pts[:5]:
            r.expand(p)
        # independent responsibilities via direct pair sums
        rsp = [
            sum(
                math.exp(-float(np.sum((pts[i] - pts[j]) ** 2)) / (2 * params.epsilon**2))
                for j in range(6)
                if j != i
            )
            for i in range(6)
        ]
        expect_removed = tuple(pts[int(np.argmax(rsp))])
        before = {tuple(p) for p in pts}
        shrink_with(r, pts[5])
        after = {tuple(p) for p in r.points}
        assert before - after == {expect_removed}


def test_step_far_point_replaces_clustered_member():
    params = make_params(1.0)
    r = fresh_set(3, params)
    for p in [(0.0, 0.0), (0.1, 0.0), (0.0, 0.1)]:
        r.expand(p)
    assert r.step((100.0, 100.0)) is True
    assert (100.0, 100.0) in {tuple(p) for p in r.points}


def test_step_duplicate_of_member_is_noop():
    params = make_params(1.0)
    r = fresh_set(3, params)
    pts = [(0.0, 0.0), (0.2, 0.0), (5.0, 5.0)]
    for p in pts:
        r.expand(p)
    before = sorted(map(tuple, r.points))
    assert r.step((5.0, 5.0)) is False
    assert sorted(map(tuple, r.points)) == before


def test_step_matches_best_single_swap_oracle():
    rng = np.random.default_rng(21)
    params = make_params(0.35)
    for _ in range(60):
        pts = rng.uniform(0, 1, size=(8, 2))
        members, t = pts[:3], pts[3]
        r = fresh_set(3, params)
        for p in members:
            r.expand(p)
        # oracle: minimize the objective over keeping R or any single swap
        candidates = [list(map(tuple, members))]
        for i in range(3):
            swapped = list(map(tuple, members))
            swapped[i] = tuple(t)
            candidates.append(swapped)
        objs = [pair_objective(c, params) for c in candidates]
        best = candidates[int(np.argmin(objs))]
        replaced = r.step(t)
        assert sorted(map(tuple, r.points)) == sorted(best)
        assert replaced == (min(objs) < objs[0])


def test_noes_and_es_modes_agree():
    rng = np.random.default_rng(5)
    params = make_params(0.3)
    for seed in range(5):
        data = rng.uniform(0, 1, size=(40, 2))
        cfg_es = InterchangeConfig(k=6, seed=seed, mode="es", passes=PASS_CAP)
        cfg_no = InterchangeConfig(k=6, seed=seed, mode="noes", passes=PASS_CAP)
        s_es, _ = run_interchange(data, cfg_es, params)
        s_no, _ = run_interchange(data, cfg_no, params)
        assert sorted(s_es.source_indices) == sorted(s_no.source_indices)


def test_run_k_equals_n_returns_dataset():
    data = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    sample, stats = run_interchange(data, InterchangeConfig(k=3, seed=0), UNIT)
    assert sorted(sample.source_indices) == [0, 1, 2]
    assert stats.final_objective == pytest.approx(pair_objective(data, UNIT), rel=1e-12)
    # one pass skips every member and makes no replacement
    assert stats.passes_run == 1 and stats.stop_reason == "converged"
    assert stats.points_seen == 3 and stats.max_drift == 0.0


def test_run_collinear_converges_to_endpoints():
    data = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    cfg = InterchangeConfig(k=2, seed=3, passes=PASS_CAP, mode="es")
    sample, stats = run_interchange(data, cfg, UNIT)
    assert sorted(sample.source_indices) == [0, 2]
    assert stats.final_objective == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_run_rejects_bad_inputs():
    with pytest.raises(EmptyDatasetError):
        run_interchange(np.empty((0, 2)), InterchangeConfig(k=1), UNIT)
    with pytest.raises(KTooLargeError):
        run_interchange(np.zeros((2, 2)), InterchangeConfig(k=3), UNIT)


@pytest.mark.parametrize("mode", ["es", "esloc"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_run_rejects_non_finite_row(mode, bad):
    data = np.random.default_rng(3).uniform(0, 4, size=(30, 2))
    data[17, 1] = bad
    with pytest.raises(NonFiniteInputError):
        run_interchange(data, InterchangeConfig(k=5, mode=mode), UNIT)


def test_objective_monotone_along_trace():
    rng = np.random.default_rng(17)
    params = make_params(0.3)
    data = rng.uniform(0, 1, size=(60, 2))
    cfg = InterchangeConfig(k=8, seed=1, mode="es", passes=3, record_trace=True)
    _, stats = run_interchange(data, cfg, params)
    trace = stats.objective_trace
    assert len(trace) == stats.points_seen - cfg.k
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


def test_responsibility_recompute_drift_small(monkeypatch):
    monkeypatch.setattr(interchange, "RECOMPUTE_INTERVAL", 13)
    rng = np.random.default_rng(23)
    params = make_params(0.3)
    data = rng.uniform(0, 1, size=(300, 2))
    cfg = InterchangeConfig(k=12, seed=2, mode="es", passes=4)
    _, stats = run_interchange(data, cfg, params)
    assert stats.max_drift < 1e-9 * cfg.k


def test_esloc_neighbours_match_linear_scan():
    rng = np.random.default_rng(29)
    data = rng.uniform(0, 6, size=(400, 2))
    params = make_params(0.3)
    state = ResponsibilitySet(40, params, "esloc")
    for i, p in enumerate(data[:40]):
        state.expand(p, i)
    for i, p in enumerate(data[40:], start=40):
        state.step(p, i)
    r2 = params.cutoff_radius * params.cutoff_radius
    for q in rng.uniform(-1, 7, size=(50, 2)):
        slots, w = state._weights_to(q)
        d2 = np.square(state.points - q).sum(axis=1)
        assert sorted(slots.tolist()) == np.flatnonzero(d2 <= r2).tolist()
        np.testing.assert_allclose(w, np.exp(-d2[slots] / (2 * params.epsilon**2)), rtol=1e-14)
    # closed ball: a member exactly at the cutoff radius (1.0 here) interacts
    edge = ResponsibilitySet(2, make_params(0.25), "esloc")
    edge.expand((0.0, 0.0))
    assert edge._weights_to(np.array([1.0, 0.0]))[0].tolist() == [0]


def test_esloc_close_to_es_within_truncation_bound():
    rng = np.random.default_rng(31)
    data = rng.uniform(0, 1, size=(400, 2))
    params = make_params(0.05)  # cutoff 0.2 actually truncates pairs
    obj = {}
    for mode in ("es", "esloc"):
        _, stats = run_interchange(
            data, InterchangeConfig(k=30, seed=4, mode=mode, passes=3), params
        )
        obj[mode] = stats.final_objective
    bound = len(data) * 30 * math.exp(-8.0)
    assert abs(obj["es"] - obj["esloc"]) <= bound


_HALF_LATTICE = st.integers(0, 8).map(lambda i: i / 2)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.floats(0, 10), st.floats(0, 10)) | st.tuples(_HALF_LATTICE, _HALF_LATTICE), min_size=2, max_size=60
    ),
    eps=st.floats(0.05, 3) | st.sampled_from([0.125, 0.25, 0.5, 1.0]),
    factor=st.floats(1, 6) | st.sampled_from([1.0, 2.0, 4.0]),
)
def test_esloc_responsibilities_within_the_truncation_bound_of_es(rows, eps, factor):
    # half-lattice ties put pairs exactly at the cutoff for the sampled eps
    data = np.array(rows)
    n = len(data)
    params = make_params(eps, factor * eps)
    rsp = {mode: _loaded(data, n, params, mode).rsp[:n] for mode in ("es", "esloc")}
    r = params.cutoff_radius
    dropped = (n - 1) * math.exp(-r * r * params.inv_2eps2)  # most weight one member loses
    rounding = n * 2.0**-52 * np.abs(rsp["es"])
    assert np.all(np.abs(rsp["esloc"] - rsp["es"]) <= dropped + rounding)
    assert np.all(rsp["esloc"] <= rsp["es"] + rounding)


def test_local_optimality_at_convergence():
    rng = np.random.default_rng(41)
    params = make_params(0.3)
    data = rng.uniform(0, 1, size=(25, 2))
    cfg = InterchangeConfig(k=5, seed=6, mode="es", passes=PASS_CAP)
    sample, stats = run_interchange(data, cfg, params)
    members = list(sample.source_indices)
    base = pair_objective(data[members], params)
    for t in range(len(data)):
        if t in members:
            continue
        for i in range(len(members)):
            swapped = members.copy()
            swapped[i] = t
            assert pair_objective(data[swapped], params) >= base - 1e-12


def test_responsibility_sum_is_twice_objective():
    rng = np.random.default_rng(51)
    params = make_params(0.4)
    r = ResponsibilitySet(7, params, "es")
    pts = rng.uniform(0, 1, size=(7, 2))
    for p in pts:
        r.expand(p)
    assert r.objective() == pytest.approx(pair_objective(pts, params), rel=1e-10)
    assert r.objective() == pytest.approx(surrogate_objective(pts, params), rel=1e-10)


def _datasets():
    rng = np.random.default_rng(61)
    base = rng.uniform(0, 3, size=(60, 2))
    return {
        "uniform": rng.uniform(0, 4, size=(500, 2)),
        # exact ties between distances and between responsibilities
        "lattice": rng.integers(0, 8, size=(400, 2)).astype(float),
        "duplicated": base[rng.integers(0, len(base), size=300)],
        # isolated members: a candidate near one ties it exactly
        "sparse": rng.uniform(0, 40, size=(400, 2)),
    }


DATASETS = _datasets()


def _run_record(data, cfg, params):
    sample, stats = run_interchange(data, cfg, params)
    record = (
        sample.points.tobytes(),
        sample.source_indices.tobytes(),
        stats.points_seen,
        stats.replacements,
        stats.passes_run,
        np.float64(stats.final_objective).tobytes(),
        np.float64(stats.max_drift).tobytes(),
        np.array(stats.objective_trace).tobytes(),
    )
    return record, stats.batch_rejects


@pytest.mark.parametrize("mode", ["es", "esloc"])
@pytest.mark.parametrize("kind", sorted(DATASETS))
@pytest.mark.parametrize(
    "interval, trace", [(100_000, False), (9, False), (100_000, True)], ids=["100000", "9", "100000-trace"]
)
def test_batched_rejection_matches_per_step_run(mode, kind, interval, trace, monkeypatch):
    # a traced run batches too: a settled row repeats the objective
    monkeypatch.setattr(interchange, "RECOMPUTE_INTERVAL", interval)
    params = make_params(0.4)
    cfg = InterchangeConfig(k=20, seed=5, mode=mode, passes=3, record_trace=trace)
    batched, batch_rejects = _run_record(DATASETS[kind], cfg, params)
    monkeypatch.setattr(interchange, "REJECT_BLOCK_CELLS", 0)
    per_step, no_batch_rejects = _run_record(DATASETS[kind], cfg, params)
    assert batch_rejects > 0 and no_batch_rejects == 0
    assert batched == per_step


def _state_record(state):
    n = state.n
    index = state.index
    grid = None if index is None else (index.ids[: index.starts[-1]].tobytes(), index.starts.tobytes())
    return (
        state.pts[:n].tobytes(),
        state.rsp[:n].tobytes(),
        state.order[:n].tobytes(),
        state.src[:n].tobytes(),
        state._seq,
        grid,
    )


def _loaded(data, k, params, mode, box=None):
    """State seeded by one ``load`` of data[:k], on ``box`` or the data's."""
    state = ResponsibilitySet(k, params, mode, bounding_box(data) if box is None else box)
    state.load(data[:k], np.arange(k))
    return state


def _dense_cutoff_rsp(pts, params):
    """Oracle: responsibilities by the dense ``kernel_blocks`` walk, cut off."""
    return dense_pair_sums(pts, params.inv_2eps2, params.cutoff_radius * params.cutoff_radius)


CELL_CASES = {
    "uniform": (DATASETS["uniform"], make_params(0.1), None),
    "lattice": (DATASETS["lattice"], make_params(0.4), None),
    "duplicated": (DATASETS["duplicated"], make_params(0.2), None),
    # cells of 1 on the integer lattice: pairs at exactly the cutoff, across cell edges
    "lattice-cutoff-is-cell": (DATASETS["lattice"], make_params(0.5, cutoff_radius=1.0), None),
    # most rows lie outside the box, in its edge cells
    "outside-box": (DATASETS["uniform"], make_params(0.15), ((1.5, 1.0), (2.5, 3.0))),
    "cutoff-wider-than-box": (DATASETS["uniform"], make_params(3.0), None),
}


@pytest.mark.parametrize("case", sorted(CELL_CASES))
def test_esloc_recompute_matches_the_dense_cutoff_oracle(case):
    data, params, box = CELL_CASES[case]
    k = 250
    state = _loaded(data, k, params, "esloc", box)
    assert state.index.starts[-1] == k  # every slot in the grid
    if case == "lattice-cutoff-is-cell":
        assert state.index.cell == 1.0
    np.testing.assert_allclose(state.rsp[:k], _dense_cutoff_rsp(state.points, params), rtol=1e-12, atol=0)
    # again after steps have overwritten evicted slots
    for i, p in enumerate(data[k:], start=k):
        state.step(p, i)
    state.recompute()
    np.testing.assert_allclose(state.rsp[:k], _dense_cutoff_rsp(state.points, params), rtol=1e-12, atol=0)


@pytest.mark.parametrize("mode", MODES)
def test_recompute_is_one_pair_sums_walk(monkeypatch, mode):
    calls = []
    walk = interchange.pair_sums

    def spy(pts, inv, reach, cutoff2=None):
        calls.append((len(pts), reach, cutoff2))
        return walk(pts, inv, reach, cutoff2)

    def windows(*args):
        raise AssertionError("recompute walked grid windows")

    monkeypatch.setattr(interchange, "pair_sums", spy)
    monkeypatch.setattr(spatial.GridIndex, "windows", windows)
    params = make_params(0.1)
    state = _loaded(DATASETS["uniform"], 250, params, mode)
    state.recompute()
    assert [n for n, *_ in calls] == [250, 250]
    for _, reach, cutoff2 in calls:
        if mode == "esloc":
            assert cutoff2 == params.cutoff_radius**2 and params.cutoff_radius < reach < 1.01 * params.cutoff_radius
        else:
            assert (reach, cutoff2) == (math.inf, None)


def test_esloc_recompute_of_a_lone_point_is_zero():
    state = _loaded(np.array([[0.5, 0.5]]), 1, UNIT, "esloc")
    assert state.rsp[0] == 0.0
    data = np.vstack([np.random.default_rng(91).uniform(0, 1, size=(30, 2)), [[50.0, 50.0]]])
    state = _loaded(data, 31, make_params(0.5), "esloc")
    assert state.rsp[30] == 0.0 and (state.rsp[:30] > 0).all()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", sorted(DATASETS))
def test_load_leaves_the_state_of_k_expands(mode, kind):
    data = DATASETS[kind]
    order = np.random.default_rng(93).permutation(len(data))[:120]
    params = make_params(0.4)
    loaded = ResponsibilitySet(120, params, mode, bounding_box(data))
    loaded.load(data[order], order)
    expanded = ResponsibilitySet(120, params, mode, bounding_box(data))
    for i in order:
        expanded.expand(data[i], int(i))
    a, b = _state_record(loaded), _state_record(expanded)
    assert a[:1] + a[2:] == b[:1] + b[2:]  # all but the responsibilities
    np.testing.assert_allclose(loaded.rsp[:120], expanded.rsp[:120], rtol=1e-12, atol=0)


@pytest.mark.parametrize("mode", MODES)
def test_run_samples_match_an_expand_seeded_run(mode, monkeypatch):
    cfg = InterchangeConfig(k=100, seed=3, mode=mode, passes=2)
    loaded = run_interchange(DATASETS["uniform"], cfg, make_params(0.3))[0]

    def expand_each(self, points, sources):
        for p, i in zip(points, sources):
            self.expand(p, int(i))

    monkeypatch.setattr(ResponsibilitySet, "load", expand_each)
    expanded = run_interchange(DATASETS["uniform"], cfg, make_params(0.3))[0]
    assert loaded.source_indices.tobytes() == expanded.source_indices.tobytes()
    assert loaded.points.tobytes() == expanded.points.tobytes()


def test_load_needs_an_empty_set_and_at_most_k_points():
    state = ResponsibilitySet(2, UNIT, "esloc")
    with pytest.raises(ValueError):
        state.load(np.zeros((3, 2)), np.arange(3))
    state.load(np.zeros((2, 2)), np.arange(2))
    with pytest.raises(ValueError):
        state.load(np.zeros((1, 2)), np.arange(1))


def _state_after(data, k, params, mode):
    """State after seeding with data[:k] and stepping through the rest."""
    state = ResponsibilitySet(k, params, mode)
    for i, p in enumerate(data[:k]):
        state.expand(p, i)
    for i, p in enumerate(data[k:], start=k):
        state.step(p, i)
    return state


@pytest.mark.parametrize("mode", ["es", "esloc"])
def test_reject_run_leaves_the_state_of_its_steps(mode):
    rng = np.random.default_rng(71)
    params = make_params(0.3)
    settled = []
    for _ in range(40):
        data = rng.uniform(0, 3, size=(60, 2))
        batched = _state_after(data[:40], 12, params, mode)
        stepped = _state_after(data[:40], 12, params, mode)
        cands = data[40:]
        n_settled = batched.reject_run(cands)
        for i in range(n_settled):
            assert stepped.step(cands[i], 40 + i) is False
        assert _state_record(batched) == _state_record(stepped)
        settled.append(n_settled)
    assert 0 < sum(settled) and min(settled) < len(cands)


def test_reject_run_scores_every_row_against_the_same_state():
    # Members far apart have responsibilities near 3.5e-11.  The first
    # candidate lies next to member 2, the second far from all three; step
    # drops each without writing, so neither moves the responsibilities the
    # other is scored against.
    members = [
        [10.924252571715536, 12.873232596853832],
        [1.1768538986227084, 10.142515113961153],
        [9.527308814204618, 6.0750729104095536],
    ]
    first = [9.460291747761381, 6.598646278403779]
    second = [3.321848125108975, 3.5421040127184944]
    state = _state_after(np.array(members), 3, make_params(1.0), "es")
    stepped = _state_after(np.array(members), 3, make_params(1.0), "es")
    assert state.reject_run(np.array([first, second])) == 2
    before = _state_record(stepped)
    for i, cand in enumerate([first, second]):
        assert stepped.step(cand, 3 + i) is False
        after = _state_record(stepped)
        assert after[:4] + after[5:] == before[:4] + before[5:]
    assert _state_record(state) == _state_record(stepped)


_COORD = st.integers(0, 5).map(float) | st.floats(0, 5)


@settings(max_examples=200, deadline=None)
@given(
    mode=st.sampled_from(["es", "esloc"]),
    rows=st.lists(st.tuples(_COORD, _COORD), min_size=2, max_size=14),
    eps=st.sampled_from([0.3, 1.0, 3.0]),
    slot=st.integers(0, 12),
    ulps=st.integers(0, 4),
)
def test_a_dropping_step_writes_nothing(mode, rows, eps, slot, ulps):
    # lattice coordinates give exact ties and candidates at a member's place;
    # the bump is rounding noise of the kind recomputes and evictions leave
    data = np.array(rows)
    k = len(data) - 1
    state = _loaded(data, k, make_params(eps), mode)
    assert state._rsp_max is None  # so the step below reads the bumped rsp
    state.rsp[slot % k] += ulps * np.spacing(state.rsp[slot % k])
    before = _state_record(state)
    if not state.step(data[k], k):
        assert _state_record(state) == before


def _oracle_top(state, rsp):
    cand = np.flatnonzero(rsp == rsp.max())
    return int(cand[np.argmax(state.order[cand])])


def _k_plus_one(state, data, box=None):
    """Oracle state with room for K+1 entries, seeded like the loaded
    ``state`` from data[:K], for ``_k_plus_one_step``.  Its grid takes the
    cell of ``state``'s, which a grid sized for K+1 rows never refines."""
    k = state.k
    box = bounding_box(data) if box is None else box
    oracle = ResponsibilitySet(k, state.params, state.mode, box)
    oracle.pts, oracle.rsp = np.empty((k + 1, 2)), np.zeros(k + 1)
    oracle.order, oracle.src = np.empty(k + 1, dtype=np.int64), np.empty(k + 1, dtype=np.int64)
    if state.index is not None:
        oracle.index = spatial.GridIndex(state.index.cell, oracle.pts, box)
        assert oracle.index.cell == state.index.cell
    oracle.load(data[:k], np.arange(k))
    return oracle


def _k_plus_one_step(state, point, source_index):
    """``step`` as the set of K+1 slots took it, on a ``_k_plus_one`` state:
    ``es`` and ``esloc`` score on a full copy of the responsibilities, with
    no cached maximum, and expand only a replacement; ``noes`` expands every
    point and recomputes the K+1 responsibilities.  The point goes to slot
    K; the evicted slot j is searched for again, and slot K is moved into it
    and relabelled j in its place in the grid."""
    p = np.asarray(point, dtype=float)
    k = state.k
    slots, w = state._weights_to(p)
    if state.mode != "noes":
        grown = state.rsp[:k].copy()
        grown[slots] += w
        if w.sum() >= grown.max() or state.pts[_oracle_top(state, grown)].tolist() == p.tolist():
            return False
    state.rsp[slots] += w
    state.pts[k], state.rsp[k], state.order[k], state.src[k] = p, float(w.sum()), state._seq, source_index
    if state.index is not None:
        state.index.insert(k)
    state._seq, state.n = state._seq + 1, k + 1
    if state.mode == "noes":
        state.recompute()
    j = _oracle_top(state, state.rsp[: k + 1])
    if j != k and state.pts[j].tolist() == p.tolist():
        j = k
    slots, w = state._weights_to(state.pts[j])
    state.rsp[slots] -= w
    state.n = k
    if state.index is not None:
        state.index.remove(j)
    if j == k:
        return False
    state.last_removed_src = int(state.src[j])
    state.pts[j], state.rsp[j], state.order[j], state.src[j] = state.pts[k], state.rsp[k], state.order[k], state.src[k]
    if state.index is not None:
        ids = state.index.ids
        ids[ids[:k].tolist().index(k)] = j
    return True


@settings(max_examples=150, deadline=None)
@given(
    mode=st.sampled_from(["es", "esloc"]),
    rows=st.lists(st.tuples(_COORD, _COORD), min_size=3, max_size=40),
    k=st.integers(1, 12),
    eps=st.sampled_from([0.3, 1.0, 3.0]),
    interval=st.sampled_from([1, 9, 100_000]),
    bumps=st.lists(st.tuples(st.integers(0, 2), st.integers(-4, 4)), max_size=4),
)
def test_cached_step_matches_the_full_copy_oracle(mode, rows, k, eps, interval, bumps):
    # drops between commits read a warm cached maximum; commits, recomputes
    # and ulp bumps (the rounding noise recomputes leave) must not leave it stale
    data = np.array(rows + rows)  # a second pass offers every row again
    k = min(k, len(rows) - 1)
    cached = _loaded(data, k, make_params(eps), mode)
    oracle = _k_plus_one(cached, data)

    def bump(r):  # at rest, after a write that resets the cache
        if bumps:
            rank, ulps = bumps[r % len(bumps)]  # rank 0: the largest responsibility
            j = np.argsort(-cached.rsp[:k], kind="stable")[rank % k]
            for state in (cached, oracle):
                state.rsp[j] += ulps * np.spacing(state.rsp[j])

    bump(0)
    for i, p in enumerate(data[k:], start=k):
        assert cached.step(p, i) == _k_plus_one_step(oracle, p, i)
        assert cached.last_removed_src == oracle.last_removed_src
        if (i - k + 1) % interval == 0:
            assert cached.recompute() == oracle.recompute()
            bump(i + 1)
        assert _state_record(cached) == _state_record(oracle)
        assert cached._rsp_max in (None, cached.rsp[:k].max())


_STREAMED = (
    st.tuples(_COORD, _COORD)
    | st.tuples(_HALF_LATTICE, _HALF_LATTICE)
    | st.tuples(st.floats(-3, 8), st.floats(-3, 8))  # mostly outside the seeds' box
    | st.integers(0, 60)  # a copy of an earlier row: a member, or one evicted
)


@settings(max_examples=200, deadline=None)
@given(
    mode=st.sampled_from(MODES),
    seeds=st.lists(st.tuples(_COORD, _COORD) | st.tuples(_HALF_LATTICE, _HALF_LATTICE), min_size=1, max_size=12),
    stream=st.lists(_STREAMED, min_size=1, max_size=40),
    eps=st.sampled_from([0.3, 1.0, 3.0]),
)
def test_commit_in_place_matches_the_k_plus_one_path(mode, seeds, stream, eps):
    # a commit overwrites the evicted slot in place; the K+1 path moved the
    # last slot into it, so both leave the same slots, and the same grid
    rows = list(seeds)
    for x in stream:
        rows.append(rows[x % len(rows)] if isinstance(x, int) else x)
    data = np.array(rows, dtype=float)
    k = len(seeds)
    box = bounding_box(data[:k])
    state = _loaded(data, k, make_params(eps), mode, box)
    oracle = _k_plus_one(state, data, box)
    for i, p in enumerate(data[k:], start=k):
        assert state.step(p, i) == _k_plus_one_step(oracle, p, i)
        assert state.last_removed_src == oracle.last_removed_src
        a, b = _state_record(state), _state_record(oracle)
        assert a[0] == b[0] and a[3] == b[3] and a[5] == b[5]  # points, sources, grid
        assert np.argsort(state.order[:k]).tolist() == np.argsort(oracle.order[:k]).tolist()
        if mode == "noes":
            # the K+1 path recomputed; a commit here adds and subtracts weights
            np.testing.assert_allclose(state.rsp[:k], oracle.rsp[:k], rtol=1e-9, atol=1e-12)
        else:
            assert a[1] == b[1]


def test_reject_run_needs_a_replayable_mode_at_rest():
    state = ResponsibilitySet(2, UNIT, "noes")
    state.expand((0.0, 0.0))
    state.expand((5.0, 0.0))
    with pytest.raises(ValueError):
        state.reject_run(np.zeros((3, 2)))
    es = ResponsibilitySet(2, UNIT, "es")
    es.expand((0.0, 0.0))
    with pytest.raises(ValueError):
        es.reject_run(np.zeros((3, 2)))


def test_stop_reasons():
    data = DATASETS["uniform"][:80]
    params = make_params(0.3)
    _, stats = run_interchange(data, InterchangeConfig(k=6, seed=1, passes=PASS_CAP), params)
    assert stats.stop_reason == "converged" and stats.passes_run > 1
    _, stats = run_interchange(data, InterchangeConfig(k=6, seed=1, passes=1), params)
    assert stats.stop_reason == "passes" and stats.replacements > 0
    cfg = InterchangeConfig(k=6, seed=1, passes=50, time_budget_secs=1e-9)
    _, stats = run_interchange(data, cfg, params)
    assert stats.stop_reason == "time_budget"
    assert stats.passes_run == 1 and stats.points_seen < len(data)
    _, stats = run_interchange(data[:6], InterchangeConfig(k=6), params)
    assert stats.stop_reason == "converged"


@pytest.mark.parametrize("k", [8, 1025])  # with and without batched rejection
def test_time_budget_counts_the_seed_and_stops_after_one_step(k):
    # the clock starts before the seed load, and is read after each step
    data = np.random.default_rng(87).uniform(0, 30, size=(k + 200, 2))
    cfg = InterchangeConfig(k=k, seed=2, passes=5, time_budget_secs=1e-9)
    _, stats = run_interchange(data, cfg, make_params(0.3))
    assert stats.stop_reason == "time_budget"
    assert stats.points_seen == k + 1 and stats.passes_run == 1


def test_run_stops_after_its_passes_or_converges():
    # this run needs 4 passes to converge
    cfg = InterchangeConfig(k=20, seed=0, mode="esloc", passes=3)
    _, stats = run_interchange(DATASETS["uniform"], cfg, make_params(0.4))
    assert stats.stop_reason == "passes" and stats.passes_run == 3
    cfg = InterchangeConfig(k=20, seed=0, mode="esloc", passes=4)
    _, stats = run_interchange(DATASETS["uniform"], cfg, make_params(0.4))
    assert stats.stop_reason == "converged" and stats.passes_run == 4


@pytest.mark.parametrize("mode", ["es", "esloc"])
@pytest.mark.parametrize("seed", range(8))
def test_lattice_ties_converge(mode, seed):
    # symmetric lattice members tie exactly; in esloc, rounding left behind
    # by dropped points once made them swap until the pass cap
    cfg = InterchangeConfig(k=20, seed=seed, mode=mode, passes=PASS_CAP)
    _, stats = run_interchange(DATASETS["lattice"], cfg, make_params(0.4))
    assert stats.stop_reason == "converged"


def _repeated_rows():
    # 261 rows drawn from 82 distinct points
    rng = np.random.default_rng(216)
    base = rng.uniform(0, 5, size=(82, 2))
    return base[rng.integers(0, len(base), size=261)]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("data, eps, k", [
    pytest.param(DATASETS["duplicated"], 0.4, 20, id="duplicated-k20"),
    pytest.param(DATASETS["duplicated"], 0.5, 33, id="duplicated-k33"),
    pytest.param(_repeated_rows(), 0.5, 33, id="repeated-k33"),
])
def test_duplicated_points_converge(mode, data, eps, k):
    # rounding noise in the responsibilities of two members at the same
    # coordinates must not count as a replacement, or passes never stop
    cfg = InterchangeConfig(k=k, seed=5, mode=mode, passes=60)
    _, stats = run_interchange(data, cfg, make_params(eps))
    assert stats.stop_reason == "converged"
    assert stats.passes_run <= 10


def test_shrink_evicts_newest_over_a_member_at_its_coordinates():
    state = ResponsibilitySet(2, make_params(1.0), "es")
    state.expand((0.0, 0.0))
    state.expand((0.3, 0.0))
    p = np.array([0.3, 0.0])
    slots, w = state._weights_to(p)
    # make the older copy the strict maximum, as rounding noise can
    state.rsp[1] += 1e-12
    assert state.rsp[1] + w[1] > w.sum()
    before = _state_record(state)
    assert not state.shrink(p, 2, slots, w)
    assert _state_record(state) == before


@pytest.mark.parametrize(
    "k, kw",
    [(10, {"mode": "noes"}), (1025, {"mode": "es"})],
)
def test_per_step_runs_do_not_batch(k, kw):
    rng = np.random.default_rng(83)
    data = rng.uniform(0, 30, size=(k + 200, 2))
    cfg = InterchangeConfig(k=k, seed=2, passes=2, **kw)
    _, stats = run_interchange(data, cfg, make_params(0.3))
    assert stats.batch_rejects == 0
    # the same run one K lower (K <= 1024) does batch
    if k == 1025:
        cfg = InterchangeConfig(k=1024, seed=2, passes=2, mode="es")
        assert run_interchange(data, cfg, make_params(0.3))[1].batch_rejects > 0
