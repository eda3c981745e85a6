"""In-memory span recorder and the layer wrappers of the traced run.

The traced run calls ``vizsample.cli.main(argv)`` in this process with each
layer's public functions and methods replaced by a timing wrapper, installed
under the name its caller resolves (``vizsample.cli.attach_counts``,
``vizsample.quality.point_losses``, ``ResponsibilitySet.expand``,
``GridIndex.within_radius``, ...).  Nothing in the package is edited; the
originals are put back when the ``traced`` block exits.

A span is (name, start, end, parent, value).  ``value`` carries one number a
layer metric needs from the call's arguments or result: ids returned by a
radius query, pairs a kernel sum visits (computed from argument sizes, not
counted inside the kernel), whether a shrink replaced a member, whether an
expand ran during seed-fill.  Spans live in flat ``array`` columns so a
million wrapped calls cost tens of MB, and are written out once at the end.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np


class SpanRecorder:
    """Flat span store.  Single-threaded: a span's parent is the innermost
    span open when it starts, so sibling spans never overlap."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.name)

    def _nid(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(self._nid(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.value.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, value: float = 0.0) -> None:
        self.end[idx] = time.perf_counter()
        self.value[idx] = value
        self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int = -1, value: float = 0.0) -> int:
        """Record a finished span directly (used by the self-tests)."""
        self.name.append(self._nid(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        self.value.append(value)
        return len(self.name) - 1

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "value": np.frombuffer(self.value, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Span duration minus the time its child spans cover.

    Children of one span are sequential (single-threaded recorder), so the
    part they cover is the sum of their durations.
    """
    dur = end - start
    covered = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return np.maximum(dur - covered, 0.0)


class LayerStats:
    """Per-name totals over a recorder's spans."""

    def __init__(self, rec: SpanRecorder):
        a = rec.arrays()
        self._name = a["name"]
        self._value = a["value"]
        self._dur = a["end"] - a["start"]
        self._self = self_times(a["parent"], a["start"], a["end"])
        self._ids = {n: i for i, n in enumerate(rec.names)}

    def _mask(self, name: str) -> np.ndarray:
        nid = self._ids.get(name)
        if nid is None:
            return np.zeros(len(self._name), dtype=bool)
        return self._name == nid

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def total(self, name: str) -> float:
        return float(self._dur[self._mask(name)].sum())

    def self_total(self, name: str) -> float:
        return float(self._self[self._mask(name)].sum())

    def values(self, name: str) -> np.ndarray:
        return self._value[self._mask(name)]

    def total_where(self, name: str) -> float:
        """Duration of the spans of ``name`` whose value is non-zero."""
        m = self._mask(name)
        return float(self._dur[m][self._value[m] != 0].sum())


def _wrap(rec: SpanRecorder, name: str, fn, value_of=None, before=None):
    """Timing wrapper.  ``before(args)`` is read at entry, ``value_of(args,
    result)`` at exit; whichever is given becomes the span's value."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        pre = before(args) if before is not None else 0.0
        idx = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            rec.close(idx, pre)
            raise
        rec.close(idx, value_of(args, out) if value_of is not None else pre)
        return out

    return wrapper


def _pairs_point_losses(args, _out):
    return float(len(args[0]) * len(args[1]))


def _pairs_surrogate(args, _out):
    n = len(args[0])
    return float(n * (n - 1) // 2)


def _seed_fill(args):
    state = args[0]
    return 1.0 if state.n < state.k else 0.0


# (span name, owner in _owners(), attribute, value_of, before)
_TARGETS = [
    ("dataio.read_points_csv", "cli", "read_points_csv", None, None),
    ("dataio.read_sample_csv", "cli", "read_sample_csv", None, None),
    ("dataio.write_sample_csv", "cli", "write_sample_csv", None, None),
    ("dataio.write_points_csv", "cli", "write_points_csv", None, None),
    ("geometry.default_epsilon", "cli", "default_epsilon", None, None),
    ("interchange.run_interchange", "cli", "run_interchange", None, None),
    ("density.attach_counts", "cli", "attach_counts", None, None),
    ("quality.evaluate", "cli", "evaluate", None, None),
    ("baselines.reservoir_sample", "cli", "reservoir_sample", None, None),
    ("baselines.stratified_sample", "cli", "stratified_sample", None, None),
    ("quality.draw_domain_points", "quality", "draw_domain_points", None, None),
    ("quality.point_losses", "quality", "point_losses", _pairs_point_losses, None),
    ("quality.surrogate_objective", "quality", "surrogate_objective", _pairs_surrogate, None),
    ("interchange.expand", "ResponsibilitySet", "expand", None, _seed_fill),
    ("interchange.shrink", "ResponsibilitySet", "shrink", lambda a, out: float(out), None),
    ("interchange.recompute", "ResponsibilitySet", "recompute", None, None),
    ("interchange.exact_objective", "ResponsibilitySet", "exact_objective", None, None),
    ("spatial.within_radius", "GridIndex", "within_radius", lambda a, out: float(len(out)), None),
    ("spatial.insert", "GridIndex", "insert", None, None),
    ("spatial.remove", "GridIndex", "remove", None, None),
    ("spatial.any_within_radius", "GridIndex", "any_within_radius", None, None),
    ("spatial.nearest_neighbor", "GridIndex", "nearest_neighbor", None, None),
]


def _owners():
    import vizsample.cli
    import vizsample.interchange
    import vizsample.quality
    import vizsample.spatial

    return {
        "cli": vizsample.cli,
        "quality": vizsample.quality,
        "ResponsibilitySet": vizsample.interchange.ResponsibilitySet,
        "GridIndex": vizsample.spatial.GridIndex,
    }


@contextlib.contextmanager
def traced(rec: SpanRecorder):
    """Install the layer wrappers for the duration of the block."""
    owners = _owners()
    saved = []
    try:
        for name, owner_key, attr, value_of, before in _TARGETS:
            owner = owners[owner_key]
            orig = owner.__dict__[attr]
            saved.append((owner, attr, orig))
            setattr(owner, attr, _wrap(rec, name, orig, value_of, before))
        yield rec
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def layer_metrics(rec: SpanRecorder) -> dict[str, float]:
    """Every per-layer figure the traced run reports, keyed by metric name."""
    st = LayerStats(rec)
    m: dict[str, float] = {}
    m["cli.sample.self_s"] = st.self_total("cli.sample")
    m["cli.evaluate.self_s"] = st.self_total("cli.evaluate")
    for fn in ("read_points_csv", "read_sample_csv", "write_sample_csv", "write_points_csv"):
        m[f"dataio.{fn}.s"] = st.total(f"dataio.{fn}")
    m["geometry.default_epsilon.s"] = st.total("geometry.default_epsilon")

    m["interchange.run_interchange.s"] = st.total("interchange.run_interchange")
    m["interchange.run_interchange.self_s"] = st.self_total("interchange.run_interchange")
    m["interchange.seed_fill.s"] = st.total_where("interchange.expand")
    for fn in ("expand", "shrink"):
        m[f"interchange.{fn}.calls"] = st.calls(f"interchange.{fn}")
        m[f"interchange.{fn}.self_s"] = st.self_total(f"interchange.{fn}")
    shrinks = st.values("interchange.shrink")
    m["interchange.replace_ratio"] = float(shrinks.mean()) if len(shrinks) else 0.0
    m["interchange.recompute.calls"] = st.calls("interchange.recompute")
    m["interchange.recompute.s"] = st.total("interchange.recompute")
    m["interchange.exact_objective.s"] = st.total("interchange.exact_objective")

    ids = st.values("spatial.within_radius")
    m["spatial.within_radius.calls"] = len(ids)
    m["spatial.within_radius.s"] = st.total("spatial.within_radius")
    m["spatial.within_radius.ids_mean"] = float(ids.mean()) if len(ids) else 0.0
    m["spatial.within_radius.ids_max"] = float(ids.max()) if len(ids) else 0.0
    m["spatial.insert.s"] = st.total("spatial.insert")
    m["spatial.remove.s"] = st.total("spatial.remove")
    for fn in ("any_within_radius", "nearest_neighbor"):
        m[f"spatial.{fn}.calls"] = st.calls(f"spatial.{fn}")
        m[f"spatial.{fn}.s"] = st.total(f"spatial.{fn}")

    m["density.attach_counts.s"] = st.total("density.attach_counts")
    m["density.attach_counts.self_s"] = st.self_total("density.attach_counts")

    m["quality.evaluate.s"] = st.total("quality.evaluate")
    m["quality.draw_domain_points.s"] = st.total("quality.draw_domain_points")
    for fn in ("point_losses", "surrogate_objective"):
        m[f"quality.{fn}.s"] = st.total(f"quality.{fn}")
        m[f"quality.{fn}.pairs"] = float(st.values(f"quality.{fn}").sum())
    m["baselines.reservoir_sample.s"] = st.total("baselines.reservoir_sample")
    m["baselines.stratified_sample.s"] = st.total("baselines.stratified_sample")
    m["trace.spans"] = len(rec)
    return m


def predicted_split(m: dict[str, float], workload: str) -> tuple[str, bool] | None:
    """The per-workload profile the benchmark's rationale predicts, checked
    against one traced run.  Returns (statement, held) or None."""
    run = m["interchange.run_interchange.s"]
    if run <= 0:
        return None
    if workload.startswith("stream"):
        others = {
            "run_interchange.self_s": m["interchange.run_interchange.self_s"],
            "expand.self_s": m["interchange.expand.self_s"],
            "shrink.self_s": m["interchange.shrink.self_s"],
            "recompute.s": m["interchange.recompute.s"],
            "exact_objective.s": m["interchange.exact_objective.s"],
            "insert.s": m["spatial.insert.s"],
            "remove.s": m["spatial.remove.s"],
        }
        top = max(others, key=others.get)
        wr = m["spatial.within_radius.s"]
        return (
            f"within_radius.s {wr:.3f} is the largest part of run_interchange "
            f"(next: {top} {others[top]:.3f})",
            wr > others[top],
        )
    if workload.startswith("largek"):
        dense = m["interchange.recompute.s"] + m["interchange.exact_objective.s"] + m["interchange.seed_fill.s"]
        return (
            f"recompute+exact_objective+seed_fill = {dense / run:.1%} of run_interchange (>= 40%)",
            dense >= 0.4 * run,
        )
    if workload.startswith("quality"):
        glue = (
            m["interchange.expand.self_s"]
            + m["interchange.shrink.self_s"]
            + m["interchange.run_interchange.self_s"]
        )
        return (
            f"expand+shrink+run_interchange self = {glue / run:.1%} of run_interchange (>= 60%)",
            glue >= 0.6 * run,
        )
    return None
