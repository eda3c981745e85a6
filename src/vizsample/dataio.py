"""CSV ingestion/emission, the sample container, and the synthetic generator.

Datasets are plain float64 arrays of shape (n, 2).  CSV files carry a
``x,y`` header (samples optionally ``x,y,count``) and 17-significant-digit
decimal output so that write/read round-trips are bit identical.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyFileError, EmptySampleError, ParseError


@dataclass
class Sample:
    """A selected subset: points, their dataset indices, and optional density counts."""

    points: np.ndarray
    source_indices: np.ndarray
    method: str
    counts: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 2)
        self.source_indices = np.asarray(self.source_indices, dtype=np.int64)
        if len(self.points) != len(self.source_indices):
            raise ValueError("points and source_indices length mismatch")

    def __len__(self) -> int:
        return len(self.points)


_COUNT_MIN, _COUNT_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
_COUNT_ROW = np.dtype([("x", np.float64), ("y", np.float64), ("count", np.int64)])


def _parse_float(token: str, lineno: int, col: str) -> float:
    try:
        v = float(token)
    except ValueError:
        raise ParseError(lineno, f"bad {col} value {token!r}") from None
    if not np.isfinite(v):
        raise ParseError(lineno, f"non-finite {col} value {token!r}")
    return v


def _read_csv(path, headers: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray | None]:
    """Rows of an ``x,y`` or ``x,y,count`` CSV whose header is one of
    ``headers``: the (n, 2) points and, for the count header, the counts.

    Blank lines are skipped; malformed rows raise a line-numbered ``ParseError``.
    The body is parsed by numpy; wherever that could differ from the line
    parser below, the line parser runs instead and names the bad line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise EmptyFileError(f"{path}: empty file")
    header = lines[0].strip()
    if header not in headers:
        expected = " or ".join(repr(h) for h in headers)
        raise ParseError(1, f"expected header {expected}, got {header!r}")
    with_counts = header == "x,y,count"
    fast = _fast_rows(lines[1:], with_counts)
    if fast is not None:
        return fast
    ncols = 3 if with_counts else 2
    pts = []
    counts = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != ncols:
            raise ParseError(lineno, f"expected {ncols} columns, got {len(parts)}")
        pts.append((_parse_float(parts[0], lineno, "x"), _parse_float(parts[1], lineno, "y")))
        if with_counts:
            counts.append(_parse_count(parts[2], lineno))
    if not pts:
        raise EmptyFileError(f"{path}: no data rows")
    return np.array(pts, dtype=float), (np.array(counts, dtype=np.int64) if with_counts else None)


def _parse_count(token: str, lineno: int) -> int:
    try:
        v = int(token)
    except ValueError:
        raise ParseError(lineno, f"bad count value {token!r}") from None
    if not _COUNT_MIN <= v <= _COUNT_MAX:
        raise ParseError(lineno, f"count value {token!r} out of the int64 range")
    return v


def _fast_rows(body: list[str], with_counts: bool) -> tuple[np.ndarray, np.ndarray | None] | None:
    """The body rows parsed by ``np.loadtxt``, or None wherever the line
    parser could give another result: a token numpy rejects (among them
    ``1_0`` and, as a count, ``3.0``, which ``float``/``int`` treat
    differently), a wrong column count, a blank-looking line that is not
    empty, no rows, or a non-finite value.  numpy accepts a subset of the
    tokens ``float`` and ``int`` accept and gives them the same value."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(
                body, delimiter=",", comments=None,
                dtype=_COUNT_ROW if with_counts else np.float64, ndmin=1 if with_counts else 2,
            )
    except (ValueError, Warning):
        return None
    if with_counts:
        pts, counts = np.column_stack((rows["x"], rows["y"])), rows["count"].copy()
    elif rows.shape[1] == 2:
        pts, counts = rows, None
    else:
        return None
    if not np.isfinite(pts).all():
        return None
    return pts, counts


def read_points_csv(path) -> np.ndarray:
    """Read an ``x,y`` CSV into an (n, 2) array; rejects non-finite values."""
    return _read_csv(path, ("x,y",))[0]


def read_sample_csv(path) -> Sample:
    """Read a sample CSV (``x,y`` or ``x,y,count``) back into a ``Sample``."""
    pts, counts = _read_csv(path, ("x,y", "x,y,count"))
    return Sample(points=pts, source_indices=np.arange(len(pts)), method="file", counts=counts)


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def write_points_csv(points: np.ndarray, path) -> None:
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y\n")
        for x, y in pts:
            fh.write(f"{_fmt(x)},{_fmt(y)}\n")


def write_sample_csv(sample: Sample, path, with_density: bool = False) -> None:
    """Write a sample, optionally with the density ``count`` column."""
    if not with_density:
        write_points_csv(sample.points, path)
        return
    if sample.counts is None:
        raise EmptySampleError("with_density requested but the sample carries no counts")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,count\n")
        for (x, y), c in zip(sample.points, sample.counts):
            fh.write(f"{_fmt(x)},{_fmt(y)},{int(c)}\n")


def gen_blobs(n: int, blobs: int, seed: int, cov: float = 1.0, spread: float = 10.0) -> np.ndarray:
    """Seeded Gaussian-mixture generator used by the CLI and the test suite.

    Centers are drawn uniformly in [0, spread)^2; each blob is isotropic with
    variance ``cov``.  Points are distributed across blobs as evenly as n allows.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if blobs < 1:
        raise ValueError("blobs must be >= 1")
    if not (0 <= cov < np.inf):
        raise ValueError(f"cov must be a finite real >= 0, got {cov}")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, spread, size=(blobs, 2))
    sizes = [n // blobs + (1 if i < n % blobs else 0) for i in range(blobs)]
    parts = [
        c + rng.normal(0.0, np.sqrt(cov), size=(m, 2))
        for c, m in zip(centers, sizes)
        if m > 0
    ]
    return np.vstack(parts)
