import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vizsample import dataio
from vizsample.dataio import (
    Sample,
    gen_blobs,
    read_points_csv,
    read_sample_csv,
    write_points_csv,
    write_sample_csv,
)
from vizsample.errors import EmptyFileError, ParseError


def test_points_roundtrip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1e3, 1e3, size=(200, 2))
    pts[0] = [1 / 3, 0.1]  # values with no short decimal form
    path = tmp_path / "pts.csv"
    write_points_csv(pts, path)
    back = read_points_csv(path)
    assert np.array_equal(pts, back)


def test_sample_roundtrip_with_counts(tmp_path):
    s = Sample(
        points=np.array([[0.25, 0.5], [1.0, 2.0]]),
        source_indices=np.array([3, 8]),
        counts=np.array([7, 2]),
    )
    path = tmp_path / "s.csv"
    write_sample_csv(s, path)
    assert path.read_text().splitlines()[0] == "x,y,count"
    back = read_sample_csv(path)
    assert np.array_equal(back.points, s.points)
    assert back.counts.tolist() == [7, 2]


def test_sample_roundtrip_without_counts(tmp_path):
    s = Sample(points=np.array([[0.0, 1.0]]), source_indices=np.array([0]))
    path = tmp_path / "s.csv"
    write_sample_csv(s, path)
    back = read_sample_csv(path)
    assert back.counts is None
    assert np.array_equal(back.points, s.points)


def test_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ParseError) as ei:
        read_points_csv(path)
    assert ei.value.line == 1


def test_bad_value_reports_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,2\n3,oops\n")
    with pytest.raises(ParseError) as ei:
        read_points_csv(path)
    assert ei.value.line == 3
    assert "oops" in str(ei.value)


def test_nonfinite_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\nnan,2\n")
    with pytest.raises(ParseError) as ei:
        read_points_csv(path)
    assert ei.value.line == 2


def test_wrong_column_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,2,3\n")
    with pytest.raises(ParseError) as ei:
        read_points_csv(path)
    assert ei.value.line == 2


def test_empty_and_header_only_files(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(EmptyFileError):
        read_points_csv(empty)
    header_only = tmp_path / "h.csv"
    header_only.write_text("x,y\n")
    with pytest.raises(EmptyFileError):
        read_points_csv(header_only)


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("x,y\n1,2\n\n3,4\n")
    assert read_points_csv(path).tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_sample_bad_count(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("x,y,count\n1,2,five\n")
    with pytest.raises(ParseError) as ei:
        read_sample_csv(path)
    assert ei.value.line == 2


def test_sample_count_overflow_reports_line_number(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("x,y,count\n1,2,3\n1,2,99999999999999999999\n")
    with pytest.raises(ParseError) as ei:
        read_sample_csv(path)
    assert ei.value.line == 3


def _outcome(path):
    """What ``_read_csv`` gives for ``path``: the arrays' bytes, or the error."""
    try:
        pts, counts = dataio._read_csv(path, ("x,y", "x,y,count"))
    except ParseError as exc:
        return ("ParseError", exc.line, str(exc))
    except EmptyFileError as exc:
        return ("EmptyFileError", str(exc))
    assert pts.dtype == np.float64 and pts.flags.c_contiguous and pts.shape[1:] == (2,)
    return ("rows", pts.tobytes(), None if counts is None else (counts.dtype.str, counts.tobytes()))


_TOKENS = st.one_of(
    st.sampled_from([
        "nan", "inf", "-inf", "Infinity", "1e400", "-1e400", "1e-400", "1_0", " +1", "+1",
        "-0", "#", "# 1", "", " ", "3.0", "0x10", "1d3", "1.5e", ".5", "5.", " 2 ", "\t3",
        "\u0661", "99999999999999999999", "-9223372036854775808", "9223372036854775807",
        "9223372036854775808", "true", "1 2", "'1'",
    ]),
    st.floats().map(repr),
    st.integers(-(10**20), 10**20).map(str),
)
_FINITE = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_ROWS = st.one_of(  # well-formed for one header or the other
    st.tuples(_FINITE, _FINITE),
    st.tuples(_FINITE, _FINITE, st.integers(-(2**63), 2**63 - 1).map(str)),
).map(",".join)
_ODD_LINES = st.one_of(
    st.lists(_TOKENS, min_size=1, max_size=4).map(",".join),
    st.sampled_from(["", "   ", "#", "# x,y"]),
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["x,y", "x,y,count"]),
    st.lists(_ROWS, max_size=6),
    st.lists(st.tuples(st.integers(0, 6), _ODD_LINES), max_size=2),
)
def test_numpy_fast_path_matches_line_parser(tmp_path_factory, header, lines, odd):
    # odd tokens, blank lines, short and long rows: the numpy parse and the
    # line parser give the same arrays or the same error on the same line
    for at, line in odd:
        lines.insert(at, line)
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    fast = _outcome(path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_fast_rows", lambda body, with_counts: None)
        assert _outcome(path) == fast


@pytest.mark.parametrize("with_counts", [False, True])
def test_numpy_fast_path_parses_written_files(tmp_path, with_counts):
    pts = gen_blobs(500, 3, seed=4)
    counts = np.arange(500) * 7 - 3
    path = tmp_path / "s.csv"
    write_sample_csv(Sample(pts, np.arange(500), counts if with_counts else None), path)
    body = path.read_text().splitlines()[1:]
    fast_pts, fast_counts = dataio._fast_rows(body, with_counts)
    assert fast_pts.tobytes() == pts.tobytes()
    if with_counts:
        assert fast_counts.tobytes() == counts.astype(np.int64).tobytes()
    else:
        assert fast_counts is None


_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 1e-320, 5e-324, 0.1 + 0.2])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(_FINITE, _FINITE, st.integers(-(2**63), 2**63 - 1)), max_size=8),
    st.booleans(),
)
def test_written_bytes_match_the_per_value_format(tmp_path_factory, rows, with_counts):
    pts = np.array([r[:2] for r in rows], dtype=float).reshape(-1, 2)
    counts = np.array([r[2] for r in rows], dtype=np.int64)
    path = tmp_path_factory.mktemp("csv") / "s.csv"
    write_sample_csv(Sample(pts, np.arange(len(pts)), counts if with_counts else None), path)
    lines = ["x,y,count" if with_counts else "x,y"]
    for x, y, c in rows:
        lines.append(",".join([format(x, ".17g"), format(y, ".17g")] + [str(c)] * with_counts))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_sample_length_mismatch_rejected():
    with pytest.raises(ValueError):
        Sample(points=np.zeros((2, 2)), source_indices=np.array([0]))


def test_gen_blobs_shape_and_determinism():
    a = gen_blobs(101, 3, seed=5)
    b = gen_blobs(101, 3, seed=5)
    assert a.shape == (101, 2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, gen_blobs(101, 3, seed=6))


def test_gen_blobs_validation():
    with pytest.raises(ValueError):
        gen_blobs(0, 1, seed=0)
    with pytest.raises(ValueError):
        gen_blobs(10, 0, seed=0)
    for cov in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            gen_blobs(10, 1, seed=0, cov=cov)


def test_gen_blobs_more_blobs_than_points():
    pts = gen_blobs(2, 5, seed=1)
    assert pts.shape == (2, 2)
