import numpy as np
import pytest

from vizsample.dataio import (
    Sample,
    gen_blobs,
    read_points_csv,
    read_sample_csv,
    write_points_csv,
    write_sample_csv,
)
from vizsample.errors import EmptyFileError, EmptySampleError, ParseError


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
        method="test",
        counts=np.array([7, 2]),
    )
    path = tmp_path / "s.csv"
    write_sample_csv(s, path, with_density=True)
    assert path.read_text().splitlines()[0] == "x,y,count"
    back = read_sample_csv(path)
    assert np.array_equal(back.points, s.points)
    assert back.counts.tolist() == [7, 2]


def test_sample_roundtrip_without_counts(tmp_path):
    s = Sample(points=np.array([[0.0, 1.0]]), source_indices=np.array([0]), method="test")
    path = tmp_path / "s.csv"
    write_sample_csv(s, path)
    back = read_sample_csv(path)
    assert back.counts is None
    assert np.array_equal(back.points, s.points)


def test_density_write_requires_counts(tmp_path):
    s = Sample(points=np.array([[0.0, 1.0]]), source_indices=np.array([0]), method="test")
    with pytest.raises(EmptySampleError):
        write_sample_csv(s, tmp_path / "x.csv", with_density=True)


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


def test_sample_length_mismatch_rejected():
    with pytest.raises(ValueError):
        Sample(points=np.zeros((2, 2)), source_indices=np.array([0]), method="x")


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
