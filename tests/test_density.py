import numpy as np
import pytest

from vizsample.density import attach_counts
from vizsample.errors import EmptySampleError


def nearest_oracle(sample, data):
    counts = np.zeros(len(sample), dtype=np.int64)
    for p in data:
        d2 = np.square(sample - p).sum(axis=1)
        best = np.min(d2)
        counts[int(np.flatnonzero(d2 == best)[0])] += 1
    return counts


def test_single_member_absorbs_everything():
    data = np.random.default_rng(1).uniform(0, 5, size=(40, 2))
    assert attach_counts(np.array([[2.0, 2.0]]), data).tolist() == [40]


def test_empty_sample_rejected():
    with pytest.raises(EmptySampleError):
        attach_counts(np.empty((0, 2)), np.zeros((3, 2)))


def test_line_split():
    sample = np.array([[0.0, 0.0], [10.0, 0.0]])
    data = np.array([[0.0, 0], [1.0, 0], [4.0, 0], [7.0, 0], [9.0, 0]])
    assert attach_counts(sample, data).tolist() == [3, 2]


def test_tie_goes_to_smallest_sample_index():
    sample = np.array([[1.0, 0.0], [-1.0, 0.0]])
    data = np.array([[0.0, 0.0], [0.0, 3.0]])
    assert attach_counts(sample, data).tolist() == [2, 0]


def test_counts_partition_the_dataset():
    rng = np.random.default_rng(7)
    data = rng.normal(0, 2, size=(500, 2))
    sample = data[rng.choice(500, size=20, replace=False)]
    counts = attach_counts(sample, data)
    assert counts.sum() == 500
    assert np.all(counts >= 1)  # each member is its own nearest neighbor


def test_data_permutation_invariance():
    rng = np.random.default_rng(9)
    data = rng.uniform(0, 3, size=(200, 2))
    sample = rng.uniform(0, 3, size=(11, 2))
    base = attach_counts(sample, data)
    perm = attach_counts(sample, data[rng.permutation(200)])
    assert np.array_equal(base, perm)


def test_matches_linear_scan_oracle():
    rng = np.random.default_rng(13)
    data = rng.uniform(-4, 4, size=(2000, 2))
    sample = rng.uniform(-4, 4, size=(37, 2))
    assert np.array_equal(attach_counts(sample, data), nearest_oracle(sample, data))


def test_identical_sample_points():
    # duplicate members: the lower index takes every charge
    sample = np.array([[1.0, 1.0], [1.0, 1.0]])
    data = np.random.default_rng(17).uniform(0, 2, size=(30, 2))
    assert attach_counts(sample, data).tolist() == [30, 0]


def test_tiny_sample_extent_with_distant_data_point():
    # a grid sized from the sample's extent alone (1e-9 here) would walk
    # ~1e10 empty rings toward (10, 10)
    sample = np.array([[0.0, 0.0], [1e-9, 0.0]])
    data = np.array([[10.0, 10.0]])
    counts = attach_counts(sample, data)
    assert counts.tolist() == [0, 1]
    assert np.array_equal(counts, nearest_oracle(sample, data))


@pytest.mark.parametrize("seed, k", [(21, 1), (22, 40), (23, 600)])
def test_matches_oracle_on_clustered_data(seed, k):
    # blobs, duplicated data rows and lattice ties against a sample of data rows
    rng = np.random.default_rng(seed)
    blobs = rng.normal(0, 0.3, size=(3000, 2)) + rng.integers(0, 3, size=(3000, 1)) * 4.0
    data = np.vstack((blobs, np.round(blobs[:500]), blobs[:200]))
    sample = data[rng.choice(len(data), size=k, replace=False)]
    assert np.array_equal(attach_counts(sample, data), nearest_oracle(sample, data))
