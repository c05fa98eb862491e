"""Property tests for the reference sorted-set kernels."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.setops import (
    difference_sorted,
    intersect_count,
    intersect_sorted,
    merge_comparison_count,
)

sorted_sets = st.lists(
    st.integers(min_value=0, max_value=300), max_size=80, unique=True
).map(lambda xs: np.asarray(sorted(xs), dtype=np.int64))


@given(a=sorted_sets, b=sorted_sets)
@settings(max_examples=120, deadline=None)
def test_intersect_matches_numpy(a, b):
    assert np.array_equal(intersect_sorted(a, b), np.intersect1d(a, b))


@given(a=sorted_sets, b=sorted_sets)
@settings(max_examples=120, deadline=None)
def test_difference_matches_numpy(a, b):
    assert np.array_equal(difference_sorted(a, b), np.setdiff1d(a, b))


@given(a=sorted_sets, b=sorted_sets)
@settings(max_examples=80, deadline=None)
def test_intersect_count_consistent(a, b):
    assert intersect_count(a, b) == intersect_sorted(a, b).size


@given(a=sorted_sets)
@settings(max_examples=30, deadline=None)
def test_self_identities(a):
    assert np.array_equal(intersect_sorted(a, a), a)
    assert difference_sorted(a, a).size == 0


@given(a=sorted_sets, b=sorted_sets)
@settings(max_examples=60, deadline=None)
def test_partition_identity(a, b):
    """a = (a ∩ b) ∪ (a − b), disjointly."""
    inter = intersect_sorted(a, b)
    diff = difference_sorted(a, b)
    assert inter.size + diff.size == a.size
    assert np.array_equal(np.union1d(inter, diff), a)


def test_empty_inputs():
    e = np.array([], dtype=np.int64)
    x = np.array([1, 2, 3])
    assert intersect_sorted(e, x).size == 0
    assert intersect_sorted(x, e).size == 0
    assert np.array_equal(difference_sorted(x, e), x)
    assert difference_sorted(e, x).size == 0


class TestComparisonCounts:
    def test_merge_count_disjoint(self):
        # disjoint interleaved sets: every element compared
        assert merge_comparison_count(5, 5, 0) == 9

    def test_merge_count_identical(self):
        assert merge_comparison_count(6, 6, 6) == 6

    def test_merge_count_empty(self):
        assert merge_comparison_count(0, 9, 0) == 0
        assert merge_comparison_count(9, 0, 0) == 0
