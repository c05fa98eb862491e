"""Reference (oracle) implementations of sorted-set operations.

These are the ground truth every hardware model in :mod:`repro.setops` and
:mod:`repro.siu` is validated against.  They operate on sorted NumPy arrays
of vertex IDs (or BitmapCSR words — the algorithms only require sorted,
duplicate-free keys).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "intersect_sorted",
    "difference_sorted",
    "intersect_count",
    "merge_comparison_count",
]


def intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two sorted duplicate-free arrays via merge path."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size == 0 or b.size == 0:
        return a[:0]
    if a.size > b.size:
        a, b = b, a
    idx = b.searchsorted(a)
    idx_c = np.minimum(idx, b.size - 1)
    return a[(idx < b.size) & (b[idx_c] == a)]


def difference_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Difference ``a - b`` of two sorted duplicate-free arrays."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size == 0 or b.size == 0:
        return a.copy()
    idx = b.searchsorted(a)
    idx_c = np.minimum(idx, b.size - 1)
    return a[~((idx < b.size) & (b[idx_c] == a))]


def intersect_count(a: np.ndarray, b: np.ndarray) -> int:
    """``|a ∩ b|`` without materialising the intersection."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size == 0 or b.size == 0:
        return 0
    if a.size > b.size:
        a, b = b, a
    idx = b.searchsorted(a)
    idx_c = np.minimum(idx, b.size - 1)
    return int(np.count_nonzero((idx < b.size) & (b[idx_c] == a)))


def merge_comparison_count(len_a: int, len_b: int, len_common: int) -> int:
    """Comparisons a scalar two-pointer merge intersection performs.

    Each step compares the two heads and advances one pointer (both on a
    match), so the count equals the number of steps:
    ``len_a + len_b - len_common`` bounded below by ``min`` side exhaustion.
    This is the dominant operation of CPU GPM systems (GraphPi/GraphSet) and
    of merge-queue SIU hardware, so the CPU baseline cost models reuse it.
    """
    if len_a == 0 or len_b == 0:
        return 0
    return max(len_a + len_b - len_common - 1, min(len_a, len_b))
