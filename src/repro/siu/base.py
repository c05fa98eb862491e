"""Common interface of SIU cycle-cost models.

The event-driven simulator computes every candidate set *functionally* with
NumPy and asks an :class:`SIUCostModel` what the operation would have cost on
the modelled hardware.  Cost models work on *word streams*: under BitmapCSR
with width ``b`` a sorted vertex set of length ``n`` becomes one word per
distinct ``v // b`` block.  Each model's formulas are cross-validated against
the exact element-level pipelines in :mod:`repro.setops`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..setops.reference import intersect_count

__all__ = ["OpCost", "SIUCostModel", "block_keys", "consumed_extents", "merge_boundaries"]


@dataclass(frozen=True)
class OpCost:
    """Cycle cost of one set operation on one SIU.

    ``issue_cycles`` is how long the unit is occupied; ``pipeline_depth``
    is the additional fill latency; ``comparisons`` drives dynamic power.
    """

    issue_cycles: int
    pipeline_depth: int
    comparisons: int
    words_in: int
    words_out: int


def block_keys(vertices: np.ndarray, bitmap_width: int) -> np.ndarray:
    """Word-stream keys of a sorted vertex set under BitmapCSR.

    With ``bitmap_width == 0`` keys are the vertices themselves; otherwise
    they are the distinct block indices, one per emitted word.
    """
    v = np.asarray(vertices)
    if bitmap_width == 0 or v.size == 0:
        return v
    blocks = v // bitmap_width
    keep = np.empty(blocks.size, dtype=bool)
    keep[0] = True
    np.not_equal(blocks[1:], blocks[:-1], out=keep[1:])
    return blocks[keep]


def consumed_extents(ka: np.ndarray, kb: np.ndarray) -> tuple[int, int]:
    """Elements consumed before each stream exhausts under tagged-merge order.

    ``c_a`` counts union elements consumed when stream A's last element
    leaves (A's own elements plus every B element strictly before it — ties
    sort L before R); ``c_b`` symmetrically includes equal-key A elements.
    These drive the order-aware SIU's early-termination cycle counts.
    """
    if ka.size == 0 or kb.size == 0:
        return int(ka.size), int(kb.size)
    c_a = int(ka.size) + int(np.searchsorted(kb, ka[-1], side="left"))
    c_b = int(kb.size) + int(np.searchsorted(ka, kb[-1], side="right"))
    return c_a, c_b


def merge_boundaries(
    ka: np.ndarray, kb: np.ndarray
) -> tuple[int, int, int]:
    """Merge-walk extents ``(i_end, j_end, matches)`` of two key streams.

    A two-pointer merge consumes ``i_end`` keys of ``a`` and ``j_end`` keys
    of ``b`` before one side exhausts; ``matches`` keys coincide.  These
    three numbers determine the exact step count of a merge-queue SIU and
    the segment-advance count of a systolic array.
    """
    if ka.size == 0 or kb.size == 0:
        return 0, 0, 0
    lim = min(int(ka[-1]), int(kb[-1]))
    i_end = int(np.searchsorted(ka, lim, side="right"))
    j_end = int(np.searchsorted(kb, lim, side="right"))
    matches = intersect_count(ka[:i_end], kb[:j_end])
    return i_end, j_end, matches


class SIUCostModel(ABC):
    """Cycle/area characteristics of one set-intersection unit design."""

    #: short architecture name used in reports ("order-aware", "merge", "sma")
    name: str = "siu"
    #: whether independent operations can overlap in the pipeline.  The
    #: feed-forward bitonic network accepts a new operation every cycle;
    #: a systolic merge array must drain between unrelated set pairs.
    pipelined_across_ops: bool = True

    def __init__(self, segment_width: int = 8, bitmap_width: int = 0) -> None:
        self.segment_width = segment_width
        self.bitmap_width = bitmap_width

    @property
    @abstractmethod
    def pipeline_depth(self) -> int:
        """Pipeline fill latency in cycles."""

    @property
    @abstractmethod
    def comparator_count(self) -> int:
        """Comparators instantiated (Table 1's resource column)."""

    @property
    @abstractmethod
    def throughput(self) -> int:
        """Peak elements consumed per cycle (Table 1's throughput column)."""

    @abstractmethod
    def cost_terms(
        self,
        wa: int,
        wb: int,
        i_end: int,
        j_end: int,
        matches: int,
        op: str,
        c_a: int | None = None,
        c_b: int | None = None,
    ) -> OpCost:
        """Cost from pre-computed word-stream lengths and merge boundaries.

        ``wa``/``wb`` are input stream lengths in words; ``i_end``/``j_end``
        and ``matches`` come from :func:`merge_boundaries` (or the
        simulator's equivalent derived from the functional result);
        ``c_a``/``c_b`` are the :func:`consumed_extents` (optional — models
        that need them fall back to ``i_end + j_end``).
        ``op`` ∈ {set_int, set_diff}.  Arrays (one entry per operation)
        give an :class:`OpCost` of arrays, scalars one of Python ints.
        """

    def op_cost(
        self, a_vertices: np.ndarray, b_vertices: np.ndarray, op: str
    ) -> OpCost:
        """Cost of ``op`` on two sorted vertex sets (exact word streams)."""
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------------

    def _cost(self, issue, comparisons, wa, wb, out) -> OpCost:
        """The :class:`OpCost` of scalar terms (as Python ints) or arrays."""
        terms = (issue, comparisons, wa + wb, out)
        if not np.ndim(issue):
            terms = tuple(map(int, terms))
        issue, comparisons, words_in, words_out = terms
        return OpCost(issue, self.pipeline_depth, comparisons, words_in,
                      words_out)

    def _streams(
        self, a_vertices: np.ndarray, b_vertices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        return (
            block_keys(a_vertices, self.bitmap_width),
            block_keys(b_vertices, self.bitmap_width),
        )

    def describe(self) -> str:
        return (
            f"{self.name}(N={self.segment_width}, b={self.bitmap_width}): "
            f"throughput={self.throughput}/cyc, depth={self.pipeline_depth}, "
            f"comparators={self.comparator_count}"
        )
