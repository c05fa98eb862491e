"""Analytic cycle-cost models of the three SIU microarchitectures.

Formulas mirror the exact pipelines in :mod:`repro.setops` (tests assert
agreement): the order-aware unit drains both streams at ``N`` words/cycle
through a ``2 + 2·log2 N`` deep pipeline; the merge queue walks one
comparison per cycle; the systolic merge array advances one ``N``-segment
per cycle through a ``2N``-deep array with ``N²`` comparators.

Two entry points exist per model: :meth:`SIUCostModel.op_cost` computes the
exact word-level boundaries from the vertex arrays (used by tests and small
studies), while :meth:`cost_terms` takes pre-computed stream lengths and
merge boundaries — scalars, or one array entry per operation, which is how
the event-driven simulator's trace costs a block of operations in one call.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError
from .base import OpCost, SIUCostModel, consumed_extents, merge_boundaries

__all__ = ["OrderAwareSIU", "MergeQueueSIU", "SystolicSIU", "make_siu"]


def _check_op(op: str) -> None:
    if op not in ("set_int", "set_diff"):
        raise ConfigError(f"unknown set operation {op!r}")


class _WordCostMixin:
    """Shared exact-path plumbing: vertex arrays → word-level boundaries."""

    def op_cost(self, a_vertices, b_vertices, op: str) -> OpCost:
        _check_op(op)
        ka, kb = self._streams(a_vertices, b_vertices)
        i_end, j_end, matches = merge_boundaries(ka, kb)
        c_a, c_b = consumed_extents(ka, kb)
        return self.cost_terms(
            int(ka.size), int(kb.size), i_end, j_end, matches, op,
            c_a=c_a, c_b=c_b,
        )


class OrderAwareSIU(_WordCostMixin, SIUCostModel):
    """X-SET's order-aware SIU: bitonic merger + match-flag merge stage."""

    name = "order-aware"

    def __init__(self, segment_width: int = 8, bitmap_width: int = 0) -> None:
        if segment_width < 2 or segment_width & (segment_width - 1):
            raise ConfigError("segment_width must be a power of two >= 2")
        super().__init__(segment_width, bitmap_width)
        self._log_n = int(math.log2(segment_width))
        self._cmp_per_cycle = (
            segment_width + (segment_width // 2) * self._log_n + 1
        )

    @property
    def pipeline_depth(self) -> int:
        return 2 + 2 * self._log_n  # MIN + CAS·logN + Merge + Compact·logN

    @property
    def comparator_count(self) -> int:
        return self._cmp_per_cycle

    @property
    def throughput(self) -> int:
        return self.segment_width

    def cost_terms(
        self, wa: int, wb: int, i_end: int, j_end: int, matches: int,
        op: str, c_a: int | None = None, c_b: int | None = None,
    ) -> OpCost:
        n = self.segment_width
        if c_a is None or c_b is None:
            c_a, c_b = wa + j_end, wb + i_end  # drain approximation
        # intersection stops as soon as either stream exhausts; difference
        # must drain all of A (B stops contributing once A is done)
        if op == "set_int":
            both = np.logical_and(wa, wb)
            consumed = np.where(both, np.minimum(c_a, c_b), 0)
            out = matches
        else:
            consumed = c_a
            out = wa
        issue = (consumed + n - 1) // n
        return self._cost(issue, issue * self._cmp_per_cycle, wa, wb, out)


class MergeQueueSIU(_WordCostMixin, SIUCostModel):
    """Single-comparator sequential merge queue (FlexMiner/FINGERS)."""

    name = "merge"

    def __init__(self, segment_width: int = 1, bitmap_width: int = 0) -> None:
        super().__init__(1, bitmap_width)

    pipeline_depth = 2
    comparator_count = 1
    throughput = 1

    def cost_terms(
        self, wa: int, wb: int, i_end: int, j_end: int, matches: int,
        op: str, c_a: int | None = None, c_b: int | None = None,
    ) -> OpCost:
        if op == "set_int":
            issue = i_end + j_end - matches
            out = matches
        else:
            issue = wa + j_end - matches
            out = wa
        issue = np.maximum(issue, 0)
        return self._cost(issue, issue, wa, wb, out)


class SystolicSIU(_WordCostMixin, SIUCostModel):
    """DIMMining's systolic merge array: N²-comparator all-to-all segments."""

    name = "sma"
    # the array holds per-pair comparison state: it must fill and drain for
    # every operation, so independent ops cannot overlap (paper §7.4.1's
    # "higher setup latency")
    pipelined_across_ops = False

    def __init__(self, segment_width: int = 8, bitmap_width: int = 0) -> None:
        if segment_width < 2 or segment_width & (segment_width - 1):
            raise ConfigError("segment_width must be a power of two >= 2")
        super().__init__(segment_width, bitmap_width)

    @property
    def pipeline_depth(self) -> int:
        return 2 * self.segment_width

    @property
    def comparator_count(self) -> int:
        return self.segment_width**2

    @property
    def throughput(self) -> int:
        return self.segment_width

    def cost_terms(
        self, wa: int, wb: int, i_end: int, j_end: int, matches: int,
        op: str, c_a: int | None = None, c_b: int | None = None,
    ) -> OpCost:
        n = self.segment_width
        # one resident segment enters/retires per cycle
        issue = (i_end + n - 1) // n + (j_end + n - 1) // n
        out = matches
        if op == "set_diff":
            issue = issue + (wa - i_end + n - 1) // n
            out = wa
        issue = np.where(np.logical_and(wa, wb), np.maximum(issue, 1), issue)
        return self._cost(issue, issue * n * n, wa, wb, out)


_SIU_KINDS = {
    "order-aware": OrderAwareSIU,
    "merge": MergeQueueSIU,
    "sma": SystolicSIU,
}


def make_siu(
    kind: str, segment_width: int = 8, bitmap_width: int = 0
) -> SIUCostModel:
    """Factory for SIU cost models by architecture name."""
    try:
        cls = _SIU_KINDS[kind]
    except KeyError:
        raise ConfigError(
            f"unknown SIU kind {kind!r}; choose from {sorted(_SIU_KINDS)}"
        ) from None
    return cls(segment_width=segment_width, bitmap_width=bitmap_width)
