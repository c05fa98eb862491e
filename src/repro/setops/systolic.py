"""Behavioural model of the Systolic Merge Array SIU (DIMMining, Figure 2b).

The SMA streams N-element segments of both inputs through an N×N comparator
array performing an exhaustive all-to-all comparison — N elements per cycle
of throughput, but O(N) fill latency, an N-deep compact triangle on the way
out, and N² comparators of area.  The paper's Table 1 and Figure 15 contrast
exactly these characteristics against the order-aware design.

The model is behavioural: results are computed exactly at the word level
(the SMA produces correct intersections; it is the *cost* that differs),
while the cycle counters replay the systolic advance pattern — one segment
step per cycle with ``N²`` comparisons each, plus ``2N`` pipeline depth for
array fill and the output compact triangle.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..graph import bitmapcsr
from .trace import SetOpTrace

__all__ = ["SystolicMergeArray"]


class SystolicMergeArray:
    """N-wide systolic merge array with all-to-all segment comparison."""

    def __init__(self, segment_width: int = 8, bitmap_width: int = 0) -> None:
        if segment_width < 2 or segment_width & (segment_width - 1):
            raise ConfigError("segment_width must be a power of two >= 2")
        self.segment_width = segment_width
        self.bitmap_width = bitmap_width

    @property
    def pipeline_depth(self) -> int:
        """Array fill (N) plus the output compact triangle (N)."""
        return 2 * self.segment_width

    @property
    def comparator_count(self) -> int:
        """All-to-all comparison requires N² comparators (paper Table 1)."""
        return self.segment_width**2

    def _keys(self, words: np.ndarray) -> np.ndarray:
        b = self.bitmap_width
        w = np.asarray(words, dtype=np.int64)
        return w >> b if b else w

    def run(
        self, a_words: np.ndarray, b_words: np.ndarray, op: str = "intersect"
    ) -> SetOpTrace:
        if op not in ("intersect", "difference"):
            raise ConfigError(f"unsupported op {op!r}")
        n = self.segment_width
        a = np.asarray(a_words, dtype=np.int64)
        b = np.asarray(b_words, dtype=np.int64)
        trace = SetOpTrace()
        trace.words_consumed = int(a.size + b.size)

        # Functional result (exact, word level).
        if op == "intersect":
            result = bitmapcsr.intersect_words(a, b, self.bitmap_width)
        else:
            result = bitmapcsr.difference_words(a, b, self.bitmap_width)

        # Cycle accounting: replay the systolic advance pattern.  One
        # segment enters the array per cycle (bus width N) with an
        # exhaustive N² comparison against the resident segment of the
        # other stream; every segment overlapping the other stream's key
        # range must enter before its matches are complete.
        ka, kb = self._keys(a), self._keys(b)
        if ka.size and kb.size:
            lim = min(int(ka[-1]), int(kb[-1]))
            i_lim = int(np.searchsorted(ka, lim, side="right"))
            j_lim = int(np.searchsorted(kb, lim, side="right"))
        else:
            i_lim = j_lim = 0
        i = j = 0
        while i < i_lim or j < j_lim:
            trace.issue_cycles += 1
            trace.comparisons += n * n
            a_active = i < i_lim
            b_active = j < j_lim
            if a_active and b_active:
                max_a = int(ka[min(i + n, ka.size) - 1])
                max_b = int(kb[min(j + n, kb.size) - 1])
                if max_a <= max_b:
                    i += n
                else:
                    j += n
            elif a_active:
                i += n
            else:
                j += n
        if ka.size and kb.size:
            trace.issue_cycles = max(trace.issue_cycles, 1)
        if op == "difference" and i_lim < ka.size:
            remaining = ka.size - i_lim
            trace.issue_cycles += (remaining + n - 1) // n

        trace.pipeline_depth = self.pipeline_depth
        trace.cycles = trace.issue_cycles + self.pipeline_depth
        trace.result = np.asarray(result, dtype=np.int64)
        trace.words_produced = int(trace.result.size)
        trace.result_count = bitmapcsr.count_vertices(
            trace.result, self.bitmap_width
        )
        return trace
