"""Shared summary math: the one nearest-rank percentile implementation.

Every percentile the repo reports — service latency summaries and
span-duration tables in profile renderings — goes through
:func:`percentile`, so all surfaces agree on edge-case semantics (empty
windows report 0, a single sample is every percentile of itself).
Histograms report only their buckets, sum and count.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Iterable, Sequence

__all__ = ["percentile", "summarize", "Window", "DEFAULT_PERCENTILES"]

#: percentiles reported by default summaries
DEFAULT_PERCENTILES = (50, 90, 99)


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``samples`` (0 for an empty window).

    ``samples`` need not be sorted.  The rank is clamped into the valid
    index range, so ``pct=0`` returns the minimum and ``pct=100`` the
    maximum; a single-sample window returns that sample for every ``pct``.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, round(pct / 100 * len(ordered)) - 1))
    return ordered[rank]


def summarize(
    samples: Sequence[float],
    percentiles: Iterable[float] = DEFAULT_PERCENTILES,
) -> dict[str, float]:
    """``{"p50": ..., "p90": ..., "p99": ..., "count": n}`` over ``samples``.

    The shape matches what :class:`~repro.service.stats.LatencyRecorder`
    has always reported; ``count`` is a float for uniform rendering.
    """
    out = {f"p{g:g}": percentile(samples, g) for g in percentiles}
    out["count"] = float(len(samples))
    return out


class Window:
    """A bounded, thread-safe sample window (ring buffer semantics).

    Old samples are evicted once ``maxlen`` is reached, so summaries over a
    long-lived window describe *recent* behaviour, not the lifetime mix.
    """

    def __init__(self, maxlen: int) -> None:
        if maxlen < 1:
            raise ValueError(f"window length must be >= 1, got {maxlen}")
        self._samples: deque[float] = deque(maxlen=maxlen)
        self._lock = threading.Lock()

    def add(self, value: float) -> None:
        with self._lock:
            self._samples.append(value)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def maxlen(self) -> int:
        return self._samples.maxlen or 0

    def values(self) -> list[float]:
        """A point-in-time copy of the window's samples."""
        with self._lock:
            return list(self._samples)

    def summary(
        self, percentiles: Iterable[float] = DEFAULT_PERCENTILES
    ) -> dict[str, float]:
        return summarize(self.values(), percentiles)
