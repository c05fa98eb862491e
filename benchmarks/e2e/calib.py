"""The benchmark's time unit: one *calibration unit* (cu).

A shared 2-core host drifts: the same closed loop of light queries read
p50 1.72 / 2.12 / 2.48 ms in three back-to-back runs of identical code,
while the same latencies divided by an interleaved fixed reference loop
read 0.568 / 0.551 / 0.552.  Every host-time metric of this benchmark is
therefore ``wall / cu`` where ``cu`` is the median wall time of
:func:`calib` calls interleaved with the very operations being timed.

The loop is fixed and seed-independent, and imports nothing from
``repro``: it mixes interpreter work (a dict fill) with small NumPy calls
(sorted-array intersections), which is what a query crossing the service
and a compiled kernel spends its time on.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

__all__ = ["calib", "median_iqr", "CalibClock"]

_A = np.arange(0, 6000, 3, dtype=np.int64)  # 2000 sorted values
_B = np.arange(0, 4000, 2, dtype=np.int64)  # 2000 sorted values


def calib() -> float:
    """Run the reference loop once; returns its wall time in seconds."""
    t0 = perf_counter()
    table = {}
    for i in range(300):
        table[i] = i * i
    for _ in range(6):
        np.intersect1d(_A, _B)
    return perf_counter() - t0


def median_iqr(values) -> tuple[float, float]:
    """Median and inter-quartile distance (0.0 below two samples)."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("median_iqr needs at least one value")
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


class CalibClock:
    """The calibration samples of one block; ``cu`` is their median."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def tick(self) -> None:
        self.samples.append(calib())

    @property
    def cu(self) -> float:
        return statistics.median(self.samples)
