"""Introspection surface: counters, latency percentiles, stats snapshot.

``QueryService.stats()`` returns one immutable :class:`ServiceStats`
snapshot.  Latencies are recorded per engine over a bounded window so a
long-lived service reports *recent* behaviour, not its lifetime average.

Since the observability layer landed, the recorder is built on the shared
:mod:`repro.obs` vocabulary instead of ad-hoc math: samples live in
:class:`repro.obs.summary.Window` rings, summaries use the one shared
nearest-rank :func:`repro.obs.summary.percentile`, and every recorded
sample also feeds a ``repro_job_latency_seconds`` histogram in the
service's :class:`~repro.obs.metrics.MetricsRegistry` so the same numbers
are scrapeable in Prometheus text form.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..obs.metrics import MetricsRegistry
from ..obs.summary import Window, percentile

__all__ = ["LatencyRecorder", "ServiceStats", "percentile"]

#: latency samples kept per engine (ring buffer)
LATENCY_WINDOW = 1024

#: percentiles reported by ``stats()``
PERCENTILES = (50, 90, 99)


class LatencyRecorder:
    """Windowed per-engine latency samples with percentile summaries.

    Thin façade over the shared observability primitives: one
    :class:`~repro.obs.summary.Window` per engine plus a labelled
    histogram in ``registry`` (a private registry is created when none is
    supplied, so standalone use keeps working).
    """

    def __init__(
        self,
        window: int = LATENCY_WINDOW,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._window = window
        # explicit None check: an *empty* registry is falsy (len() == 0)
        self._registry = (
            registry if registry is not None else MetricsRegistry()
        )
        self._windows: dict[str, Window] = {}
        self._queue_wait = Window(window)
        self._lock = threading.Lock()

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry

    def record(self, engine: str, seconds: float) -> None:
        with self._lock:
            ring = self._windows.get(engine)
            if ring is None:
                ring = self._windows[engine] = Window(self._window)
        ring.add(seconds)
        self._registry.histogram(
            "repro_job_latency_seconds",
            "per-engine job execution latency",
            engine=engine,
        ).observe(seconds)

    def record_queue_wait(self, seconds: float) -> None:
        """One job's queue-wait time (submit/requeue → dispatch)."""
        self._queue_wait.add(seconds)
        self._registry.histogram(
            "repro_job_queue_wait_seconds",
            "time jobs spent queued before dispatch",
        ).observe(seconds)

    def summary(self) -> dict[str, dict[str, float]]:
        """``{engine: {"p50": ..., "p90": ..., "p99": ..., "count": n}}``."""
        with self._lock:
            windows = dict(self._windows)
        return {
            engine: ring.summary(PERCENTILES)
            for engine, ring in windows.items()
        }

    def queue_wait_summary(self) -> dict[str, float]:
        """``{"p50": ..., "p90": ..., "p99": ..., "count": n}`` of waits."""
        return self._queue_wait.summary(PERCENTILES)


@dataclass(frozen=True)
class ServiceStats:
    """One point-in-time view of the service (all fields are snapshots)."""

    mode: str
    workers: int
    graphs: int
    queue_depth: int
    in_flight: int
    submitted: int
    completed: int
    failed: int
    cancelled: int
    retries: int
    cache_size: int
    cache_hits: int
    cache_misses: int
    cache_evictions: int
    cache_invalidations: int
    cache_hit_rate: float
    # -- resilience counters (zero on an undisturbed service) --------------
    #: never written: benchmarks/e2e/svc_base.py still reads these as 0
    timed_out: int = 0
    rerouted: int = 0
    #: sampled cross-engine checks that disagreed on the count
    crosscheck_mismatches: int = 0
    #: injected faults observed (chaos runs only)
    faults_injected: int = 0
    #: degradation state at snapshot time: healthy/degraded/overloaded
    health: str = "healthy"
    #: True when shutdown() could not join the dispatcher thread
    dispatcher_stuck: bool = False
    # -- adaptive scheduling (repro.sched.adaptive) ------------------------
    #: pool calls made, one per job the dispatcher did not run itself
    worker_calls: int = 0
    #: queue-wait percentiles (submit → dispatch) over the recent window
    queue_wait: dict[str, float] = field(default_factory=dict)
    #: cost-predictor self-assessment: accuracy window + model coverage
    predictor: dict = field(default_factory=dict)
    #: per-engine latency percentiles over the recent window
    latency: dict[str, dict[str, float]] = field(default_factory=dict)
    #: flattened metrics-registry snapshot (``{"name{label=...}": value}``)
    metrics: dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        """Human-readable multi-line rendering (used by the CLI)."""
        lines = [
            f"mode={self.mode} workers={self.workers} graphs={self.graphs}",
            f"queue depth {self.queue_depth}, in flight {self.in_flight}",
            (
                f"jobs: {self.submitted} submitted, {self.completed} done, "
                f"{self.failed} failed, {self.cancelled} cancelled, "
                f"{self.retries} retries"
            ),
            (
                f"cache: {self.cache_size} entries, {self.cache_hits} hits / "
                f"{self.cache_misses} misses "
                f"(hit rate {self.cache_hit_rate:.1%}), "
                f"{self.cache_evictions} evicted, "
                f"{self.cache_invalidations} invalidated"
            ),
        ]
        if (
            self.health != "healthy" or self.crosscheck_mismatches
            or self.faults_injected or self.dispatcher_stuck
        ):
            lines.append(
                f"resilience: health={self.health}, "
                f"{self.crosscheck_mismatches} cross-check mismatches, "
                f"{self.faults_injected} faults injected"
                + (", DISPATCHER STUCK" if self.dispatcher_stuck else "")
            )
        for engine, pcts in sorted(self.latency.items()):
            lines.append(
                f"latency[{engine}]: "
                f"p50 {pcts['p50'] * 1e3:.2f}ms  "
                f"p90 {pcts['p90'] * 1e3:.2f}ms  "
                f"p99 {pcts['p99'] * 1e3:.2f}ms  "
                f"(n={pcts['count']:.0f})"
            )
        if self.queue_wait.get("count"):
            qw = self.queue_wait
            lines.append(
                f"queue wait: p50 {qw['p50'] * 1e3:.2f}ms  "
                f"p99 {qw['p99'] * 1e3:.2f}ms  (n={qw['count']:.0f})"
            )
        if self.predictor.get("count"):
            pred = self.predictor
            lines.append(
                f"predictor: {pred.get('observations', 0):.0f} observed, "
                f"ratio p50 {pred['p50']:.2f} p99 {pred['p99']:.2f}, "
                f"{pred.get('within_2x', 0.0):.0%} within 2x"
            )
        return "\n".join(lines)
