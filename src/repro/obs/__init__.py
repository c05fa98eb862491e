"""`repro.obs`: unified tracing, metrics and profiling.

One vocabulary for every layer's instrumentation:

* :class:`MetricsRegistry` — counters, gauges, fixed-bucket histograms;
  thread-safe, snapshot-able, Prometheus text exposition.  Every service
  and every cluster coordinator keeps its own; nothing merges them.
* :class:`Tracer` / :class:`Span` — structured spans with contextvars
  propagation, so one query's spans nest service → worker → engine →
  simulator across layers (and, via :meth:`Tracer.ingest`, across
  processes and cluster shards).
* :func:`observe` / :func:`current` — the observation context.  All hot
  paths are guarded by ``current() is None``; with no active observation
  the instrumentation costs one attribute load.
* :class:`ExecutionProfile` — per-query "where did the time go": level
  task/element totals, cache stats, stage wall times, spans, PE events.
* :func:`write_chrome_trace` — one Perfetto-loadable JSON file unifying
  span and PE-activity timelines.
* :func:`percentile` — the shared nearest-rank percentile used by every
  summary surface in the repo.

Quickstart::

    from repro import XSetAccelerator, load_dataset, PATTERNS
    from repro.obs import observe, build_profile, write_chrome_trace

    with observe() as ob:
        report = XSetAccelerator().count(load_dataset("WV", scale=0.1),
                                         PATTERNS["3CF"])
    profile = build_profile(report, ob, engine="event")
    write_chrome_trace("trace.json", profile.spans, profile.pe_events)
"""

from .context import Observation, current, enabled, observe, span
from .export import chrome_trace_events, write_chrome_trace
from .logsetup import configure_logging
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .profile import ExecutionProfile, build_profile
from .summary import DEFAULT_PERCENTILES, Window, percentile, summarize
from .tracing import Span, Tracer, current_span

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_PERCENTILES",
    "ExecutionProfile",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observation",
    "Span",
    "Tracer",
    "Window",
    "build_profile",
    "chrome_trace_events",
    "configure_logging",
    "current",
    "current_span",
    "enabled",
    "observe",
    "percentile",
    "span",
    "summarize",
    "write_chrome_trace",
]
