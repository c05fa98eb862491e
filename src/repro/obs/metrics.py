"""Metrics: counters, gauges and fixed-bucket histograms in one registry.

A :class:`MetricsRegistry` is the process-local analogue of a Prometheus
client: metrics are created on first use, keyed by ``(name, labels)``,
thread-safe to update, and exposable either as a flat ``snapshot()`` dict
(for tests and ``ServiceStats``) or as Prometheus text exposition
(``render_prometheus()``) ready to be scraped or dumped by the CLI.

The registry is deliberately dependency-free — no client library to
install, nothing to configure — and cheap enough that the query service
always carries one.  Hot paths (per-task simulator loops) never touch it;
they are guarded by the tracing context in :mod:`repro.obs.context`.
"""

from __future__ import annotations

import threading
from typing import Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]

#: default histogram buckets (seconds) — tuned for query latencies that
#: range from sub-millisecond cache hits to multi-second event-driven runs
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

LabelItems = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelItems:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text format.

    Backslash, double-quote and newline are the three characters the
    exposition format requires escaping inside quoted label values.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    """HELP lines escape backslash and newline (but not quotes)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _label_suffix(labels: LabelItems) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in labels)
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing value."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def samples(self) -> list[tuple[str, float]]:
        return [(self.name + _label_suffix(self.labels), self._value)]


class Gauge:
    """A value that can go up and down (queue depth, in-flight jobs)."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def samples(self) -> list[tuple[str, float]]:
        return [(self.name + _label_suffix(self.labels), self._value)]


class Histogram:
    """Fixed-bucket cumulative histogram (Prometheus semantics).

    ``observe(v)`` increments every bucket whose upper bound is >= ``v``
    plus the implicit ``+Inf`` bucket.  Percentiles live in
    :mod:`repro.obs.summary`.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        self.name = name
        self.labels = labels
        self.bounds = tuple(sorted(float(b) for b in buckets))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._counts = [0] * (len(self.bounds) + 1)  # +Inf last
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    self._counts[i] += 1
                    break
            else:
                self._counts[-1] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> dict[float, int]:
        """Cumulative count per upper bound (``inf`` for the last)."""
        with self._lock:
            counts = list(self._counts)
        cumulative: dict[float, int] = {}
        running = 0
        for bound, n in zip(self.bounds, counts):
            running += n
            cumulative[bound] = running
        cumulative[float("inf")] = running + counts[-1]
        return cumulative

    def samples(self) -> list[tuple[str, float]]:
        suffix = _label_suffix(self.labels)
        out: list[tuple[str, float]] = []
        for bound, cum in self.bucket_counts().items():
            le = "+Inf" if bound == float("inf") else f"{bound:g}"
            extra = (
                self.labels + (("le", le),)
                if suffix
                else (("le", le),)
            )
            out.append(
                (f"{self.name}_bucket" + _label_suffix(extra), float(cum))
            )
        out.append((f"{self.name}_sum" + suffix, self._sum))
        out.append((f"{self.name}_count" + suffix, float(self._count)))
        return out


class MetricsRegistry:
    """Thread-safe get-or-create home for every metric in one process."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelItems], object] = {}
        self._help: dict[str, str] = {}
        self._kinds: dict[str, str] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help_: str, labels: dict,
                       **kwargs):
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                kind = self._kinds.get(name)
                if kind is not None and kind != cls.kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {kind}, "
                        f"cannot re-register as {cls.kind}"
                    )
                metric = cls(name, key[1], **kwargs)
                self._metrics[key] = metric
                self._kinds[name] = cls.kind
                if help_:
                    self._help.setdefault(name, help_)
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(metric).__name__}"
                )
            return metric

    def counter(self, name: str, help_: str = "", **labels: str) -> Counter:
        return self._get_or_create(Counter, name, help_, labels)

    def gauge(self, name: str, help_: str = "", **labels: str) -> Gauge:
        return self._get_or_create(Gauge, name, help_, labels)

    def histogram(
        self,
        name: str,
        help_: str = "",
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help_, labels, buckets=buckets
        )

    def set_state_gauge(
        self,
        name: str,
        help_: str,
        current: str,
        states: Iterable[str],
    ) -> None:
        """Export an enum as a Prometheus StateSet-style gauge family.

        One gauge per state (label ``state=<s>``) holding 1 for the
        current state and 0 for every other — the convention dashboards
        use to render a state machine without magic numbers.  Used for
        the service's health state.
        """
        for state in states:
            self.gauge(name, help_, state=state).set(
                1.0 if state == current else 0.0
            )

    def __len__(self) -> int:
        return len(self._metrics)

    def _sorted_metrics(self) -> list[object]:
        with self._lock:
            return [
                m for _, m in sorted(self._metrics.items(),
                                     key=lambda kv: kv[0])
            ]

    def snapshot(self) -> dict[str, float]:
        """Flat ``{"name{label=...}": value}`` view of every metric."""
        out: dict[str, float] = {}
        for metric in self._sorted_metrics():
            for sample_name, value in metric.samples():
                out[sample_name] = value
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        seen_header: set[str] = set()
        for metric in self._sorted_metrics():
            name = metric.name
            if name not in seen_header:
                seen_header.add(name)
                help_ = self._help.get(name, "")
                if help_:
                    lines.append(f"# HELP {name} {_escape_help(help_)}")
                lines.append(f"# TYPE {name} {metric.kind}")
            for sample_name, value in metric.samples():
                lines.append(f"{sample_name} {value:g}")
        return "\n".join(lines) + ("\n" if lines else "")
