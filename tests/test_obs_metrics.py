"""Metrics registry + shared summary math: counters, histograms, windows.

The percentile edge cases here are the repo-wide contract — service
latency summaries, histogram quantiles and profile span tables all route
through :func:`repro.obs.summary.percentile`.
"""

import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.summary import (
    DEFAULT_PERCENTILES,
    Window,
    percentile,
    summarize,
)


class TestPercentile:
    def test_empty_window_is_zero(self):
        assert percentile([], 50) == 0.0
        assert percentile([], 99) == 0.0

    def test_single_sample_is_every_percentile(self):
        for pct in (0, 1, 50, 90, 99, 100):
            assert percentile([7.5], pct) == 7.5

    def test_nearest_rank_semantics(self):
        samples = list(range(1, 101))  # 1..100
        assert percentile(samples, 50) == 50
        assert percentile(samples, 90) == 90
        assert percentile(samples, 99) == 99
        assert percentile(samples, 100) == 100
        assert percentile(samples, 0) == 1

    def test_unsorted_input(self):
        assert percentile([9.0, 1.0, 5.0], 100) == 9.0
        assert percentile([9.0, 1.0, 5.0], 0) == 1.0

    def test_summarize_shape(self):
        out = summarize([1.0, 2.0, 3.0])
        assert set(out) == {"p50", "p90", "p99", "count"}
        assert out["count"] == 3.0
        assert out["p99"] == 3.0
        assert summarize([])["count"] == 0.0


class TestWindow:
    def test_rejects_non_positive_length(self):
        with pytest.raises(ValueError):
            Window(0)

    def test_eviction_keeps_most_recent(self):
        win = Window(3)
        for v in (1.0, 2.0, 3.0, 4.0, 5.0):
            win.add(v)
        assert win.values() == [3.0, 4.0, 5.0]
        assert len(win) == 3
        assert win.maxlen == 3

    def test_summary_over_evicted_window(self):
        win = Window(2)
        win.add(100.0)  # evicted
        win.add(1.0)
        win.add(2.0)
        assert win.summary()["p99"] == 2.0
        assert win.summary()["count"] == 2.0

    def test_concurrent_adds(self):
        win = Window(10_000)

        def pump():
            for _ in range(1_000):
                win.add(1.0)

        threads = [threading.Thread(target=pump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(win) == 8_000


class TestCounterGauge:
    def test_counter_increments(self):
        c = Counter("jobs_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("jobs_total").inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Gauge("depth")
        g.set(5)
        g.inc()
        g.inc(-2)
        assert g.value == 4.0

    def test_concurrent_counter(self):
        c = Counter("n")

        def pump():
            for _ in range(10_000):
                c.inc()

        threads = [threading.Thread(target=pump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 40_000.0


class TestHistogram:
    def test_cumulative_buckets(self):
        h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        counts = h.bucket_counts()
        assert counts[1.0] == 1
        assert counts[2.0] == 2
        assert counts[4.0] == 3
        assert counts[float("inf")] == 4
        assert h.count == 4
        assert h.sum == pytest.approx(105.0)

    def test_needs_buckets(self):
        with pytest.raises(ValueError):
            Histogram("lat", buckets=())

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(
            DEFAULT_LATENCY_BUCKETS
        )


class TestMetricsRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("jobs_total", "help text")
        b = reg.counter("jobs_total")
        assert a is b
        assert len(reg) == 1

    def test_labels_separate_series(self):
        reg = MetricsRegistry()
        a = reg.counter("jobs", engine="event")
        b = reg.counter("jobs", engine="batched")
        assert a is not b
        a.inc(3)
        snap = reg.snapshot()
        assert snap['jobs{engine="event"}'] == 3.0
        assert snap['jobs{engine="batched"}'] == 0.0

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.counter("jobs", a="1", b="2")
        b = reg.counter("jobs", b="2", a="1")
        assert a is b

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("thing")
        with pytest.raises(ValueError):
            reg.gauge("thing")
        with pytest.raises(ValueError):
            reg.histogram("thing")

    def test_snapshot_includes_histogram_samples(self):
        reg = MetricsRegistry()
        reg.histogram("lat", buckets=(1.0, 2.0)).observe(1.5)
        snap = reg.snapshot()
        assert snap['lat_bucket{le="1"}'] == 0.0
        assert snap['lat_bucket{le="2"}'] == 1.0
        assert snap['lat_bucket{le="+Inf"}'] == 1.0
        assert snap["lat_count"] == 1.0
        assert snap["lat_sum"] == 1.5

    def test_prometheus_rendering(self):
        reg = MetricsRegistry()
        reg.counter("repro_jobs_total", "jobs seen", engine="event").inc(2)
        reg.gauge("repro_depth", "queue depth").set(3)
        text = reg.render_prometheus()
        assert "# HELP repro_jobs_total jobs seen" in text
        assert "# TYPE repro_jobs_total counter" in text
        assert 'repro_jobs_total{engine="event"} 2' in text
        assert "# TYPE repro_depth gauge" in text
        assert "repro_depth 3" in text
        assert text.endswith("\n")

    def test_prometheus_histogram_le_labels(self):
        reg = MetricsRegistry()
        reg.histogram(
            "lat", "latency", buckets=(0.5,), engine="event"
        ).observe(0.1)
        text = reg.render_prometheus()
        assert 'lat_bucket{engine="event",le="0.5"} 1' in text
        assert 'lat_bucket{engine="event",le="+Inf"} 1' in text
        assert 'lat_count{engine="event"} 1' in text

    def test_default_percentiles_constant(self):
        assert DEFAULT_PERCENTILES == (50, 90, 99)


class TestPrometheusExposition:
    """Text-format edge cases: escaping, empty registries, monotone merges."""

    def test_label_values_escape_specials(self):
        reg = MetricsRegistry()
        reg.counter(
            "c", "help", path='a"b', note="line1\nline2", win="a\\b"
        ).inc()
        text = reg.render_prometheus()
        assert 'path="a\\"b"' in text
        assert 'note="line1\\nline2"' in text
        assert 'win="a\\\\b"' in text
        # the raw specials never appear unescaped inside a label value
        assert 'path="a"b"' not in text

    def test_help_text_escapes_newlines_and_backslashes(self):
        reg = MetricsRegistry()
        reg.counter("c", "first\nsecond \\ third").inc()
        help_lines = [
            line for line in reg.render_prometheus().splitlines()
            if line.startswith("# HELP")
        ]
        assert help_lines == ["# HELP c first\\nsecond \\\\ third"]

    def test_empty_registry_renders_valid_text(self):
        # an exposition with no series is just an empty body
        assert MetricsRegistry().render_prometheus() == ""
