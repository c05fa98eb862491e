"""Span tracing, observation context, chrome export and log setup."""

import json
import logging
import threading

from repro.obs import (
    Observation,
    Span,
    Tracer,
    chrome_trace_events,
    configure_logging,
    current,
    current_span,
    enabled,
    observe,
    span,
    write_chrome_trace,
)
from repro.obs.export import PE_PID, SPAN_PID


class TestTracer:
    def test_nesting_follows_call_stack(self):
        tr = Tracer()
        with tr.span("outer") as outer:
            assert current_span() is outer
            with tr.span("inner") as inner:
                assert current_span() is inner
                assert inner.parent_id == outer.span_id
            assert current_span() is outer
        assert current_span() is None
        names = [sp.name for sp in tr.finished()]
        assert names == ["inner", "outer"]  # inner closes first

    def test_attrs_and_duration(self):
        ticks = iter([1.0, 3.5])
        tr = Tracer(clock=lambda: next(ticks))
        with tr.span("work", engine="event") as sp:
            sp.set_attr("extra", 7)
        assert sp.duration == 2.5
        assert sp.attrs == {"engine": "event", "extra": 7}

    def test_threads_get_independent_stacks(self):
        tr = Tracer()
        seen = {}

        def worker(name):
            with tr.span(name) as sp:
                seen[name] = sp.parent_id

        with tr.span("main"):
            threads = [
                threading.Thread(target=worker, args=(f"t{i}",))
                for i in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        # worker threads start with a fresh context: no parent
        assert all(pid is None for pid in seen.values())

    def test_manual_spans_do_not_touch_context(self):
        tr = Tracer()
        sp = tr.start_span("job", graph_id="g0")
        assert current_span() is None
        assert len(tr) == 0  # not finished yet
        tr.end_span(sp)
        assert tr.finished() == [sp]

    def test_max_spans_bounds_history(self):
        tr = Tracer(max_spans=2)
        for i in range(5):
            with tr.span(f"s{i}"):
                pass
        assert [sp.name for sp in tr.finished()] == ["s3", "s4"]

    def test_ingest_remaps_ids_and_preserves_structure(self):
        worker = Tracer()
        with worker.span("outer"):
            with worker.span("inner"):
                pass
        service = Tracer()
        root = service.start_span("job")
        adopted = service.ingest(worker.finished(), parent=root)
        by_name = {sp.name: sp for sp in adopted}
        assert by_name["outer"].parent_id == root.span_id
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        # ids were remapped into the service tracer's space: unique, and
        # never colliding with ids the service tracer already handed out
        adopted_ids = {sp.span_id for sp in adopted}
        assert len(adopted_ids) == len(adopted)
        assert root.span_id not in adopted_ids

    def test_ingest_align_shifts_times(self):
        spans = [
            Span("a", span_id=1, start=100.0, end=101.0),
            Span("b", span_id=2, parent_id=1, start=100.25, end=100.75),
        ]
        tr = Tracer()
        adopted = tr.ingest(spans, align_to=5.0)
        assert adopted[0].start == 5.0
        assert adopted[0].end == 6.0
        assert adopted[1].start == 5.25
        assert adopted[1].duration == 0.5

    def test_ingest_empty_is_noop(self):
        tr = Tracer()
        assert tr.ingest([]) == []


class TestObservationContext:
    def test_disabled_by_default(self):
        assert current() is None
        assert not enabled()

    def test_observe_scopes_the_context(self):
        with observe() as ob:
            assert current() is ob
            assert enabled()
        assert current() is None

    def test_module_span_is_noop_when_disabled(self):
        with span("anything") as sp:
            assert sp is None

    def test_module_span_records_when_enabled(self):
        with observe() as ob:
            with span("work", level=2) as sp:
                assert sp is not None
        assert [s.name for s in ob.tracer.finished()] == ["work"]

    def test_level_accumulators(self):
        ob = Observation()
        ob.level_add(1, tasks=2, elements=10)
        ob.level_add(1, tasks=1, comparisons=5)
        ob.level_add(2, tasks=4)
        assert ob.levels[1] == {
            "tasks": 3.0, "elements": 10.0, "comparisons": 5.0,
        }
        assert ob.levels[2]["tasks"] == 4.0

    def test_stage_accumulation(self):
        ob = Observation()
        ob.add_stage("prefix", 0.25)
        ob.add_stage("prefix", 0.25)
        assert ob.stages == {"prefix": 0.5}

    def test_empty_tracer_and_registry_are_kept(self):
        # regression: an empty Tracer is falsy (len() == 0), so
        # `tracer or Tracer()` silently replaced the caller's instance
        tr = Tracer(max_spans=5)
        ob = Observation(tracer=tr)
        assert ob.tracer is tr


class TestChromeExport:
    def _spans(self):
        return [
            Span("job", span_id=1, start=10.0, end=10.5),
            Span("engine", span_id=2, parent_id=1, start=10.1, end=10.4),
        ]

    def test_span_events(self):
        events = chrome_trace_events(self._spans())
        meta = [e for e in events if e["ph"] == "M"]
        assert meta[0]["args"]["name"] == "repro spans"
        xs = [e for e in events if e["ph"] == "X"]
        assert [e["name"] for e in xs] == ["job", "engine"]
        job = xs[0]
        assert job["pid"] == SPAN_PID
        assert job["ts"] == 0.0  # origin-relative
        assert job["dur"] == 500_000.0  # 0.5s in microseconds
        # same tree -> same lane
        assert xs[0]["tid"] == xs[1]["tid"]

    def test_pe_events_go_to_second_pid(self):
        events = chrome_trace_events(
            self._spans(), pe_events=[(0, 1, 100.0, 140.0)]
        )
        pe = [e for e in events if e.get("cat") == "pe"]
        assert len(pe) == 1
        assert pe[0]["pid"] == PE_PID
        assert pe[0]["tid"] == 0
        assert pe[0]["name"] == "L1"
        assert pe[0]["ts"] == 100.0  # cycles pass through verbatim
        assert pe[0]["dur"] == 40.0

    def test_concurrent_roots_get_separate_lanes(self):
        spans = [
            Span("a", span_id=1, start=0.0, end=1.0),
            Span("b", span_id=2, start=0.5, end=1.5),
        ]
        events = [e for e in chrome_trace_events(spans) if e["ph"] == "X"]
        assert events[0]["tid"] != events[1]["tid"]

    def test_non_json_attrs_are_stringified(self):
        sp = Span("s", span_id=1, attrs={"obj": object(), "n": 3})
        (ev,) = [
            e for e in chrome_trace_events([sp]) if e["ph"] == "X"
        ]
        assert isinstance(ev["args"]["obj"], str)
        assert ev["args"]["n"] == 3
        json.dumps(ev)  # must serialise

    def test_write_chrome_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(path, self._spans(), [(1, 2, 0.0, 8.0)])
        data = json.loads(path.read_text())
        assert data["displayTimeUnit"] == "ms"
        cats = {e.get("cat") for e in data["traceEvents"]}
        assert "span" in cats and "pe" in cats


class TestLogSetup:
    def test_default_level_is_warning(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOG", raising=False)
        assert configure_logging() == logging.WARNING

    def test_verbose_flags(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOG", raising=False)
        assert configure_logging(verbose=1) == logging.INFO
        assert configure_logging(verbose=2) == logging.DEBUG

    def test_env_var_by_name_and_number(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG", "debug")
        assert configure_logging() == logging.DEBUG
        monkeypatch.setenv("REPRO_LOG", "15")
        assert configure_logging() == 15
        monkeypatch.setenv("REPRO_LOG", "not-a-level")
        assert configure_logging() == logging.WARNING

    def test_repeated_calls_do_not_stack_handlers(self):
        configure_logging()
        configure_logging()
        logger = logging.getLogger("repro")
        flagged = [
            h for h in logger.handlers
            if getattr(h, "_repro_obs_handler", False)
        ]
        assert len(flagged) == 1

    def test_messages_reach_the_stream(self, monkeypatch):
        import io

        monkeypatch.delenv("REPRO_LOG", raising=False)
        buf = io.StringIO()
        configure_logging(verbose=1, stream=buf)
        logging.getLogger("repro.service.service").info("hello worker")
        assert "hello worker" in buf.getvalue()
