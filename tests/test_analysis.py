"""Tests for the analysis/experiment helpers."""

import math

import pytest

from repro.analysis import (
    format_table,
    geomean,
    run_workload,
)
from repro.patterns import PATTERNS, build_plan


class TestGeomean:
    def test_basic(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)

    def test_single(self):
        assert geomean([7.0]) == pytest.approx(7.0)

    def test_empty(self):
        assert geomean([]) == 0.0

    def test_ignores_nonpositive(self):
        assert geomean([4.0, 0.0, -1.0]) == pytest.approx(4.0)

    def test_log_identity(self):
        vals = [1.5, 2.5, 9.0, 0.3]
        assert math.log(geomean(vals)) == pytest.approx(
            sum(math.log(v) for v in vals) / len(vals)
        )


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "bb"], [(1, 22), (333, 4)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a  ")

    def test_title(self):
        text = format_table(["x"], [(1,)], title="T")
        assert text.splitlines()[0] == "T"

    def test_empty_rows(self):
        text = format_table(["col"], [])
        assert "col" in text


class TestRunners:
    def test_run_workload_small(self):
        report = run_workload("PP", "3CF", scale=0.05)
        assert report.embeddings >= 0
        assert report.cycles > 0

    def test_build_plan_memoises(self):
        a = build_plan(PATTERNS["3CF"])
        b = build_plan(PATTERNS["3CF"])
        assert a is b


class TestReporting:
    def test_collect_from_explicit_dir(self, tmp_path):
        from repro.analysis import collect_results, experiment_summary

        (tmp_path / "fig12_software.txt").write_text("speedups here")
        blocks = collect_results(tmp_path)
        assert blocks == {"fig12_software": "speedups here"}
        report = experiment_summary(tmp_path)
        assert "fig12_software" in report
        assert "not yet regenerated" in report

    def test_empty_dir_message(self, tmp_path):
        from repro.analysis import experiment_summary

        empty = tmp_path / "none"
        empty.mkdir()
        assert "no results" in experiment_summary(empty) or (
            "not yet regenerated" in experiment_summary(empty)
        )
