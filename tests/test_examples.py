"""Smoke tests for the example applications.

Examples are user-facing entry points; each is executed in-process with its
workload shrunk (via CLI args where supported) and checked for successful
completion and the expected headline output.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"

#: ``load_dataset`` floors at 64 vertices (WV: 0.009) — smaller scales run
#: the same graph, larger ones only longer; every section still prints
SMALLEST_SCALE = "0.01"


def run_example(name: str, argv: list[str], capsys) -> str:
    old_argv = sys.argv
    sys.argv = [name] + argv
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


@pytest.mark.slow
class TestExamples:
    def test_social_network_motifs(self, capsys):
        out = run_example(
            "social_network_motifs.py", ["--scale", SMALLEST_SCALE], capsys
        )
        assert "3-motif census" in out
        assert "barrier-free" in out

    def test_design_space_exploration(self, capsys):
        out = run_example(
            "design_space_exploration.py", ["--scale", SMALLEST_SCALE],
            capsys,
        )
        assert "SIU design space" in out
        assert "PE scaling" in out

    def test_dynamic_graph_monitoring(self, capsys):
        out = run_example(
            "dynamic_graph_monitoring.py", ["--updates", "6"], capsys
        )
        assert "full recount agrees" in out

    def test_traced_query(self, capsys, tmp_path):
        out_file = tmp_path / "trace.json"
        out = run_example(
            "traced_query.py",
            ["--scale", "0.05", "--out", str(out_file)],
            capsys,
        )
        assert "per-level work" in out
        assert "ui.perfetto.dev" in out
        assert out_file.exists()

    def test_examples_importable(self):
        """Every example compiles (no syntax errors, imports resolve)."""
        import py_compile

        for path in sorted(EXAMPLES.glob("*.py")):
            py_compile.compile(str(path), doraise=True)
