"""Golden frontier aggregates: the statistics may not drift with the kernels.

``batched`` and ``codegen`` share their candidate-generation helper, so
parity between them no longer proves the analytic statistics stayed put.
``tests/data/frontier_golden.json`` holds the report aggregates recorded
with the gather-then-filter kernels (commit 30c50d8, before rank-bounded
gathers and parent-set reuse); both engines must still reproduce them to
the digit, for every pattern, on whole graphs, on a strict sub-range of
roots and under a tiny root chunk.

Re-record (only when the *model* changes on purpose) with
``PYTHONPATH=src python tests/test_frontier_golden.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import xset_default
from repro.engine import get_engine
from repro.engine.codegen import CodegenEngine
from repro.graph import erdos_renyi, powerlaw_graph
from repro.patterns import PATTERNS, build_plan

GOLDEN = Path(__file__).parent / "data" / "frontier_golden.json"
FIELDS = ("embeddings", "cycles", "tasks", "set_ops", "comparisons",
          "words_in", "words_out", "dram_bytes")

#: label-constrained variants, run on every graph: on the labelled one they
#: exercise the label predicate, on the others (labels ignored) they are
#: clique plans whose bounds are not the full chain — 4CF/0011 reuses its
#: parent's set with no bound inherited, 4CF/0001 must not reuse at all
LABELLED = {
    "3CF/011": PATTERNS["3CF"].with_labels((0, 1, 1)),
    "4CF/0000": PATTERNS["4CF"].with_labels((0, 0, 0, 0)),
    "4CF/0011": PATTERNS["4CF"].with_labels((0, 0, 1, 1)),
    "4CF/0001": PATTERNS["4CF"].with_labels((0, 0, 0, 1)),
    "DIA/0011": PATTERNS["DIA"].with_labels((0, 0, 1, 1)),
    "TT/0120": PATTERNS["TT"].with_labels((0, 1, 2, 0)),
}


def _graphs():
    labelled = erdos_renyi(90, 26.0, seed=21, name="golden-labelled")
    labelled.labels = np.arange(labelled.num_vertices, dtype=np.int64) % 3
    return {
        "er": erdos_renyi(70, 18.0, seed=3, name="golden-er"),
        "skewed": powerlaw_graph(
            300, avg_degree=7.0, max_degree=90, seed=5,
            name="golden-skewed", triangle_boost=0.3,
        ),
        "labelled": labelled,
    }


def _sub_range(graph) -> np.ndarray:
    n = graph.num_vertices
    return np.arange(n // 4, (3 * n) // 4)


def _aggregates(engine, engine_name, graph, pattern, roots=None) -> list:
    report = engine.run(
        graph, build_plan(pattern), xset_default(engine=engine_name),
        roots=roots,
    )
    return [getattr(report, f) for f in FIELDS]


def _cases():
    for gname, graph in _graphs().items():
        for pname, pattern in {**PATTERNS, **LABELLED}.items():
            yield gname, graph, pname, pattern


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("engine_name", ["batched", "codegen"])
def test_aggregates_match_golden(golden, engine_name):
    engine = get_engine(engine_name)
    for gname, graph, pname, pattern in _cases():
        want = golden[f"{gname}/{pname}"]
        got = _aggregates(engine, engine_name, graph, pattern)
        assert got == want["all"], (engine_name, gname, pname)
        got = _aggregates(
            engine, engine_name, graph, pattern, roots=_sub_range(graph)
        )
        assert got == want["sub"], (engine_name, gname, pname, "sub-range")


def test_small_root_chunk_matches_golden(golden):
    engine = CodegenEngine(root_chunk=13)
    for gname, graph, pname, pattern in _cases():
        got = _aggregates(engine, "codegen", graph, pattern)
        assert got == golden[f"{gname}/{pname}"]["all"], (gname, pname)


def test_golden_covers_reuse_and_fallback_levels(golden):
    # the record is only a guard if it is non-trivial where it matters
    assert set(golden) == {f"{g}/{p}" for g, _, p, _ in _cases()}
    for key in ("er/4CF", "skewed/5CF", "er/4CF/0011", "labelled/4CF/0011"):
        assert golden[key]["all"][0] > 0, key
        assert golden[key]["sub"][0] < golden[key]["all"][0], key


if __name__ == "__main__":  # pragma: no cover - recorder
    eng = get_engine("batched")
    GOLDEN.parent.mkdir(exist_ok=True)
    rows = {
        f"{g}/{p}": {
            "all": _aggregates(eng, "batched", graph, pat),
            "sub": _aggregates(eng, "batched", graph, pat, _sub_range(graph)),
        }
        for g, graph, p, pat in _cases()
    }
    GOLDEN.write_text("{\n" + ",\n".join(  # one case per line
        f" {json.dumps(k)}: {json.dumps(v)}" for k, v in rows.items()
    ) + "\n}\n")
