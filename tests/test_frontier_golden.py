"""Golden frontier aggregates: the statistics may not drift with the kernels.

``batched`` and ``codegen`` share their candidate-generation helper, so
parity between them no longer proves the analytic statistics stayed put.
``tests/data/frontier_golden.json`` holds the report aggregates recorded
with the gather-then-filter kernels (commit 30c50d8, before rank-bounded
gathers and parent-set reuse); both engines must still reproduce them to
the digit, for every pattern, on whole graphs, on a strict sub-range of
roots and under a tiny root chunk.  The ``sparse`` rows were added (same
recorder, commit 4e92897) when terminal levels became word-parallel on
dense graphs: they are the leaves that stay element-wise.

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
from repro.obs.context import observe
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
    # 0.2 % dense, 24 words per bit row: most of its terminal levels stay
    # on arrays, label predicates included; every one above goes bitwise
    sparse = erdos_renyi(1500, 3.0, seed=9, name="golden-sparse")
    sparse.labels = np.arange(sparse.num_vertices, dtype=np.int64) % 3
    return {
        "er": erdos_renyi(70, 18.0, seed=3, name="golden-er"),
        "skewed": powerlaw_graph(
            300, avg_degree=7.0, max_degree=90, seed=5,
            name="golden-skewed", triangle_boost=0.3,
        ),
        "labelled": labelled,
        "sparse": sparse,
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


def _leaf_rows(engine, engine_name, graph, pattern, roots=None):
    """(rows answered word-parallel, rows in all) at the terminal level."""
    plan = build_plan(pattern)
    with observe() as ob:
        engine.run(graph, plan, xset_default(engine=engine_name), roots=roots)
    leaf = ob.levels.get(plan.stop_level, {})
    return int(leaf.get("bit_rows", 0)), int(leaf.get("tasks", 0))


def test_golden_runs_both_leaf_representations():
    # the density rule picks per level call; the golden set only pins the
    # statistics of a representation it actually makes run.  Per engine
    # and per kind of terminal level, some case must have gone word-
    # parallel ("bits") and some must have stayed element-wise ("arrays").
    graphs = _graphs()
    kinds = {
        "unlabelled": [(g, "3CF") for g in graphs],
        "labelled": [(g, "3CF/011") for g in ("labelled", "sparse")],
        "choose2": [(g, "DIA") for g in graphs],
        "anti-probe": [(g, p) for g in graphs for p in ("TT", "WEDGE")],
    }
    engines = {
        "batched": get_engine("batched"),
        "codegen": get_engine("codegen"),
        "codegen/chunk13": CodegenEngine(root_chunk=13),
    }
    for label, engine in engines.items():
        name = label.split("/")[0]
        for kind, cases in kinds.items():
            for sub in (False, True):
                ran = set()
                for gname, pname in cases:
                    graph = graphs[gname]
                    bits, rows = _leaf_rows(
                        engine, name, graph, {**PATTERNS, **LABELLED}[pname],
                        _sub_range(graph) if sub else None,
                    )
                    ran |= {"bits"} if bits else set()
                    ran |= {"arrays"} if bits < rows else set()
                want = {"bits"} if "chunk" in label else {"bits", "arrays"}
                assert ran >= want, (label, kind, "sub" if sub else "all")


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
