"""Golden event-simulator statistics: the simulator's numbers may not drift
with the way it computes them.

``tests/data/event_golden.json`` holds, per case, the fifteen statistics the
``sim-event`` benchmark digests plus ``per_pe_busy``, recorded with the
per-task event engine (commit 686b2b8: every task expanded with
``expand_task`` and costed op by op, before the simulator traced chunks and
replayed them).  The matrix crosses every pattern of ``PATTERNS`` and the
label-split variants with an Erdős–Rényi graph, a skewed graph with a hub and
a labelled graph, on all roots and on a strict sub-range of roots; each case
takes the next design point of a fixed cycle over {order-aware b8,
order-aware b0, sma b8, merge b0} × {barrier-free, pseudo-dfs, dfs, shogun} ×
``max_hw_levels`` {8, 2, 1} (2 and 1 hand host-prefix tasks to the PEs),
with degree-balanced roots and ``task_overhead_cycles=4`` mixed in.  Two
observed runs pin the per-level totals of their ``ExecutionProfile``.

The per-task form stays the reference in a second way: a hypothesis test
checks every operation's trace facts against ``merge_boundaries`` /
``consumed_extents`` over ``walk_tasks``' op records.

Re-record (only when the *model* changes on purpose) with
``PYTHONPATH=src python tests/test_event_golden.py``.
"""

from __future__ import annotations

import json
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import xset_default
from repro.engine import functional
from repro.engine.functional import (
    plan_roots,
    root_tasks,
    trace_chunk,
    walk_tasks,
)
from repro.graph import erdos_renyi, powerlaw_graph
from repro.obs.context import observe
from repro.obs.profile import build_profile
from repro.patterns import PATTERNS, build_plan
from repro.sim import hwexec, run_on_soc
from repro.siu.base import (
    block_keys,
    consumed_extents,
    merge_boundaries,
)

GOLDEN = Path(__file__).parent / "data" / "event_golden.json"
#: what ``benchmarks/e2e/wl_sim_event.py`` digests, in its order
STAT_FIELDS = (
    "embeddings", "cycles", "host_cycles", "tasks", "set_ops", "comparisons",
    "words_in", "words_out", "siu_busy_cycles", "private_hits",
    "private_misses", "shared_hits", "shared_misses", "dram_bytes",
    "peak_active_task_sets",
)
#: as in ``test_frontier_golden.py``: on the labelled graph they exercise
#: the label predicate, elsewhere they are clique plans with partial bounds
LABELLED = {
    "3CF/011": PATTERNS["3CF"].with_labels((0, 1, 1)),
    "4CF/0000": PATTERNS["4CF"].with_labels((0, 0, 0, 0)),
    "4CF/0011": PATTERNS["4CF"].with_labels((0, 0, 1, 1)),
    "4CF/0001": PATTERNS["4CF"].with_labels((0, 0, 0, 1)),
    "DIA/0011": PATTERNS["DIA"].with_labels((0, 0, 1, 1)),
    "TT/0120": PATTERNS["TT"].with_labels((0, 1, 2, 0)),
}
SIUS = {
    "oa8": {"siu_kind": "order-aware", "bitmap_width": 8},
    "oa0": {"siu_kind": "order-aware", "bitmap_width": 0},
    "sma8": {"siu_kind": "sma", "bitmap_width": 8},
    "merge0": {"siu_kind": "merge", "segment_width": 1, "bitmap_width": 0},
}
SCHEDULERS = ("barrier-free", "pseudo-dfs", "dfs", "shogun")
HW_LEVELS = (8, 2, 1)
#: the design points the cases cycle through
DESIGNS = list(product(SIUS, SCHEDULERS, HW_LEVELS))
#: observed runs whose per-level profile totals are pinned
OBSERVED = ("skewed/TT/all", "labelled/4CF/0011/sub")


def _graphs():
    labelled = erdos_renyi(56, 11.0, seed=21, name="event-labelled")
    labelled.labels = np.arange(labelled.num_vertices, dtype=np.int64) % 3
    return {
        "er": erdos_renyi(48, 9.0, seed=3, name="event-er"),
        "skewed": powerlaw_graph(
            150, avg_degree=5.0, max_degree=60, seed=5,
            name="event-skewed", triangle_boost=0.3,
        ),
        "labelled": labelled,
    }


def _cases():
    """``(key, graph, pattern, roots, design, config)`` for every case."""
    patterns = {**PATTERNS, **LABELLED}
    i = 0
    for gname, graph in _graphs().items():
        for pname, pattern in patterns.items():
            for sub in (False, True):
                siu, sched, hw = DESIGNS[i % len(DESIGNS)]
                balanced, overhead = i % 3 == 1, 4 if i % 5 == 2 else 0
                config = xset_default(
                    **SIUS[siu], scheduler=sched, max_hw_levels=hw,
                    root_partition=(
                        "degree-balanced" if balanced else "round-robin"
                    ),
                    task_overhead_cycles=overhead,
                )
                n = graph.num_vertices
                roots = np.arange(n // 4, (3 * n) // 4) if sub else None
                design = (
                    f"{siu}/{sched}/hw{hw}/{'db' if balanced else 'rr'}"
                    f"/o{overhead}"
                )
                key = f"{gname}/{pname}/{'sub' if sub else 'all'}"
                yield key, graph, pattern, roots, design, config
                i += 1


def _record(graph, pattern, roots, design, config) -> dict:
    report = run_on_soc(graph, build_plan(pattern), config, roots)
    return {
        "design": design,
        "stats": [getattr(report, f) for f in STAT_FIELDS],
        "per_pe_busy": report.per_pe_busy,
    }


def _observed(graph, pattern, roots, config) -> tuple:
    with observe() as ob:
        report = run_on_soc(graph, build_plan(pattern), config, roots)
    profile = build_profile(report, ob, "event")
    return {
        "tasks": profile.level_tasks,
        "elements": profile.level_elements,
        "comparisons": profile.level_comparisons,
    }, profile, report


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_statistics_match_golden(golden):
    for key, graph, pattern, roots, design, config in _cases():
        got = _record(graph, pattern, roots, design, config)
        assert got == golden[key], key


def test_small_blocks_and_chunks_match_golden(golden, monkeypatch):
    # blocks of a few rows and chunks of a few start tasks lay the trace
    # out differently; what the simulator charges may not notice
    monkeypatch.setattr(functional, "TRACE_BLOCK_ELEMENTS", 24)
    monkeypatch.setattr(hwexec, "TRACE_FIRST_CHUNK", 3)
    monkeypatch.setattr(hwexec, "TRACE_CHUNK_TASKS", 40)
    for i, (key, graph, pattern, roots, design, config) in enumerate(
        _cases()
    ):
        if i % 3 == 0:
            got = _record(graph, pattern, roots, design, config)
            assert got == golden[key], key


FACTS = ("na", "nb", "i_end", "j_end", "c_a", "c_b", "matches", "wa", "wb")


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 40),
    degree=st.floats(1.0, 12.0),
    seed=st.integers(0, 2**16),
    name=st.sampled_from(sorted({**PATTERNS, **LABELLED})),
    width=st.sampled_from([0, 2, 8]),
    labelled=st.booleans(),
    budget=st.sampled_from([1, 7, 1 << 15]),
)
def test_trace_facts_match_the_per_task_form(
    n, degree, seed, name, width, labelled, budget
):
    """Every operation's facts are what ``merge_boundaries`` and
    ``consumed_extents`` say of ``walk_tasks``' op records, and every
    task's set, children and count are the walker's."""
    graph = erdos_renyi(n, degree, seed=seed)
    if labelled:
        graph.labels = np.arange(graph.num_vertices, dtype=np.int64) % 3
    plan = build_plan({**PATTERNS, **LABELLED}[name])
    starts = root_tasks(graph, plan)
    if not starts:
        return
    blocks: dict = {}

    def cost(facts):
        blocks.setdefault((facts.level, facts.op), []).append(facts)
        return np.zeros((2, facts.na.size), dtype=np.int64)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(functional, "TRACE_BLOCK_ELEMENTS", budget)
        trace = trace_chunk(graph, plan, starts, width, cost)
    facts = {
        key: {f: np.concatenate([getattr(b, f) for b in parts]) for f in FACTS}
        for key, parts in blocks.items()
    }
    root_row = {v: i for i, v in enumerate(plan_roots(graph, plan).tolist())}
    rows: dict[int, int] = {}
    for task, expansion in walk_tasks(graph, plan, plan.stop_level):
        level = task.level
        if task.parent is None:
            row = root_row[task.vertex]
        else:
            row = trace.child_row(level - 1, rows[task.parent.task_id],
                                  task.vertex)
        rows[task.task_id] = row
        assert trace.vertices[level][row] == task.vertex
        for k, rec in enumerate(expansion.ops):
            want = dict(
                zip(("i_end", "j_end", "matches"),
                    merge_boundaries(rec.a, rec.b)),
                **dict(zip(("c_a", "c_b"), consumed_extents(rec.a, rec.b))),
                na=rec.a.size, nb=rec.b.size,
                wa=block_keys(rec.a, width).size,
                wb=block_keys(rec.b, width).size,
            )
            got = {f: int(facts[(level, k)][f][row]) for f in FACTS}
            assert got == want, (name, level, k, task.embedding)
        if level == plan.stop_level:
            assert trace.counts[level][row] == expansion.count
            continue
        assert trace.raw_words[level][row] == (
            block_keys(expansion.result, width).size
        )
        lo, hi = trace.children[level][row : row + 2]
        assert trace.vertices[level + 1][lo:hi].tolist() == (
            expansion.filtered.tolist()
        )
    assert len(rows) == sum(v.size for v in trace.vertices)


def test_golden_covers_the_matrix(golden):
    cases = {key: design for key, *_, design, _ in _cases()}
    assert set(golden) == set(cases) | {f"profile/{k}" for k in OBSERVED}
    designs = {golden[k]["design"] for k in cases}
    for siu, sched, hw in DESIGNS:
        assert any(d.startswith(f"{siu}/{sched}/hw{hw}/") for d in designs)
    assert any("/db/" in d for d in designs)
    assert any(d.endswith("/o4") for d in designs)
    # host prefixes really ran, and sub-ranges really are strict
    assert any(golden[k]["stats"][2] > 3 * 4.0 for k in cases)
    for key in ("er/TT/all", "skewed/C5/all", "labelled/TT/0120/all"):
        sub = key.replace("/all", "/sub")
        assert golden[key]["stats"][0] > golden[sub]["stats"][0] > 0, key


def test_observed_profile_matches_golden(golden):
    cases = {key: rest for key, *rest in _cases()}
    for key in OBSERVED:
        graph, pattern, roots, _, config = cases[key]
        levels, profile, report = _observed(graph, pattern, roots, config)
        want = golden[f"profile/{key}"]
        assert json.loads(json.dumps(levels)) == want, key
        # observing the run changes none of its statistics
        assert [getattr(report, f) for f in STAT_FIELDS] == (
            golden[key]["stats"]
        ), key
        assert report.per_pe_busy == golden[key]["per_pe_busy"], key
        # the trace build is its own stage and span, beside the replay
        assert profile.stages["event_trace"] > 0, key
        assert profile.stages["event_replay"] > 0, key
        assert any(sp.name == "sim.trace" for sp in profile.spans), key


if __name__ == "__main__":  # pragma: no cover - recorder
    GOLDEN.parent.mkdir(exist_ok=True)
    rows = {}
    cases = {}
    for key, graph, pattern, roots, design, config in _cases():
        rows[key] = _record(graph, pattern, roots, design, config)
        cases[key] = (graph, pattern, roots, config)
    for key in OBSERVED:
        rows[f"profile/{key}"] = _observed(*cases[key])[0]
    GOLDEN.write_text("{\n" + ",\n".join(  # one case per line
        f" {json.dumps(k)}: {json.dumps(v)}" for k, v in rows.items()
    ) + "\n}\n")
