"""Functional layer: exact candidate-set expansion, no timing.

This module is the single source of truth for *what* a task computes —
which stored/neighbour set seeds the candidate set, which neighbour rows are
intersected or subtracted on top, and which bound/distinctness/label filters
prune the survivors.  Outside the reference executor
(:mod:`repro.patterns.executor`, kept independent so agreement with it means
something) every reader of a :class:`LevelSpec` goes through one of two
forms, each with one step function and one driver:

* **per task** — :func:`expand_task` is the step, :func:`plan_roots` the
  root enumerator, :func:`walk_tasks` the depth-first driver.  The ``event``
  backend schedules the step itself and hands the op records to the temporal
  layer; the host's software prefix (:mod:`repro.sim.host`), IEP expression
  folding (:mod:`repro.patterns.iep`) and the fast-vs-exact validation
  (:mod:`repro.sim.validation`) are folds over the walker's stream;
* **bulk** — :meth:`FrontierExpander.expand` is the step (a whole frontier
  level through the kernels of :mod:`repro.setops.bulk`),
  :func:`sweep_frontier` the chunked level-by-level driver behind the
  ``batched`` engine, :func:`expand_frontier` and the incremental counter.
  The ``codegen`` backend drives the same sweep with plan-specialised
  compiled source (:mod:`repro.patterns.codegen`) as its step, using
  :class:`FrontierExpander` for the adjacency oracle, bound-to-span search
  and row-word geometry.

Nothing here touches the memory hierarchy, the SIU models or the clock, so
these kernels are trivially reusable by future backends (multiprocess
sharding, GPU, ...) that only need the functional result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterator

import numpy as np

from ..graph.csr import CSRGraph
from ..patterns.executor import apply_filters
from ..patterns.plan import LevelSpec, MatchingPlan
from ..sched.task import SimTask
from ..setops.bulk import (
    bit_leaf_sizes,
    bulk_adjacency,
    bulk_adjacency_bits,
    edge_keys,
    gather_rows,
    packed_adjacency,
    row_bounds,
    row_spans,
)
from ..setops.reference import difference_sorted, intersect_sorted

__all__ = [
    "SetOpRecord",
    "TaskExpansion",
    "expand_task",
    "plan_roots",
    "root_tasks",
    "walk_tasks",
    "leaf_count",
    "row_word_counts",
    "set_stream_words",
    "FrontierLevel",
    "sweep_frontier",
    "expand_frontier",
]


# -- word-stream geometry (BitmapCSR) ---------------------------------------


def row_word_counts(graph: CSRGraph, width: int) -> np.ndarray:
    """BitmapCSR words per neighbour row, computed in one vectorised pass."""
    if width == 0:
        return graph.degrees.astype(np.int64)
    idx = graph.indices.astype(np.int64) // width
    if idx.size == 0:
        return np.zeros(graph.num_vertices, dtype=np.int64)
    flag = np.ones(idx.size, dtype=np.int64)
    flag[1:] = (idx[1:] != idx[:-1]).astype(np.int64)
    starts = graph.indptr[:-1]
    flag[starts[starts < idx.size]] = 1
    csum = np.concatenate([[0], np.cumsum(flag)])
    return csum[graph.indptr[1:]] - csum[graph.indptr[:-1]]


def set_stream_words(vertices: np.ndarray, width: int) -> int:
    """Stream length in BitmapCSR words of an arbitrary sorted set."""
    n = int(vertices.size)
    if width == 0 or n == 0:
        return n
    blocks = vertices // width
    return 1 + int(np.count_nonzero(blocks[1:] != blocks[:-1]))


# -- per-task expansion (event backend) -------------------------------------


@dataclass
class SetOpRecord:
    """One set operation of a task, functionally resolved.

    The temporal layer derives the operation's merge boundaries (and hence
    its exact cycle cost) from the three arrays — the simulator never
    re-derives what the functional layer already knows.
    """

    kind: str  # "set_int" | "set_diff"
    operand_vertex: int  # data vertex whose neighbour row is the B stream
    a: np.ndarray  # input set before the operation
    b: np.ndarray  # the neighbour row
    out: np.ndarray  # result


@dataclass
class TaskExpansion:
    """Functional outcome of one task: candidate set, ops, children."""

    #: how the seed set was obtained: "reuse" (ancestor's stored set, no
    #: computation), "stored" (ancestor's set extended by extra ops) or
    #: "neighbors" (a fresh neighbour-row load)
    mode: str
    #: ancestor level for "reuse"/"stored" modes
    source_level: int | None
    #: data vertex whose row seeds the set in "neighbors" mode
    source_vertex: int | None
    ops: list[SetOpRecord]
    result: np.ndarray  # final candidate set, before filters
    filtered: np.ndarray  # after bound/distinctness/label filters
    is_leaf: bool
    count: int  # leaf count contribution (0 for interior tasks)


def leaf_count(filtered_size: int, collection: str) -> int:
    """Embeddings contributed by one leaf task's filtered candidate set."""
    if collection == "choose2":
        return filtered_size * (filtered_size - 1) // 2
    return filtered_size  # enumerate / count_last


def expand_task(
    graph: CSRGraph, plan: MatchingPlan, task
) -> TaskExpansion:
    """Compute one task's candidate set (exact, no timing).

    For interior tasks the raw (pre-filter) set is stored on the task so
    descendants can extend it (prefix reuse / ``reuse_from``).
    """
    lv = plan.levels[task.level]
    emb = task.embedding
    ops: list[SetOpRecord] = []
    source_level: int | None = None
    source_vertex: int | None = None

    if lv.reuse_from is not None:
        mode = "reuse"
        source_level = lv.reuse_from
        s = task.ancestor(lv.reuse_from).raw_set
        assert s is not None
    else:
        if lv.base is not None:
            mode = "stored"
            source_level = lv.base
            s = task.ancestor(lv.base).raw_set
            assert s is not None
            op_deps, op_antis = lv.extra_deps, lv.extra_anti
        else:
            mode = "neighbors"
            source_vertex = emb[lv.deps[0]]
            s = graph.neighbors(source_vertex)
            op_deps, op_antis = lv.deps[1:], lv.anti_deps
        for kind, p in (
            *(("set_int", p) for p in op_deps),
            *(("set_diff", p) for p in op_antis),
        ):
            u = emb[p]
            b = graph.neighbors(u)
            out = (
                intersect_sorted(s, b)
                if kind == "set_int"
                else difference_sorted(s, b)
            )
            ops.append(SetOpRecord(kind=kind, operand_vertex=u, a=s, b=b,
                                   out=out))
            s = out

    filt = apply_filters(s, lv, emb, graph.labels)
    is_leaf = task.level == plan.stop_level
    if is_leaf:
        count = leaf_count(int(filt.size), plan.collection)
    else:
        count = 0
        task.raw_set = s  # descendants extend / re-read this set
    return TaskExpansion(
        mode=mode,
        source_level=source_level,
        source_vertex=source_vertex,
        ops=ops,
        result=s,
        filtered=filt,
        is_leaf=is_leaf,
        count=count,
    )


def plan_roots(
    graph: CSRGraph, plan: MatchingPlan, roots=None
) -> np.ndarray:
    """The search-tree roots: ``roots`` (default every vertex), in the
    order given, less those the plan's level-0 label rules out."""
    # int32: vertex IDs fit and the bulk frontier matrices built from these
    # are the vectorised engines' memory/bandwidth bottleneck
    if roots is None:
        vertices = np.arange(graph.num_vertices, dtype=np.int32)
    else:
        vertices = np.asarray(roots, dtype=np.int32)
    root_label = plan.levels[0].label
    if root_label is not None and graph.labels is not None:
        vertices = vertices[graph.labels[vertices] == root_label]
    return vertices


def root_tasks(
    graph: CSRGraph, plan: MatchingPlan, roots=None
) -> list[SimTask]:
    """One level-1 task per search-tree root of :func:`plan_roots`."""
    return [
        SimTask(level=1, vertex=v, parent=None)
        for v in plan_roots(graph, plan, roots).tolist()
    ]


def walk_tasks(
    graph: CSRGraph, plan: MatchingPlan, until: int, roots=None
) -> Iterator[tuple[SimTask, TaskExpansion]]:
    """The set-centric DFS of Fig. 1c: every task of levels ``1..until``
    (at most ``plan.stop_level``) in depth-first order, each with its
    functional expansion.

    Tasks at level ``until`` are expanded but not descended — their
    ``expansion.filtered`` names the children a consumer may spawn.  A
    consumer reads the stored sets of a partial embedding off
    ``task.ancestor(k).raw_set``; a leaf's own set is ``expansion.result``.
    """
    stack = root_tasks(graph, plan, roots)[::-1]
    while stack:
        task = stack.pop()
        expansion = expand_task(graph, plan, task)
        yield task, expansion
        if task.level < until:
            stack.extend(
                SimTask(level=task.level + 1, vertex=v, parent=task)
                for v in expansion.filtered[::-1].tolist()
            )


# -- whole-frontier expansion (batched backend) ------------------------------


@dataclass
class FrontierLevel:
    """One level-synchronous expansion step and its aggregate statistics.

    ``embeddings`` holds the surviving partial embeddings *after* this
    level's filters (one row per search-tree node); on the leaf level it is
    empty and ``count`` carries the closed-form embedding total instead.
    Aggregates (``words_*``, ``set_ops``, ``comparisons``) feed the
    analytic temporal model.
    """

    level: int
    tasks: int
    embeddings: np.ndarray
    count: int = 0
    set_ops: int = 0
    comparisons: int = 0
    words_in: int = 0
    words_out: int = 0
    #: rows answered word-parallel — which path ran, not a report aggregate
    bit_rows: int = 0


class FrontierExpander:
    """Reusable bulk expansion state for one ``(graph, plan)`` pair."""

    def __init__(
        self, graph: CSRGraph, plan: MatchingPlan, bitmap_width: int = 0
    ) -> None:
        self.graph = graph
        self.plan = plan
        # graph-derived indexes, memoised on the graph across queries.
        # adjacency oracle: packed bitset (one byte gather per query) for
        # small graphs, sorted edge-key binary search beyond the size cap
        self._adj_bits = graph.derived("adj_bits", packed_adjacency, graph)
        self._keys = graph.derived("edge_keys", edge_keys, graph)
        self._row_words = graph.derived(
            ("row_words", bitmap_width), row_word_counts, graph, bitmap_width
        )
        #: ``spans(src, upper=None, lower=None)``: the CSR span of each
        #: ``N(src[i])`` inside its bounds (:func:`row_spans`); public, like
        #: :meth:`adjacent`, because compiled plan kernels call it
        self.spans = partial(row_spans, graph, self._keys)

    @property
    def row_words(self) -> np.ndarray:
        """BitmapCSR words per neighbour row (indexable by vertex)."""
        return self._row_words

    def adjacent(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Boolean mask: does the edge ``(u[i], v[i])`` exist?

        Public because compiled plan kernels (``repro.patterns.codegen``)
        take it as their adjacency oracle.
        """
        if self._adj_bits is not None:
            return bulk_adjacency_bits(self._adj_bits, u, v)
        return bulk_adjacency(self._keys, self.graph.num_vertices, u, v)

    def roots(self, vertices: np.ndarray | None = None) -> np.ndarray:
        """Level-0 frontier: one single-column row per (label-valid) root."""
        return plan_roots(self.graph, self.plan, vertices).reshape(-1, 1)

    def expand(self, level: int, emb: np.ndarray) -> FrontierLevel:
        """Expand every row of ``emb`` through plan level ``level`` at once.

        Prefix-reuse annotations (``base``/``reuse_from``) are cache
        optimisations for the one-task-at-a-time engines; the bulk
        formulation computes each level directly from its full
        ``deps``/``anti_deps`` (algebraically identical), so every level is
        a rank-bounded gather plus a sequence of bulk masks — or, the last
        level where its sets are dense, ANDs and popcounts over bit rows.
        """
        graph = self.graph
        lv: LevelSpec = self.plan.levels[level]
        n_rows = int(emb.shape[0])
        out = FrontierLevel(
            level=level, tasks=n_rows, embeddings=emb[:0], count=0
        )
        if n_rows == 0:
            return out
        rw = self._row_words
        src = emb[:, lv.deps[0]]
        out.words_in += int(rw[src].sum())
        probes = [(p, False) for p in lv.deps[1:]]
        probes += [(p, True) for p in lv.anti_deps]
        is_leaf = level == self.plan.stop_level
        labels = graph.labels if lv.label is not None else None
        # a terminal level only needs set sizes: where its sets are denser
        # than the bit rows, AND + popcount them instead of gathering
        leaf = is_leaf and bit_leaf_sizes(
            graph, emb, lv.deps[0], lv.upper_bounds, lv.lower_bounds,
            lv.exclude, probes, None if labels is None else lv.label,
            1 + len(probes),
        )
        if leaf:
            sizes, priors = leaf
            out.bit_rows = n_rows
            out.words_out = int(sizes.sum())
        else:
            # symmetry bounds select a span of the sorted row *before* the
            # gather, so the neighbours they discard are never materialised
            bounds = row_bounds(emb, lv.upper_bounds, lv.lower_bounds)
            cand, owner = gather_rows(graph, src, *self.spans(src, *bounds))
            # remaining cheap per-candidate filters — distinctness, labels —
            # shrink the frontier before the dominant adjacency probes;
            # every filter is an independent per-element predicate, so the
            # surviving set is order-invariant
            predicates = [cand != emb[:, p][owner] for p in lv.exclude]
            if labels is not None:
                predicates.append(labels[cand] == lv.label)
            if predicates:
                keep = predicates[0]
                for extra in predicates[1:]:
                    keep &= extra
                # compress by index: far cheaper than two boolean-mask scans
                keep = np.flatnonzero(keep)
                cand = cand[keep]
                owner = owner[keep]
            # bulk intersections / differences against the other matched rows
            priors = []
            for p, invert in probes:
                priors.append(int(cand.size))
                keep = self.adjacent(emb[:, p][owner], cand)
                if invert:
                    np.logical_not(keep, out=keep)
                keep = np.flatnonzero(keep)
                cand = cand[keep]
                owner = owner[keep]
            out.words_out = int(cand.size)
            if not is_leaf:
                out.embeddings = np.column_stack([emb[owner], cand])
            elif self.plan.collection == "choose2":
                sizes = np.bincount(owner, minlength=n_rows)
            else:
                sizes = np.array([cand.size])
        for (p, _), prior in zip(probes, priors):
            # one B-stream read per task (row), as the event engine does
            other_words = int(rw[emb[:, p]].sum())
            out.words_in += other_words
            out.set_ops += n_rows
            out.comparisons += prior + other_words
        if is_leaf:
            out.count = int(leaf_count(sizes, self.plan.collection).sum())
        return out


def _expand_levels(
    expander: FrontierExpander, ob, emb: np.ndarray
) -> Iterator[FrontierLevel]:
    """One chunk through the interpreted level loop, until it empties."""
    for level in range(1, expander.plan.stop_level + 1):
        if ob is None:
            step = expander.expand(level, emb)
        else:
            with ob.tracer.span(f"engine.level{level}", level=level):
                step = expander.expand(level, emb)
        yield step
        emb = step.embeddings
        if emb.shape[0] == 0:
            return


def sweep_frontier(
    expander: FrontierExpander,
    roots: np.ndarray,
    root_chunk: int,
    ob=None,
    steps=None,
) -> list[FrontierLevel]:
    """Expand the level-0 frontier ``roots`` a chunk of rows at a time;
    returns one aggregate record per plan level (no ``embeddings``).

    Chunking bounds peak frontier memory on graphs whose intermediate
    frontiers would otherwise explode.  ``steps(emb)`` yields one chunk's
    level records in order: by default the interpreted loop over
    :meth:`FrontierExpander.expand` (one span per level under the active
    observation ``ob``); the ``codegen`` engine passes its compiled kernel.
    """
    if steps is None:
        steps = partial(_expand_levels, expander, ob)
    merged = [
        FrontierLevel(level=lv, tasks=0, embeddings=roots[:0])
        for lv in range(1, expander.plan.stop_level + 1)
    ]
    for start in range(0, roots.shape[0], root_chunk):
        for step in steps(roots[start : start + root_chunk]):
            agg = merged[step.level - 1]
            agg.tasks += step.tasks
            agg.count += step.count
            agg.set_ops += step.set_ops
            agg.comparisons += step.comparisons
            agg.words_in += step.words_in
            agg.words_out += step.words_out
            agg.bit_rows += step.bit_rows
            if ob is not None:
                ob.level_add(
                    step.level,
                    tasks=step.tasks,
                    elements=step.words_in,
                    comparisons=step.comparisons,
                    bit_rows=step.bit_rows,
                )
    return merged


def expand_frontier(
    graph: CSRGraph,
    plan: MatchingPlan,
    roots: np.ndarray | None = None,
    bitmap_width: int = 0,
) -> list[FrontierLevel]:
    """Run a full level-by-level expansion; returns the per-level records."""
    ex = FrontierExpander(graph, plan, bitmap_width)
    emb = ex.roots(roots)
    return sweep_frontier(ex, emb, max(emb.shape[0], 1))
