"""Functional layer: exact candidate-set expansion, no timing.

This module is the single source of truth for *what* a task computes —
which stored/neighbour set seeds the candidate set, which neighbour rows are
intersected or subtracted on top, and which bound/distinctness/label filters
prune the survivors.  Outside the reference executor
(:mod:`repro.patterns.executor`, kept independent so agreement with it means
something) every reader of a :class:`LevelSpec` goes through one of three
forms, each with one step function and one driver:

* **per task** — :func:`expand_task` is the step, :func:`plan_roots` the
  root enumerator, :func:`walk_tasks` the depth-first driver.  The host's
  software prefix (:mod:`repro.sim.host`), IEP expression folding
  (:mod:`repro.patterns.iep`) and the fast-vs-exact validation
  (:mod:`repro.sim.validation`) are folds over the walker's stream;
* **traced** — :func:`trace_chunk` is the step (a chunk of the ``event``
  engine's start tasks, level by level with the per-task semantics, into
  a :class:`ChunkTrace`), ``sim.hwexec.HardwareTaskExecutor`` the driver;
* **bulk** — the plan's compiled kernel (:mod:`repro.patterns.codegen`),
  called by :meth:`FrontierExpander.run_chunk`, is the step (every level
  of a chunk of roots through the kernels of :mod:`repro.setops.bulk`),
  :func:`sweep_frontier` the chunked driver behind the ``codegen`` engine
  and the incremental counter.  :class:`FrontierExpander` holds the
  graph-side state the kernel closes over: the adjacency oracle, the
  bound-to-span search and the row-word geometry.

Nothing here touches the memory hierarchy, the SIU models or the clock, so
these kernels are trivially reusable by future backends (multiprocess
sharding, GPU, ...) that only need the functional result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial, reduce
from typing import Callable, Iterator

import numpy as np

from ..graph.csr import CSRGraph, gather_spans
from ..patterns.codegen import compile_plan_kernel
from ..patterns.executor import apply_filters
from ..patterns.plan import LevelSpec, MatchingPlan
from ..sched.task import SimTask
from ..setops.bulk import (
    bulk_adjacency,
    bulk_adjacency_bits,
    edge_keys,
    packed_adjacency,
    row_bounds,
    row_spans,
)
from ..setops.reference import difference_sorted, intersect_sorted

__all__ = [
    "SetOpRecord",
    "TaskExpansion",
    "level_steps",
    "expand_task",
    "plan_roots",
    "root_tasks",
    "walk_tasks",
    "leaf_count",
    "row_word_counts",
    "stream_words",
    "TRACE_BLOCK_ELEMENTS",
    "OpFacts",
    "ChunkTrace",
    "trace_chunk",
    "FrontierLevel",
    "sweep_frontier",
]


# -- word-stream geometry (BitmapCSR) ---------------------------------------


def stream_words(
    values: np.ndarray, owner: np.ndarray, rows: int, width: int
) -> np.ndarray:
    """BitmapCSR words of each of ``rows`` sorted sets, concatenated in
    ``values`` (``owner[i]`` is the set holding ``values[i]``): one word
    per distinct ``v // width`` block, one per vertex at ``width`` 0."""
    if not width:
        return np.bincount(owner, minlength=rows)
    blocks = values // width
    new = np.ones(values.size, dtype=bool)
    new[1:] = (blocks[1:] != blocks[:-1]) | (owner[1:] != owner[:-1])
    return np.bincount(owner[new], minlength=rows)


def row_word_counts(graph: CSRGraph, width: int) -> np.ndarray:
    """BitmapCSR words per neighbour row, computed in one vectorised pass."""
    if not width:
        return graph.degrees.astype(np.int64)
    n = graph.num_vertices
    owner = np.repeat(np.arange(n), graph.degrees)
    return stream_words(graph.indices, owner, n, width)


# -- per-task expansion ------------------------------------------------------


@dataclass
class SetOpRecord:
    """One set operation of a task, functionally resolved (what the host
    prefix and the exact validation charge for)."""

    kind: str  # "set_int" | "set_diff"
    a: np.ndarray  # input set before the operation
    b: np.ndarray  # the neighbour row
    out: np.ndarray  # result


@dataclass
class TaskExpansion:
    """Functional outcome of one task: candidate set, ops, children."""

    ops: list[SetOpRecord]
    result: np.ndarray  # final candidate set, before filters
    filtered: np.ndarray  # after bound/distinctness/label filters
    count: int  # leaf count contribution (0 for interior tasks)


def leaf_count(filtered_size: int, collection: str) -> int:
    """Embeddings contributed by one leaf task's filtered candidate set."""
    if collection == "choose2":
        return filtered_size * (filtered_size - 1) // 2
    return filtered_size  # enumerate / count_last


def level_steps(lv: LevelSpec) -> tuple[str, int, tuple]:
    """How a task of level ``lv`` builds its raw candidate set: ``(mode,
    source, ops)`` — the ancestor set of level ``source`` (mode ``"reuse"``,
    no ops, or ``"stored"``) or the neighbour row of position ``source``
    (``"neighbors"``), then the ``(kind, position)`` set operations."""
    if lv.reuse_from is not None:
        return "reuse", lv.reuse_from, ()
    if lv.base is None:
        mode, source = "neighbors", lv.deps[0]
        deps, anti = lv.deps[1:], lv.anti_deps
    else:
        mode, source = "stored", lv.base
        deps, anti = lv.extra_deps, lv.extra_anti
    ops = [("set_int", p) for p in deps] + [("set_diff", p) for p in anti]
    return mode, source, tuple(ops)


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
    mode, source, steps = level_steps(lv)
    if mode == "neighbors":
        s = graph.neighbors(emb[source])
    else:
        s = task.ancestor(source).raw_set
        assert s is not None
    for kind, p in steps:
        b = graph.neighbors(emb[p])
        out = (
            intersect_sorted(s, b)
            if kind == "set_int"
            else difference_sorted(s, b)
        )
        ops.append(SetOpRecord(kind=kind, a=s, b=b, out=out))
        s = out

    filt = apply_filters(s, lv, emb, graph.labels)
    if task.level == plan.stop_level:
        count = leaf_count(int(filt.size), plan.collection)
    else:
        count = 0
        task.raw_set = s  # descendants extend / re-read this set
    return TaskExpansion(ops=ops, result=s, filtered=filt, count=count)


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


# -- chunk trace (event backend) ---------------------------------------------

#: candidate-set elements one block of trace rows gathers at a time: the
#: bound on a trace build's temporaries however skewed the graph (a hub
#: root's TT subtree, 2.5 M leaf elements: 117 MB unblocked, 2 MB blocked)
TRACE_BLOCK_ELEMENTS = 1 << 15


@dataclass
class OpFacts:
    """Set operation ``op`` of plan level ``level`` on a block of trace
    rows; per row its sets' sizes, ``merge_boundaries`` and
    ``consumed_extents`` (in vertices) and stream words ``wa``/``wb``."""

    level: int
    op: int
    kind: str  # "set_int" | "set_diff"
    na: np.ndarray
    nb: np.ndarray
    i_end: np.ndarray
    j_end: np.ndarray
    c_a: np.ndarray
    c_b: np.ndarray
    matches: np.ndarray
    wa: np.ndarray
    wb: np.ndarray


@dataclass(eq=False)
class ChunkTrace:
    """What one chunk of start tasks computes, one array per plan level
    in each field.  Row ``i`` of the start level is start task ``i``; a
    row's children are one run of rows of the next level."""

    vertices: list  # each row's own vertex (``task.vertex``)
    children: list  # each row's first child row, and a closing entry
    raw_words: list  # stream words of each row's raw candidate set
    counts: list  # embeddings each leaf row contributes
    issue: list  # SIU issue cycles, one array row per set operation
    comparisons: list  # comparator work over the row's set operations

    @cached_property
    def _views(self) -> list:
        """Per level, the replay's views of ``issue`` (one per set
        operation), ``comparisons``, ``counts``, ``raw_words`` and
        ``children``: indexing a ``memoryview`` gives a Python int at half
        the cost of ``ndarray.item``, and copies nothing."""
        return [
            (
                [memoryview(op) for op in self.issue[level]],
                *(memoryview(getattr(self, name)[level]) for name in (
                    "comparisons", "counts", "raw_words", "children",
                )),
            )
            for level in range(len(self.vertices))
        ]

    def child_row(self, level: int, row: int, vertex: int) -> int:
        """Row of ``vertex`` among the children of ``row`` (-1: not one)."""
        lo, hi = self.children[level][row : row + 2].tolist()
        kids = self.vertices[level + 1][lo:hi]
        i = int(kids.searchsorted(vertex))
        return lo + i if i < kids.size and kids[i] == vertex else -1


def _raw_set(graph: CSRGraph, plan: MatchingPlan, task) -> np.ndarray:
    """An interior task's raw set (a traced task keeps none: recompute)."""
    if task.raw_set is not None:
        return task.raw_set
    node = None
    for level, v in enumerate(task.embedding, 1):
        node = SimTask(level=level, vertex=v, parent=node)
        expand_task(graph, plan, node)
    return node.raw_set


class _TraceBuilder:
    """Expands a chunk a block of rows at a time, depth first, so that
    each level's rows are recorded in their parents' order."""

    def __init__(self, graph, plan: MatchingPlan, width: int, cost) -> None:
        self.graph, self.plan, self.width, self.cost = graph, plan, width, cost
        self.row_words = graph.derived(
            ("row_words", width), row_word_counts, graph, width
        )
        self.keys = graph.derived("edge_keys", edge_keys, graph)
        self.steps = [None, *map(level_steps, plan.levels[1:])]
        depth = plan.stop_level + 1
        self.parts = {
            name: [[] for _ in range(depth)]
            for name in ChunkTrace.__dataclass_fields__
        }
        self.rows = [0] * (depth + 1)  # rows recorded so far, per level

    def record(self, name: str, level: int, values: np.ndarray) -> None:
        """Keep a copy of ``values``, as int32 where they fit."""
        small = not values.size or (
            values.min() >= -(2**31) and values.max() < 2**31
        )
        self.parts[name][level].append(
            values.astype(np.int32 if small else np.int64)
        )

    def finish(self) -> ChunkTrace:
        for level, part in enumerate(self.parts["children"]):
            if part:  # close the last row's run of children
                end = np.array([self.rows[level + 1]])
                self.record("children", level, end)
        return ChunkTrace(**{
            name: [
                np.concatenate(p, axis=-1) if p else np.zeros(0, np.int32)
                for p in levels
            ]
            for name, levels in self.parts.items()
        })

    def rows_of(self, level: int, emb: np.ndarray, anc: dict, stored: dict):
        """Trace ``emb``'s rows in blocks of ~``TRACE_BLOCK_ELEMENTS`` seed
        elements; ``anc[k]`` indexes each row's level-``k`` ancestor in
        ``stored[k]``, the ``(values, offsets, words)`` of its raw sets."""
        mode, source, _ = self.steps[level]
        if mode == "neighbors":
            sizes = self.graph.degrees[emb[:, source]]
        else:
            sizes = np.diff(stored[source][1])[anc[source]]
        block = (np.cumsum(sizes) - sizes) // TRACE_BLOCK_ELEMENTS
        cuts = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(), len(emb)]
        for lo, hi in zip(cuts, cuts[1:]):
            rows = {k: a[lo:hi] for k, a in anc.items()}
            self.block(level, emb[lo:hi], rows, stored)

    def block(self, level: int, emb: np.ndarray, anc: dict, stored: dict):
        graph, lv, m = self.graph, self.plan.levels[level], emb.shape[0]
        mode, source, ops = self.steps[level]
        if mode == "neighbors":
            cand, owner = graph.gather_rows(emb[:, source])
            wa = self.row_words[emb[:, source]]
        else:  # ``wa``: a host ancestor's is its plain size
            vals, off, words = stored[source]
            idx = anc[source]
            cand, owner = gather_spans(vals, off[idx], off[idx + 1])
            wa = words[idx]
        issue = np.zeros((len(ops), m), dtype=np.int64)
        comparisons = np.zeros(m, dtype=np.int64)
        for k, (kind, p) in enumerate(ops):
            facts, hit = self.facts(level, k, kind, cand, owner, emb[:, p], wa)
            issue[k], work = self.cost(facts)
            comparisons += work
            keep = np.flatnonzero(hit if kind == "set_int" else ~hit)
            cand, owner = cand[keep], owner[keep]
            if k + 1 < len(ops):
                wa = stream_words(cand, owner, m, self.width)
        # bounds, distinctness and labels prune the raw set afterwards
        upper, lower = row_bounds(emb, lv.upper_bounds, lv.lower_bounds)
        keep = [cand != emb[owner, p] for p in lv.exclude]
        if upper is not None:
            keep.append(cand < upper[owner])
        if lower is not None:
            keep.append(cand > lower[owner])
        if lv.label is not None and graph.labels is not None:
            keep.append(graph.labels[cand] == lv.label)
        kids, kid_owner = cand, owner
        if keep:
            keep = np.flatnonzero(reduce(np.logical_and, keep))
            kids, kid_owner = cand[keep], owner[keep]
        sizes = np.bincount(kid_owner, minlength=m)
        self.record("vertices", level, emb[:, level - 1])
        self.record("issue", level, issue)
        self.record("comparisons", level, comparisons)
        self.rows[level] += m
        if level == self.plan.stop_level:
            counts = leaf_count(sizes, self.plan.collection)
            self.record("counts", level, counts)
            return
        words = stream_words(cand, owner, m, self.width)
        first_child = self.rows[level + 1] + np.cumsum(sizes) - sizes
        self.record("raw_words", level, words)
        self.record("children", level, first_child)
        if kids.size:
            off = np.concatenate(
                ([0], np.cumsum(np.bincount(owner, minlength=m)))
            )
            anc = {k: a[kid_owner] for k, a in anc.items()}
            anc[level] = kid_owner
            self.rows_of(
                level + 1, np.column_stack([emb[kid_owner], kids]), anc,
                {**stored, level: (cand, off, words)},
            )

    def facts(self, level, k, kind, cand, owner, u, wa):
        """Merge facts of each row's set in ``cand`` (grouped by ``owner``)
        against its ``N(u)``, and which elements of ``cand`` are in it."""
        graph, m = self.graph, u.size
        u = u.astype(np.int64)
        na, nb = np.bincount(owner, minlength=m), graph.degrees[u]
        wb = self.row_words[u]
        if not cand.size:
            zero = np.zeros(m, dtype=np.int64)
            return OpFacts(level, k, kind, na, nb, zero, zero, na, nb, zero,
                           wa, wb), np.zeros(0, dtype=bool)
        lo = graph.indptr[u]
        a_last = cand[np.maximum(np.cumsum(na) - 1, 0)]
        b_last = graph.indices[np.maximum(lo + nb - 1, 0)]
        lim = np.minimum(a_last, b_last)
        hit = bulk_adjacency(self.keys, graph.num_vertices, u[owner], cand)
        row = u * graph.num_vertices  # each row's base in the edge keys
        both = (na > 0) & (nb > 0)

        def count(mask):
            return np.bincount(owner[mask], minlength=m)

        return OpFacts(
            level, k, kind, na, nb,
            i_end=np.where(both, count(cand <= lim[owner]), 0),
            j_end=np.where(
                both, self.keys.searchsorted(row + lim, "right") - lo, 0
            ),
            c_a=np.where(
                both, na + self.keys.searchsorted(row + a_last) - lo, na
            ),
            c_b=np.where(both, nb + count(cand <= b_last[owner]), nb),
            matches=np.where(both, count(hit), 0),
            wa=wa, wb=wb,
        ), hit


def trace_chunk(
    graph: CSRGraph,
    plan: MatchingPlan,
    starts: list,
    width: int,
    cost: Callable[[OpFacts], tuple[np.ndarray, np.ndarray]],
) -> ChunkTrace:
    """Trace the subtrees of ``starts``, tasks of one level, with the
    per-task semantics of :func:`expand_task` (BitmapCSR ``width``).

    ``cost(facts)`` turns each :class:`OpFacts` into per-row ``(issue
    cycles, comparisons)``.  The sets of the levels above the start level,
    and their word counts, are the start tasks' ancestors'.
    """
    first = starts[0].level
    anc, stored = {}, {}
    for k in range(1, first):  # each distinct ancestor's set once
        above = [t.ancestor(k) for t in starts]
        tasks = list({id(a): a for a in above}.values())
        index = {id(a): i for i, a in enumerate(tasks)}
        sets = [_raw_set(graph, plan, a) for a in tasks]
        stored[k] = (
            np.concatenate(sets).astype(np.int32),
            np.cumsum([0, *(s.size for s in sets)]),
            np.array([a.raw_words for a in tasks]),
        )
        anc[k] = np.array([index[id(a)] for a in above])
    emb = np.array([t.embedding for t in starts], dtype=np.int32)
    builder = _TraceBuilder(graph, plan, width, cost)
    builder.rows_of(first, emb.reshape(len(starts), first), anc, stored)
    return builder.finish()


# -- whole-frontier expansion (codegen backend) ------------------------------


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
    """Bulk expansion state for one ``(graph, plan)`` pair: the plan's
    compiled kernel and the graph-side state it closes over."""

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
        self._kernel = compile_plan_kernel(
            plan, use_labels=graph.labels is not None
        ).fn

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

    def run_chunk(self, emb: np.ndarray) -> list[FrontierLevel]:
        """Every plan level of the level-0 frontier ``emb`` in one call of
        the plan's compiled kernel, which returns as soon as a frontier
        empties: one record per level reached, each carrying its surviving
        ``embeddings`` (none on the leaf level)."""
        return self._kernel(
            self.graph, self.spans, self.adjacent, self._row_words, emb
        )


def sweep_frontier(
    expander: FrontierExpander,
    roots: np.ndarray,
    root_chunk: int,
    ob=None,
) -> list[FrontierLevel]:
    """Expand the level-0 frontier ``roots`` a chunk of rows at a time
    through :meth:`FrontierExpander.run_chunk`; returns one aggregate
    record per plan level (no ``embeddings``).

    Chunking bounds peak frontier memory on graphs whose intermediate
    frontiers would otherwise explode.  Under an active observation ``ob``
    each chunk's level records are added to its per-level profile.
    """
    merged = [
        FrontierLevel(level=lv, tasks=0, embeddings=roots[:0])
        for lv in range(1, expander.plan.stop_level + 1)
    ]
    for start in range(0, roots.shape[0], root_chunk):
        for step in expander.run_chunk(roots[start : start + root_chunk]):
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
