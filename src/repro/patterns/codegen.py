"""Task-list code generation: matching plan → X-SET hardware program.

Paper §4.2 step ②: the matching plan is "transformed into an executable
task list" whose entries name a set operation, its operands, the
symmetry-breaking filter and the count-only flag — the dispatcher decodes
exactly this record in Figure 10e (``R[0] <- set_int S0, G[v1], filter=v1,
count_only``).  This module compiles a :class:`MatchingPlan` into that task
list, renders it in the paper's textual form, and packs/unpacks a 64-bit
binary encoding of each entry (what ``xset_config`` would actually DMA into
the PE).

Plan-compiled software kernels
------------------------------
The same compilation idea applied to the software counting engine: rather
than interpret a generic level loop against the plan's ``LevelSpec``
tuples, :func:`emit_plan_source` emits *real NumPy source* specialised to
one plan — the loop nest is unrolled per level, symmetry bounds become
the span of a rank-bounded gather (a single bound position is one
column, not a ``min``-reduce over a one-element axis),
bound/exclude positions and labels are baked in as constants, the
adjacency probes appear as straight-line statements, and a level that
only extends its parent's stored set by one probe and one bound draws its
candidates from the parent's survivors instead of gathering again
(:func:`_reuses_parent`); the terminal level is first offered to the
word-parallel :func:`~repro.setops.bulk.bit_leaf_sizes`, which answers it
where bit rows are cheaper.  :func:`compile_plan_kernel` ``exec``-compiles
that source and caches the result per :func:`kernel_cache_key` — plan
structure plus the graph's labelledness; none of the ``SystemConfig``
timing knobs reach the functional source, so every config shares one
kernel per plan.  The cache is an LRU of ``KERNEL_CACHE_LIMIT`` kernels;
an evicted plan recompiles to the same source.  The kernel is the one
bulk step of :mod:`repro.engine.functional`
(``FrontierExpander.run_chunk``), behind the ``codegen`` backend in
:mod:`repro.engine.codegen` and the incremental counter.  Every set operation is charged its input size — a reused
probe's from its span, a bit row's from its popcount — and
``tests/data/frontier_golden.json`` pins counts *and* the analytic cycle
aggregates to the digit.

Encoding layout (LSB first):

====== ======= ==========================================================
bits    field   meaning
====== ======= ==========================================================
0-2     opcode  0 load, 1 set_int, 2 set_diff
3-6     src_a   source A: 0-7 stored set S_k, 8-14 neighbour N(u_p)+8
7-10    src_b   source B, same encoding (15 = none)
11-14   flt_lt  position whose vertex upper-bounds candidates (15 = none)
15-18   flt_gt  position whose vertex lower-bounds candidates (15 = none)
19      count   count-only (no spawn)
20      store   store result for descendant reuse
21-24   level   plan level this op belongs to
====== ======= ==========================================================
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import PlanError
from ..setops.bulk import unbounded_excludes
from .plan import LevelSpec, MatchingPlan

__all__ = ["TaskOp", "compile_task_list", "render_task_list",
           "encode_task_op", "decode_task_op",
           "CompiledKernel", "emit_plan_source", "compile_plan_kernel",
           "kernel_cache_key", "kernel_cache_info", "clear_kernel_cache"]

_NONE = 15
_OPCODES = {"load": 0, "set_int": 1, "set_diff": 2}
_OPNAMES = {v: k for k, v in _OPCODES.items()}


@dataclass(frozen=True)
class TaskOp:
    """One entry of the hardware task list."""

    level: int
    opcode: str                  # "load" | "set_int" | "set_diff"
    src_a: tuple[str, int]       # ("S", level) or ("N", position)
    src_b: tuple[str, int] | None
    filter_lt: int | None        # candidates < u[position]
    filter_gt: int | None        # candidates > u[position]
    count_only: bool
    store: bool

    def render(self) -> str:
        """The paper's Figure-10e textual form."""

        def src(ref: tuple[str, int]) -> str:
            kind, idx = ref
            return f"S{idx}" if kind == "S" else f"G[u{idx}]"

        parts = [f"R[{self.level}] <- {self.opcode} {src(self.src_a)}"]
        if self.src_b is not None:
            parts.append(f", {src(self.src_b)}")
        if self.filter_lt is not None:
            parts.append(f", filter<u{self.filter_lt}")
        if self.filter_gt is not None:
            parts.append(f", filter>u{self.filter_gt}")
        if self.count_only:
            parts.append(", count_only")
        if self.store:
            parts.append(", store")
        return "".join(parts)


def compile_task_list(plan: MatchingPlan) -> list[TaskOp]:
    """Compile every plan level into its hardware operations."""
    stop_level = plan.stop_level
    ops: list[TaskOp] = []
    for lv in plan.levels[1 : stop_level + 1]:
        is_leaf = lv.position == stop_level
        # the hardware filter carries one bound register; under chained
        # restrictions the latest bounding position holds the tightest value
        flt_lt = max(lv.upper_bounds) if lv.upper_bounds else None
        flt_gt = min(lv.lower_bounds) if lv.lower_bounds else None
        store = not is_leaf
        if lv.reuse_from is not None:
            ops.append(
                TaskOp(
                    level=lv.position,
                    opcode="load",
                    src_a=("S", lv.reuse_from),
                    src_b=None,
                    filter_lt=flt_lt,
                    filter_gt=flt_gt,
                    count_only=is_leaf,
                    store=store,
                )
            )
            continue
        if lv.base is not None:
            src: tuple[str, int] = ("S", lv.base)
            chain = [("set_int", p) for p in lv.extra_deps] + [
                ("set_diff", p) for p in lv.extra_anti
            ]
        else:
            src = ("N", lv.deps[0])
            chain = [("set_int", p) for p in lv.deps[1:]] + [
                ("set_diff", p) for p in lv.anti_deps
            ]
        if not chain:
            ops.append(
                TaskOp(
                    level=lv.position,
                    opcode="load",
                    src_a=src,
                    src_b=None,
                    filter_lt=flt_lt,
                    filter_gt=flt_gt,
                    count_only=is_leaf,
                    store=store,
                )
            )
            continue
        for i, (opcode, p) in enumerate(chain):
            last = i == len(chain) - 1
            ops.append(
                TaskOp(
                    level=lv.position,
                    opcode=opcode,
                    src_a=src if i == 0 else ("S", lv.position),
                    src_b=("N", p),
                    filter_lt=flt_lt if last else None,
                    filter_gt=flt_gt if last else None,
                    count_only=is_leaf and last,
                    store=store and last,
                )
            )
    return ops


def render_task_list(plan: MatchingPlan) -> str:
    """Full textual task list with a Figure-7a-style preamble."""
    lines = [
        f"; task list for pattern {plan.pattern.name} "
        f"({plan.collection} collection)",
        "xset_config GRAPH_BASE, CSR",
        f"xset_config TASKLIST, {len(compile_task_list(plan))} entries",
    ]
    lines += ["  " + op.render() for op in compile_task_list(plan)]
    lines.append("xset_run MAX_VERTEX")
    lines.append("xset_poll RESULT")
    return "\n".join(lines)


def _encode_src(ref: tuple[str, int] | None) -> int:
    if ref is None:
        return _NONE
    kind, idx = ref
    if kind == "S":
        if not 0 <= idx < 8:
            raise PlanError(f"stored-set index {idx} out of range")
        return idx
    if not 0 <= idx < 7:
        raise PlanError(f"neighbour position {idx} out of range")
    return idx + 8


def _decode_src(value: int) -> tuple[str, int] | None:
    if value == _NONE:
        return None
    if value < 8:
        return ("S", value)
    return ("N", value - 8)


def encode_task_op(op: TaskOp) -> int:
    """Pack one task-list entry into its 64-bit configuration word."""
    word = _OPCODES[op.opcode]
    word |= _encode_src(op.src_a) << 3
    word |= _encode_src(op.src_b) << 7
    word |= (op.filter_lt if op.filter_lt is not None else _NONE) << 11
    word |= (op.filter_gt if op.filter_gt is not None else _NONE) << 15
    word |= int(op.count_only) << 19
    word |= int(op.store) << 20
    word |= op.level << 21
    return word


def decode_task_op(word: int) -> TaskOp:
    """Inverse of :func:`encode_task_op`."""
    src_a = _decode_src((word >> 3) & 0xF)
    if src_a is None:
        raise PlanError("task op must have a source A")
    flt_lt = (word >> 11) & 0xF
    flt_gt = (word >> 15) & 0xF
    return TaskOp(
        level=(word >> 21) & 0xF,
        opcode=_OPNAMES[word & 0x7],
        src_a=src_a,
        src_b=_decode_src((word >> 7) & 0xF),
        filter_lt=None if flt_lt == _NONE else flt_lt,
        filter_gt=None if flt_gt == _NONE else flt_gt,
        count_only=bool((word >> 19) & 1),
        store=bool((word >> 20) & 1),
    )


# -- plan-compiled software kernels ------------------------------------------


def _emit_spans(lv: LevelSpec) -> str:
    """The ``spans(...)`` call turning a level's bounds into CSR spans: a
    single bound position is one column, several reduce over the
    pattern-constant column tuple."""
    args = ["src"]
    for kw, reduce, positions in (
        ("upper", "min", lv.upper_bounds), ("lower", "max", lv.lower_bounds)
    ):
        if len(positions) == 1:
            args.append(f"{kw}=emb[:, {positions[0]}]")
        elif positions:
            cols = ", ".join(str(p) for p in positions)
            args.append(f"{kw}=emb[:, ({cols})].{reduce}(axis=1)")
    return f"lo, hi = spans({', '.join(args)})"


def _reuses_parent(
    levels: tuple[LevelSpec, ...], level: int, use_labels: bool
) -> bool:
    """Can ``level`` draw its candidates from its parent's survivors?

    Exact when the parent's surviving ``(cand, owner)`` segments *are* this
    level's set after its first probe, up to one new bound: the level adds
    the probe of ``u[level-1]`` and the bound ``< u[level-1]`` to a parent
    that issued exactly one probe, and neither filters by distinctness or
    label.  Segments are sorted, so "below ``u[level-1]``" is each
    survivor's predecessors in its own segment.
    """
    lv, parent = levels[level], levels[level - 1]
    return (
        lv.base == level - 1
        and lv.extra_deps == (level - 1,)
        and not (lv.extra_anti or lv.exclude)
        and len(parent.deps) == 2
        and not (parent.anti_deps or parent.exclude)
        and lv.upper_bounds == parent.upper_bounds + (level - 1,)
        and lv.lower_bounds == parent.lower_bounds
        and not (use_labels and (lv.label, parent.label) != (None, None))
    )


def _emit_charge(w: list[str], p: int, prior: str, pad: str = "    ") -> None:
    """Charge one set operation against ``N(u[p])`` whose input set holds
    ``prior`` elements (the aggregates the analytic timing model reads)."""
    w.append(f"{pad}other_words = int(rw[emb[:, {p}]].sum())")
    w.append(f"{pad}out.words_in += other_words")
    w.append(f"{pad}out.set_ops += n_rows")
    w.append(f"{pad}out.comparisons += {prior} + other_words")


def _emit_bit_leaf(w, lv, probes, collection, use_labels, reuses) -> None:
    """The word-parallel form of a terminal level, for wherever the density
    rule prefers it over the array form (``reuses``: parent-set reuse):
    charge each probe the popcount it took in, and return."""
    w.append(
        f"    leaf = bit_leaf_sizes(graph, emb, {lv.deps[0]}, "
        f"{lv.upper_bounds}, {lv.lower_bounds}, {lv.exclude}, "
        f"{tuple(probes)}, {lv.label if use_labels else None}, {reuses})"
    )
    w.append("    if leaf:")
    w.append("        sizes, priors = leaf")
    for k, (p, _) in enumerate(probes):
        _emit_charge(w, p, f"priors[{k}]", pad="        ")
    w.append("        out.words_out += int(sizes.sum())")
    each = "(sizes * (sizes - 1) // 2)" if collection == "choose2" else "sizes"
    w.append(f"        out.count = int({each}.sum())")
    w.append("        out.bit_rows = n_rows")
    w.append("        return levels")


def _emit_level(
    levels: tuple[LevelSpec, ...], level: int, is_leaf: bool,
    collection: str, use_labels: bool, first: bool = False,
) -> list[str]:
    """Source lines (function-body indent) for one unrolled plan level
    (``first``: the kernel's first, which has no parent set to reuse)."""
    lv = levels[level]
    w = lines = []
    w.append(f"    # -- level {level}: {lv.describe()}")
    w.append("    if emb.shape[0] == 0:")
    w.append("        return levels")
    w.append("    n_rows = int(emb.shape[0])")
    w.append(
        f"    out = FrontierLevel(level={level}, tasks=n_rows, "
        "embeddings=emb[:0], count=0)"
    )
    w.append("    levels.append(out)")
    w.append(f"    src = emb[:, {lv.deps[0]}]")
    w.append("    out.words_in += int(rw[src].sum())")
    probes = [
        *((p, False) for p in lv.deps[1:]),
        *((p, True) for p in lv.anti_deps),
    ]
    reuses = not first and _reuses_parent(levels, level, use_labels)
    if is_leaf:
        _emit_bit_leaf(w, lv, probes, collection, use_labels, reuses)
    if reuses:
        # cand/owner still hold the parent's survivors, one per row of emb.
        # The probe that produced them is charged, not re-issued: its input
        # was the bounded row (the span), its output the prefixes gathered
        (p, _), *probes = probes
        w.append(f"    # parent-set reuse: S{level - 1} below u{level - 1}")
        w.append(f"    {_emit_spans(lv)}")
        _emit_charge(w, p, "int((hi - lo).sum())")
        w.append("    sizes = np.bincount(owner)")
        w.append("    first = (np.cumsum(sizes) - sizes)[owner]")
        w.append(
            "    cand, owner = gather_spans(cand, first, np.arange(n_rows))"
        )
    elif lv.upper_bounds or lv.lower_bounds:
        w.append(f"    {_emit_spans(lv)}")
        w.append("    cand, owner = gather_rows(graph, src, lo, hi)")
    else:
        w.append("    cand, owner = gather_rows(graph, src)")
    # remaining cheap filters as pattern-constant predicates (none on reuse)
    excludes = unbounded_excludes(
        lv.exclude, lv.upper_bounds, lv.lower_bounds
    )
    predicates = [f"cand != emb[:, {p}][owner]" for p in excludes]
    if use_labels and lv.label is not None:
        predicates.append(f"graph.labels[cand] == {lv.label}")
    for i, pred in enumerate(predicates):
        w.append(f"    keep {'=' if i == 0 else '&='} {pred}")
    if predicates:
        # compress by index: far cheaper than two boolean-mask scans
        w.append("    keep = np.flatnonzero(keep)")
        w.append("    cand = cand[keep]")
        w.append("    owner = owner[keep]")
    # straight-line adjacency probes, one per remaining dependency
    for p, invert in probes:
        _emit_charge(w, p, "int(cand.size)")
        probe = f"adjacent(emb[:, {p}][owner], cand)"
        w.append(f"    keep = np.flatnonzero({'~' if invert else ''}{probe})")
        w.append("    cand = cand[keep]")
        w.append("    owner = owner[keep]")
    w.append("    out.words_out += int(cand.size)")
    if is_leaf:
        if collection == "choose2":
            w.append("    sizes = np.bincount(owner, minlength=n_rows)")
            w.append("    out.count = int((sizes * (sizes - 1) // 2).sum())")
        else:
            w.append("    out.count = int(cand.size)")
        w.append("    return levels")
    else:
        w.append("    emb = np.column_stack([emb[owner], cand])")
        w.append("    out.embeddings = emb")
    w.append("")
    return lines


def emit_plan_source(
    plan: MatchingPlan, use_labels: bool = False, start: int = 0
) -> str:
    """Emit plan-specialised NumPy source for one frontier sweep.

    The generated module defines ``kernel(graph, spans, adjacent, rw,
    emb)`` — *graph* the :class:`~repro.graph.csr.CSRGraph`, *spans* the
    bound-to-CSR-span search and *adjacent* the bulk edge-existence oracle
    (both from :class:`~repro.engine.functional.FrontierExpander`), *rw*
    the per-vertex row-word counts and *emb* the level-``start`` frontier
    (one partial embedding of ``start + 1`` columns per row: one root per
    row at level 0).  It returns the per-level
    :class:`~repro.engine.functional.FrontierLevel` records of the levels
    it reached, from ``start + 1`` on — the level loop unrolled, every
    bound/exclude/label constant inlined, no per-level attribute dispatch,
    and parent-set reuse wherever :func:`_reuses_parent` proves it exact
    and the parent set was computed in the kernel.

    ``use_labels`` bakes the plan's label predicates in; pass False when
    the target graph is unlabelled (it has no labels to test).
    """
    lines = [
        f'"""Plan-compiled kernel: pattern {plan.pattern.name}, '
        f"collection {plan.collection}, depth {plan.depth}"
        f"{', labelled' if use_labels else ''}"
        f"{f', from level {start}' if start else ''}.",
        "",
        "Generated by repro.patterns.codegen.emit_plan_source; do not edit.",
        '"""',
        "",
        "",
        "def kernel(graph, spans, adjacent, rw, emb):",
        "    levels = []",
    ]
    for level in range(start + 1, plan.stop_level + 1):
        lines += _emit_level(
            plan.levels,
            level,
            is_leaf=level == plan.stop_level,
            collection=plan.collection,
            use_labels=use_labels,
            first=level == start + 1,
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CompiledKernel:
    """One exec-compiled plan kernel plus its provenance."""

    key: tuple
    source: str
    fn: Callable[..., Any]


#: compiled kernels kept; the least recently used is dropped past it
KERNEL_CACHE_LIMIT = 64

#: compiled kernels, keyed by :func:`kernel_cache_key`, in LRU order
_KERNEL_CACHE: "OrderedDict[tuple, CompiledKernel]" = OrderedDict()
_KERNEL_STATS = {"hits": 0, "misses": 0}
_KERNEL_LOCK = threading.Lock()


class _KernelKey(tuple):
    """A kernel cache key that hashes once, not on every LRU lookup."""

    def __hash__(self) -> int:
        return self.hashvalue


def kernel_cache_key(
    plan: MatchingPlan, use_labels: bool = False, start: int = 0
) -> tuple:
    """The cache identity of a compiled kernel.

    Only inputs that reach the *emitted source* participate: the plan's
    level structure, its collection mode, whether label predicates were
    baked in and the level the kernel starts from.  ``SystemConfig`` knobs (SIU kind, widths, frequency, PE
    counts) are timing-model parameters applied after the functional
    sweep, so distinct configs deliberately share one kernel per plan.
    Memoised on the plan, hashed once: an edge delta's lookups per write
    walk no levels.
    """
    memo = vars(plan).setdefault("_kernel_keys", {})  # not a field
    key = memo.get((bool(use_labels), start))
    if key is None:
        key = _KernelKey((
            plan.levels, plan.collection, plan.stop_level, bool(use_labels),
            start,
        ))
        key.hashvalue = tuple.__hash__(key)
        memo[bool(use_labels), start] = key
    return key


def compile_plan_kernel(
    plan: MatchingPlan, use_labels: bool = False, start: int = 0
) -> CompiledKernel:
    """Emit, ``exec``-compile and cache the kernel for ``plan`` entered at
    level ``start`` (:func:`emit_plan_source`)."""
    key = kernel_cache_key(plan, use_labels, start)
    with _KERNEL_LOCK:
        cached = _KERNEL_CACHE.get(key)
        if cached is not None:
            _KERNEL_CACHE.move_to_end(key)
            _KERNEL_STATS["hits"] += 1
            return cached
        _KERNEL_STATS["misses"] += 1
    # imported here, not at module top: engine.functional itself imports
    # repro.patterns, and kernels are only compiled on first use anyway
    import numpy as np

    from ..engine.functional import FrontierLevel
    from ..setops.bulk import bit_leaf_sizes, gather_rows, gather_spans

    source = emit_plan_source(plan, use_labels, start)
    namespace: dict[str, Any] = {
        "np": np,
        "gather_rows": gather_rows,
        "gather_spans": gather_spans,
        "bit_leaf_sizes": bit_leaf_sizes,
        "FrontierLevel": FrontierLevel,
        "__name__": f"repro.patterns.codegen.kernel_{plan.pattern.name}",
    }
    code = compile(
        source, f"<plan-kernel:{plan.pattern.name}:{plan.collection}>", "exec"
    )
    exec(code, namespace)  # noqa: S102 - our own emitted source
    kernel = CompiledKernel(key=key, source=source, fn=namespace["kernel"])
    with _KERNEL_LOCK:
        _KERNEL_CACHE[key] = kernel
        while len(_KERNEL_CACHE) > KERNEL_CACHE_LIMIT:
            _KERNEL_CACHE.popitem(last=False)
    return kernel


def kernel_cache_info() -> dict:
    """Cache statistics (observability for tests and debugging)."""
    return {
        "size": len(_KERNEL_CACHE),
        "hits": _KERNEL_STATS["hits"],
        "misses": _KERNEL_STATS["misses"],
    }


def clear_kernel_cache() -> None:
    """Drop every compiled kernel and reset the statistics."""
    with _KERNEL_LOCK:
        _KERNEL_CACHE.clear()
        _KERNEL_STATS["hits"] = 0
        _KERNEL_STATS["misses"] = 0
