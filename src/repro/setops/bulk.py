"""Bulk (frontier-at-a-time) set-operation kernels.

The per-task kernels in :mod:`repro.setops.reference` intersect one pair of
sorted sets; these kernels process *thousands of tasks in one NumPy call*,
which is what makes the ``codegen`` execution engine fast.  The key
representation is the packed edge-key array: an undirected CSR graph whose
rows are sorted yields ``u * n + v`` keys that are globally sorted, so any
batch of adjacency queries becomes one ``searchsorted`` — a bulk
intersection/difference is then a boolean mask over a gathered candidate
frontier (the set-centric formulation SISA builds its ISA around).

All kernels are pure functions of their inputs: no graph mutation, no
timing.  The temporal layer charges cycles for them separately.
"""

from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np

from ..graph.csr import CSRGraph, gather_spans

__all__ = [
    "edge_keys",
    "bulk_membership",
    "bulk_adjacency",
    "packed_adjacency",
    "bulk_adjacency_bits",
    "bit_leaf_sizes",
    "unbounded_excludes",
    "row_bounds",
    "row_spans",
    "gather_spans",
    "gather_rows",
]

#: largest vertex count for which a packed adjacency bitset is built
#: (V * V / 8 bytes — 32 MB at the limit); beyond it adjacency queries
#: fall back to binary search over the edge-key array
PACKED_ADJ_MAX_VERTICES = 16384

#: words per temporary of :func:`bit_leaf_sizes` (256 KB: a chunk's
#: accumulator, operand and mask rows stay in L2 together), counted at the
#: full row width; a chunk reads only the word window its bounds leave
BIT_CHUNK_WORDS = 1 << 15

# Unit costs of :func:`bit_rows_cheaper`, fitted with each path forced on the
# terminal levels of 3CF/DIA/WEDGE/4CF/CYC/TT over WV@0.08/0.18, PP@0.1/0.3,
# AS@0.1 and Erdős–Rényi 200/6, 600/3, 1000/40, 3000/20, of 3CF/DIA/4CF over
# WV@1.0 and LJ@1.0 (112 and 235 words per row), and of 4CF over 13 more
# graphs (NumPy 2.4, one core, median of 5-7 alternating runs).  Per row of
# levels of 3 k+ rows, bit rows took 78 ns + 1.2 ns per word pass and the
# plain gather 88 ns + 17 ns per element operation: the per-row terms cancel;
# bits won up to 13 word passes per element operation (WV@1.0 3CF, and 4CF's
# leaf by a plain gather, which the ratio 10 leaves on arrays) and lost from 13.7 (er3000/20
# CYC).  Not so on the reuse leaf; its arrays / bits leaf time on 4CF: WV@0.12
# 1.8, WV@0.18 1.2-1.9, WV@0.25 1.9, WV@0.35 1.5, LJ@0.25 1.2, AS@0.1 0.9-1.1,
# er1500/20 0.9, MI@0.25 0.6, AS@0.25 0.5, LJ@1.0 0.7-0.9: ARRAY_ROW_NS > 49
# sends WV@0.18 to bits, > 174 would send MI@0.25.  The rule's sample took
# 7-12 us alone, 17-21 us in a kernel.
BIT_WORD_NS = 1.0  #: per pass over one 64-bit word (gather + AND, popcount)
ARRAY_ELEM_NS = 10.0  #: per candidate per gather or probe + compress
ARRAY_ROW_NS = 100.0  #: per row regrouping a parent's survivors (reuse)
RULE_NS = 20_000.0  #: a level whose bit rows cost less is not sampled
RULE_SAMPLE_ROWS = 64  #: to twice as many; its searches run on cold keys


def edge_keys(graph: CSRGraph) -> np.ndarray:
    """Sorted ``u * n + v`` key per directed CSR edge (one bulk probe set)."""
    n = np.int64(graph.num_vertices)
    src = np.repeat(
        np.arange(graph.num_vertices, dtype=np.int64), graph.degrees
    )
    return src * n + graph.indices.astype(np.int64)


def bulk_membership(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Boolean mask: is each ``needles[i]`` present in sorted ``haystack``?"""
    if haystack.size == 0 or needles.size == 0:
        return np.zeros(needles.size, dtype=bool)
    pos = np.searchsorted(haystack, needles)
    hit = pos < haystack.size
    pos[~hit] = 0  # clamp in place: out-of-range probes re-checked below
    hit &= haystack[pos] == needles
    return hit


def bulk_adjacency(
    keys: np.ndarray,
    num_vertices: int,
    u: np.ndarray,
    v: np.ndarray,
) -> np.ndarray:
    """Boolean mask: is there an edge ``(u[i], v[i])``?

    ``keys`` must come from :func:`edge_keys` of the same graph.
    """
    # one fused multiply into an int64 probe array, then add in place —
    # avoids two astype copies on the (large) u/v operands
    probe = np.multiply(u, np.int64(num_vertices), dtype=np.int64)
    probe += v
    return bulk_membership(keys, probe)


def packed_adjacency(
    graph: CSRGraph, max_vertices: int = PACKED_ADJ_MAX_VERTICES
) -> np.ndarray | None:
    """Bit-packed adjacency matrix, or ``None`` if the graph is too large.

    Row ``u``, bit ``v`` (little-endian within each byte) says whether the
    edge ``(u, v)`` exists.  One byte gather plus a shift answers an
    adjacency query — far cheaper than the ``O(log E)`` probe of
    :func:`bulk_adjacency` — at ``V²/8`` bytes of memory.  Rows are padded
    with zero bits to whole 64-bit words, so ``.view("<u8")`` is the same
    matrix as word rows (what :func:`bit_leaf_sizes` ANDs).
    """
    n = graph.num_vertices
    if n == 0 or n > max_vertices:
        return None
    bits = np.zeros((n, (n + 63) // 64 * 8), dtype=np.uint8)
    # pack in row chunks so the dense staging buffer stays small
    chunk = max(1, (1 << 22) // max(n, 1))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        dense = np.zeros((hi - lo, bits.shape[1] * 8), dtype=bool)
        span = slice(graph.indptr[lo], graph.indptr[hi])
        rows = np.repeat(
            np.arange(lo, hi, dtype=np.int64),
            graph.degrees[lo:hi],
        )
        dense[rows - lo, graph.indices[span]] = True
        bits[lo:hi] = np.packbits(dense, axis=1, bitorder="little")
    return bits


def bulk_adjacency_bits(
    bits: np.ndarray, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Boolean mask for edges ``(u[i], v[i])`` via a packed bitset."""
    sub = v & 7
    byte = bits[u, v >> 3]
    return (byte >> sub) & 1 != 0


@lru_cache(maxsize=2)
def prefix_masks(n: int) -> np.ndarray:
    """Word rows ``below[v]`` with exactly the bits ``< v`` set, ``0..n``:
    a function of ``n`` alone, so graph snapshots of one size share it."""
    shift = np.clip(np.arange(n + 1)[:, None] - np.arange(0, n, 64), 0, 64)
    part = (np.uint64(1) << (shift % 64).astype(np.uint64)) - np.uint64(1)
    return np.where(shift == 64, ~np.uint64(0), part)  # 1 << 64 would wrap


def row_bounds(rows: np.ndarray, upper: tuple, lower: tuple) -> tuple:
    """Per-row ``(upper, lower)`` bounds, reduced column by column (no copy
    for one column, and cheaper than a reduce over a short axis)."""
    return (
        reduce(np.minimum, (rows[:, c] for c in upper)) if upper else None,
        reduce(np.maximum, (rows[:, c] for c in lower)) if lower else None,
    )


def bit_rows_cheaper(
    graph: CSRGraph, width: int, emb: np.ndarray, src: int, upper: tuple,
    lower: tuple, probes: int, reuse: bool,
) -> bool:
    """Is a terminal level cheaper word-parallel than element by element?

    Bit rows (``width`` words each) cost one pass per operand — source,
    bound masks, ``probes`` — and per popcount.  Arrays cost, per candidate
    inside the level's :func:`row_spans`, the gather and every probe; with
    ``reuse`` (the level draws its candidates from its parent's survivors)
    half a gather and one probe fewer, plus regrouping those survivors per
    row.  Candidates are counted on a strided sample of rows, so that
    choosing costs ``RULE_NS`` at any size.  Bit rows are priced at their
    full width: :func:`bit_leaf_sizes` reads only the words its bounds
    leave, so the price bounds the leaf's word traffic.  It does not cover
    the leaf's fixed cost per chunk (the window's bound reduce and the
    float-flag scope, a few microseconds), which rows of a few words
    notice: er200's 3CF and DIA kernels (4 words per row) take about 1.07x
    as long as with a leaf that reads full rows and has neither.
    """
    passes = 2 + bool(upper) + bool(lower) + 2 * probes
    bit_ns = width * passes * BIT_WORD_NS  # per row
    if emb.shape[0] * bit_ns < RULE_NS:
        return True  # the bit rows cost less than finding out
    rows = emb[:: max(emb.shape[0] // RULE_SAMPLE_ROWS, 1)]
    keys = graph.derived("edge_keys", edge_keys, graph)
    lo, hi = row_spans(
        graph, keys, rows[:, src], *row_bounds(rows, upper, lower)
    )
    elem_ops = 0.5 * probes if reuse else 1 + probes
    row_ns = ARRAY_ROW_NS if reuse else 0.0
    elem_ns = int((hi - lo).sum()) * elem_ops * ARRAY_ELEM_NS
    return bit_ns * lo.size < row_ns * lo.size + elem_ns


def unbounded_excludes(exclude: tuple, upper: tuple, lower: tuple) -> tuple:
    """The ``exclude`` columns a level must still filter: a strict bound
    column already drops its own vertex (``< u`` implies ``!= u``)."""
    return tuple(p for p in exclude if p not in upper and p not in lower)


def bit_leaf_sizes(
    graph: CSRGraph, emb: np.ndarray, src: int, upper: tuple, lower: tuple,
    exclude: tuple, probes: tuple | list, label: int | None, reuse: bool,
) -> tuple[np.ndarray, list[int]] | None:
    """Sizes of a terminal level's candidate sets, 64 candidates per AND —
    or None where :func:`bit_rows_cheaper` (or a missing bitset) says no.

    Reads the graph's memoised :func:`packed_adjacency` as word rows.  Row
    ``i``'s set is ``N(emb[i, src])`` strictly between the ``lower`` and
    ``upper`` bound columns, minus the ``exclude`` columns' vertices, among
    vertices labelled ``label`` (None: any), then intersected with (``anti``:
    minus) ``N(emb[i, p])`` for each ``(p, anti)`` of ``probes`` in order.
    ``reuse`` says how the caller's array path would build the same sets.
    Returns the per-row sizes and, per probe, the total size of the sets it
    took in — what the element-at-a-time path reports as ``cand.size``.

    Rows go through in chunks of ``BIT_CHUNK_WORDS`` full-width words, and
    each chunk reads only the words ``[w0, w1)`` between its loosest
    bounds, ``w1 = ceil(max upper / 64)`` and ``w0 = (min lower + 1) //
    64`` (the whole row where a bound is absent): every bit outside is
    zero in every row's set, so neither a size nor a prior changes.
    """
    bits = graph.derived("adj_bits", packed_adjacency, graph)
    if bits is None or not bit_rows_cheaper(
        graph, bits.shape[1] // 8, emb, src, upper, lower, len(probes),
        reuse,
    ):
        return None
    words = bits.view("<u8")
    n, width = words.shape
    below = prefix_masks(n)
    if label is not None:
        labels = np.pad(graph.labels == label, (0, width * 64 - n))
        labels = np.packbits(labels, bitorder="little").view("<u8")
    exclude = unbounded_excludes(exclude, upper, lower)
    ones = np.ones(width, dtype=np.float32)
    sizes = np.zeros(emb.shape[0], dtype=np.int64)
    priors = [0] * len(probes)
    step = max(BIT_CHUNK_WORDS // width, 1)
    for start in range(0, emb.shape[0], step):
        rows = emb[start : start + step]
        below_v, above_v = row_bounds(rows, upper, lower)
        # every bit outside the chunk's loosest bounds is zero in every
        # set below, so only the words [w0, w1) between them are read
        w0 = (int(above_v.min()) + 1) >> 6 if lower else 0
        w1 = (int(below_v.max()) + 63) >> 6 if upper else width
        if w0 >= w1:
            continue  # no row has a candidate: its sizes and priors are 0
        acc = _take_words(words, rows[:, src], w0, w1)
        if upper:
            acc &= _take_words(below, below_v, w0, w1)
        if lower:
            acc &= ~_take_words(below, above_v + 1, w0, w1)
        for p in exclude:
            i, v = np.arange(rows.shape[0]), rows[:, p]
            if w1 - w0 < width:  # a vertex outside is outside every bound
                i = np.flatnonzero((v >= w0 << 6) & (v < w1 << 6))
                v = v[i] - (w0 << 6)
            acc[i, v >> 6] &= ~(np.uint64(1) << (v & 63).astype(np.uint64))
        if label is not None:
            acc &= labels[w0:w1]
        for k, (p, anti) in enumerate(probes):
            priors[k] += int(np.bitwise_count(acc).sum(dtype=np.uint32))
            other = _take_words(words, rows[:, p], w0, w1)
            acc &= ~other if anti else other
        # row sums as a float32 matvec: exact (sizes < 2**24) and several
        # times faster than an integer reduce over a short axis.  Its
        # operands are popcounts (0-64) and ones, yet OpenBLAS's kernel has
        # left the invalid flag raised on these exact sums (once in three
        # tier-1 runs, never in isolation), so that flag alone is ignored,
        # and in the product only: a NaN in it would still warn when cast
        # into ``sizes``
        counts = np.bitwise_count(acc).astype(np.float32)
        with np.errstate(invalid="ignore"):
            counts = counts @ ones[w0:w1]
        sizes[start : start + step] = counts
    return sizes, priors


def _take_words(
    table: np.ndarray, vertices: np.ndarray, w0: int, w1: int
) -> np.ndarray:
    """Rows ``vertices`` of the word table's columns ``[w0, w1)``.

    take() is twice as fast as fancy indexing on short rows, but copies a
    strided source whole first; a window is gathered as one opaque
    ``w1 - w0``-word element per row instead, so it costs its own words.
    Full rows keep take(): the opaque gather costs 4-5 us more per call and
    1.2-4x as much per chunk there (a root-ordered chunk's rows, min of 15:
    er200 8,192 rows 17 -> 69 us, WV@0.18 1,638 rows 18 -> 22 us, WV@1.0
    292 rows 18 -> 24 us, LJ@1.0 139 rows 9.9 -> 11.7 us).
    """
    if w1 - w0 == table.shape[1]:
        return table.take(vertices, axis=0)
    window = np.ndarray(
        table.shape[:1], np.dtype((np.void, 8 * (w1 - w0))), table,
        8 * w0, table.strides[:1],
    )
    return window[vertices].view(table.dtype).reshape(-1, w1 - w0)


def row_spans(
    graph: CSRGraph,
    keys: np.ndarray,
    vertices: np.ndarray,
    upper: np.ndarray | None = None,
    lower: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """CSR span ``[lo, hi)`` of each row's values in ``(lower, upper)``.

    Rows are sorted, so a per-row bound is a *rank*: one binary search in
    ``keys`` (this graph's :func:`edge_keys`) replaces a compare against
    every gathered neighbour.  ``upper``/``lower`` hold one exclusive bound
    per vertex (None = unbounded); any integer is accepted and an empty
    interval yields ``lo == hi``.
    """
    lo = graph.indptr[vertices]
    hi = lo + graph.degrees[vertices]
    # int64 keys: an int32 vertex times n wraps from n = 46341 on
    base = np.multiply(vertices, np.int64(graph.num_vertices), dtype=np.int64)
    if upper is not None:
        np.minimum(hi, np.searchsorted(keys, base + upper), out=hi)
    if lower is not None:
        np.maximum(
            lo, np.searchsorted(keys, base + lower, side="right"), out=lo
        )
    return lo, np.maximum(hi, lo, out=hi)


def gather_rows(
    graph: CSRGraph,
    vertices: np.ndarray,
    lo: np.ndarray | None = None,
    hi: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the neighbour rows of ``vertices`` in one gather.

    Returns ``(values, owner)`` where ``values`` is the concatenation of
    ``graph.neighbors(vertices[i])`` for each ``i`` in order and
    ``owner[j]`` is the index ``i`` whose row produced ``values[j]``.
    This is the grouped neighbour gather every frontier expansion starts
    from.  With ``lo``/``hi`` (from :func:`row_spans`) only that span of
    each row is gathered: the neighbours a bound discards never materialise.
    """
    if lo is None:
        return graph.gather_rows(np.asarray(vertices))
    return gather_spans(graph.indices, lo, hi)
