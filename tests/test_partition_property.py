"""Property tests: a shard slice is exactly the induced subgraph it stands for.

``make_shards`` takes two routes to a slice.  A shard whose halo holds
every vertex reuses the input graph's arrays (compacting ``arange(n)`` is
the identity); every other shard goes through
:meth:`CSRGraph.induced_subgraph`.  Either way the slice must equal,
field for field, the induced subgraph built the plain way: local IDs by
``np.searchsorted`` over the sorted kept set, the default
``base_address``, labels following their vertices.  The halo itself must
equal a plain-Python BFS ball, and so must :func:`neighborhood`.

Near-complete graphs drive the whole-graph route; paths and stars keep
their halos partial.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import make_shards
from repro.graph import CSRGraph
from repro.graph.algorithms import neighborhood
from repro.graph.csr import edges_to_csr

#: an address no default-built slice has, so a copied one would show
INPUT_BASE_ADDRESS = 0x2000_0000
DEFAULT_BASE_ADDRESS = CSRGraph.base_address


def _edges(kind: str, n: int, rng: np.random.Generator) -> list:
    if kind == "path":
        return [(i, i + 1) for i in range(n - 1)]
    if kind == "star":
        return [(0, i) for i in range(1, n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if kind == "near-complete":
        drop = min(len(pairs), int(rng.integers(0, 4)))
        gone = set(rng.choice(len(pairs), size=drop, replace=False).tolist())
        return [p for i, p in enumerate(pairs) if i not in gone]
    keep = rng.random(len(pairs)) < rng.uniform(0.02, 0.3)
    return [p for p, k in zip(pairs, keep) if k]


@st.composite
def graphs(draw) -> CSRGraph:
    kind = draw(st.sampled_from(["random", "near-complete", "path", "star"]))
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    indptr, indices = edges_to_csr(n, _edges(kind, n, rng))
    labels = rng.integers(0, 3, n) if draw(st.booleans()) else None
    return CSRGraph(
        indptr, indices, name=f"{kind}{n}",
        base_address=INPUT_BASE_ADDRESS, labels=labels,
    )


def bfs_ball(graph: CSRGraph, seeds, hops: int) -> list[int]:
    seen = {int(s) for s in seeds}
    frontier = sorted(seen)
    for _ in range(hops):
        reached = []
        for u in frontier:
            for w in graph.neighbors(u):
                if int(w) not in seen:
                    seen.add(int(w))
                    reached.append(int(w))
        frontier = reached
    return sorted(seen)


def reference_slice(
    graph: CSRGraph, vertices: np.ndarray, name: str
) -> CSRGraph:
    """The induced subgraph, row by row, local IDs by ``searchsorted``."""
    kept = set(vertices.tolist())
    rows = [
        [int(np.searchsorted(vertices, w)) for w in graph.neighbors(v)
         if int(w) in kept]
        for v in vertices
    ]
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(r) for r in rows], dtype=np.int64)
    return CSRGraph(
        indptr=indptr,
        indices=np.array([w for r in rows for w in r], dtype=np.int32),
        name=name,
        labels=None if graph.labels is None else graph.labels[vertices],
    )


def assert_same_graph(got: CSRGraph, want: CSRGraph) -> None:
    for field in ("indptr", "indices"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    if want.labels is None:
        assert got.labels is None
    else:
        assert got.labels.dtype == want.labels.dtype
        assert got.labels.tobytes() == want.labels.tobytes()
    assert got.name == want.name
    assert got.base_address == want.base_address == DEFAULT_BASE_ADDRESS


@settings(max_examples=150, deadline=None)
@given(
    graph=graphs(),
    num_shards=st.integers(1, 7),
    halo_hops=st.integers(1, 4),
)
def test_shard_slices_are_the_induced_subgraphs(graph, num_shards, halo_hops):
    specs = make_shards(graph, num_shards, halo_hops)
    assert len(specs) == num_shards
    for spec in specs:
        ball = bfs_ball(graph, range(spec.lo, spec.hi), halo_hops)
        assert spec.vertices.tolist() == ball
        owned = np.arange(spec.lo, spec.hi, dtype=np.int64)
        assert neighborhood(graph, owned, halo_hops).tolist() == ball
        assert_same_graph(
            spec.graph,
            reference_slice(
                graph, spec.vertices, f"{graph.name}:shard{spec.index}"
            ),
        )
        assert spec.local_lo == int(np.searchsorted(spec.vertices, spec.lo))
        assert spec.local_hi == int(np.searchsorted(spec.vertices, spec.hi))


@settings(max_examples=100, deadline=None)
@given(graph=graphs(), data=st.data(), hops=st.integers(0, 4))
def test_neighborhood_and_induced_subgraph_on_any_seeds(graph, data, hops):
    """The incremental matcher's route: a ball around an arbitrary (here
    unsorted, repeating) seed list, then its induced subgraph."""
    ids = st.integers(0, graph.num_vertices - 1)
    seeds = data.draw(st.lists(ids, max_size=6))
    ball = neighborhood(graph, np.array(seeds, dtype=np.int64), hops)
    assert ball.tolist() == bfs_ball(graph, seeds, hops)
    picked = data.draw(st.lists(ids, max_size=2 * graph.num_vertices))
    want = reference_slice(graph, np.unique(np.array(picked, np.int64)), "b")
    assert_same_graph(graph.induced_subgraph(picked, name="b"), want)


def test_both_slice_routes_are_exercised():
    """Near-complete graphs share the input's arrays; paths copy."""
    rng = np.random.default_rng(0)
    dense = CSRGraph(*edges_to_csr(40, _edges("near-complete", 40, rng)))
    for spec in make_shards(dense, 4, 2):
        assert spec.vertices.size == dense.num_vertices
        assert np.shares_memory(spec.graph.indices, dense.indices)
    path = CSRGraph(*edges_to_csr(40, _edges("path", 40, rng)))
    for spec in make_shards(path, 4, 2):
        assert spec.vertices.size < path.num_vertices
        assert not np.shares_memory(spec.graph.indices, path.indices)
