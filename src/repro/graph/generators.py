"""Synthetic graph generators.

The paper evaluates on seven real-world SNAP/GraMi graphs.  Those files are
not redistributable inside this offline reproduction, so
:mod:`repro.graph.datasets` builds deterministic synthetic stand-ins with the
generators below, tuned to match each dataset's published statistics
(Table 3): vertex/edge counts, average degree, maximum degree and degree
skew.  The generators are all implemented from scratch on NumPy; the only
randomness source is an explicit seed, so every dataset is reproducible
bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphFormatError
from .csr import CSRGraph

__all__ = [
    "erdos_renyi",
    "powerlaw_degree_sequence",
    "configuration_model",
    "powerlaw_graph",
]


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


def erdos_renyi(
    num_vertices: int, avg_degree: float, seed: int = 0, name: str = "er"
) -> CSRGraph:
    """Uniform random graph with the requested expected average degree."""
    if num_vertices < 2:
        return CSRGraph.empty(max(num_vertices, 0), name=name)
    rng = _rng(seed)
    target_edges = int(round(num_vertices * avg_degree / 2))
    # Oversample to survive dedup / self-loop removal.
    k = int(target_edges * 1.2) + 16
    u = rng.integers(0, num_vertices, size=k, dtype=np.int64)
    v = rng.integers(0, num_vertices, size=k, dtype=np.int64)
    mask = u != v
    edges = np.stack([u[mask], v[mask]], axis=1)[:target_edges]
    return CSRGraph.from_edges(num_vertices, edges, name=name)


def powerlaw_degree_sequence(
    num_vertices: int,
    avg_degree: float,
    max_degree: int,
    seed: int = 0,
) -> np.ndarray:
    """Degree sequence with a truncated power-law tail and a chosen mean.

    The exponent of ``p(k) ∝ k^-alpha`` on ``[1, max_degree]`` is found by
    bisection so the distribution mean equals ``avg_degree``; the largest
    sampled entry is then pinned to ``max_degree`` so the hub the paper's
    datasets rely on (e.g. Youtube's 28754-degree vertex) is present.
    """
    if max_degree < 1:
        raise GraphFormatError("max_degree must be >= 1")
    if not (1.0 <= avg_degree <= max_degree):
        raise GraphFormatError("avg_degree must lie in [1, max_degree]")
    ks = np.arange(1, max_degree + 1, dtype=np.float64)

    def mean_for(alpha: float) -> float:
        w = ks**-alpha
        return float((ks * w).sum() / w.sum())

    lo, hi = 0.01, 6.0  # mean is decreasing in alpha on this range
    if avg_degree >= mean_for(lo):
        alpha = lo
    elif avg_degree <= mean_for(hi):
        alpha = hi
    else:
        for _ in range(60):
            mid = (lo + hi) / 2
            if mean_for(mid) > avg_degree:
                lo = mid
            else:
                hi = mid
        alpha = (lo + hi) / 2
    w = ks**-alpha
    p = w / w.sum()
    rng = _rng(seed)
    deg = rng.choice(ks.astype(np.int64), size=num_vertices, p=p)
    deg[int(np.argmax(deg))] = max_degree
    if deg.sum() % 2:  # configuration model needs an even stub count
        deg[int(np.argmin(deg))] += 1
    return deg.astype(np.int64)


def configuration_model(
    degrees: np.ndarray, seed: int = 0, name: str = "config"
) -> CSRGraph:
    """Simple-graph configuration model: pair stubs, drop loops/multi-edges.

    The realised degrees are therefore slightly below the prescribed ones for
    heavy-tailed sequences, matching standard practice.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    if degrees.sum() % 2:
        raise GraphFormatError("degree sequence must have an even sum")
    rng = _rng(seed)
    stubs = np.repeat(np.arange(degrees.size, dtype=np.int64), degrees)
    rng.shuffle(stubs)
    pairs = stubs.reshape(-1, 2)
    mask = pairs[:, 0] != pairs[:, 1]
    return CSRGraph.from_edges(degrees.size, pairs[mask], name=name)


def powerlaw_graph(
    num_vertices: int,
    avg_degree: float,
    max_degree: int,
    seed: int = 0,
    name: str = "powerlaw",
    triangle_boost: float = 0.0,
) -> CSRGraph:
    """Power-law graph with tuned mean/max degree.

    ``triangle_boost`` in [0, 1] optionally closes that fraction of open
    wedges around random vertices, raising clustering the way real social
    graphs do — clique-heavy patterns (4CF/5CF) need non-trivial triangle
    density to exercise deep search trees.
    """
    deg = powerlaw_degree_sequence(num_vertices, avg_degree, max_degree, seed)
    g = configuration_model(deg, seed=seed + 1, name=name)
    if triangle_boost <= 0.0:
        return g
    rng = _rng(seed + 2)
    extra: list[tuple[int, int]] = []
    n_close = int(triangle_boost * g.num_edges)
    candidates = rng.integers(0, num_vertices, size=n_close * 2)
    for v in candidates:
        row = g.neighbors(int(v))
        if row.size < 2:
            continue
        i, j = rng.integers(0, row.size, size=2)
        if i != j:
            extra.append((int(row[i]), int(row[j])))
        if len(extra) >= n_close:
            break
    if not extra:
        return g
    # the CSR rows already are an edge array (both directions; from_edges
    # symmetrises and deduplicates anyway)
    src = np.repeat(np.arange(num_vertices), g.degrees)
    all_edges = np.concatenate([np.stack([src, g.indices], axis=1), extra])
    return CSRGraph.from_edges(num_vertices, all_edges, name=name)
