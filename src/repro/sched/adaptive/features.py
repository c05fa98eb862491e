"""Feature extraction for the cost predictor.

A query's cost is a function of *what the graph looks like* (Table-3
statistics from :mod:`repro.graph.stats`) and *what the plan does*
(levels, stop level, set operations, symmetry bounds, labelledness).
Both sides are extracted into one frozen :class:`QueryFeatures` record
keyed by ``(graph fingerprint, canonical pattern key)`` — the same key
vocabulary the result cache uses, so two submissions of isomorphic
patterns against the same graph snapshot share one feature vector.

Determinism and relabeling invariance are load-bearing: the plan-side
features are derived from a plan built on the *canonical* pattern
reconstructed from :func:`~repro.service.cache.pattern_cache_key`
output, never from the caller's pattern object.  The matching-order
heuristic breaks ties by vertex index, so two isomorphic patterns can
compile to superficially different plans — going through the canonical
form guarantees ``extract features ∘ relabel == extract features``
(property-tested in ``tests/test_predictor_features.py``).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from ...graph.stats import GraphStats, graph_stats
from ...patterns.pattern import Pattern
from ...patterns.plan import build_plan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...graph.csr import CSRGraph

__all__ = [
    "PlanFeatures",
    "QueryFeatures",
    "analytic_work",
    "plan_features",
    "query_features",
]

#: graph-stat entries memoised per fingerprint (stats are O(n) to compute)
_GRAPH_STATS_LIMIT = 128

_graph_stats_cache: "OrderedDict[str, GraphStats]" = OrderedDict()
_graph_stats_lock = threading.Lock()


@dataclass(frozen=True)
class PlanFeatures:
    """Isomorphism-invariant summary of one canonical matching plan."""

    depth: int
    stop_level: int
    num_set_ops: int
    num_difference_ops: int
    num_restrictions: int
    num_bounds: int
    labelled: bool
    induced: bool
    collection: str


@dataclass(frozen=True)
class QueryFeatures:
    """One query's cost-model inputs: graph side × plan side."""

    fingerprint: str
    pattern_key: tuple
    # -- graph side (Table-3 statistics of the registered snapshot) --------
    num_vertices: int
    num_edges: int
    avg_degree: float
    max_degree: int
    skew: float
    # -- plan side (canonical, relabeling-invariant) -----------------------
    depth: int
    stop_level: int
    num_set_ops: int
    num_difference_ops: int
    num_restrictions: int
    num_bounds: int
    labelled: bool
    induced: bool
    collection: str

    def key(self) -> tuple:
        """The predictor's exact-match training key."""
        return (self.fingerprint, self.pattern_key)


@lru_cache(maxsize=512)
def plan_features(pattern_key: tuple) -> PlanFeatures:
    """Plan-side features from a canonical pattern cache key.

    The key is ``pattern_cache_key`` output: ``(num_vertices, edges,
    labels, induced)`` with edges/labels in lexicographically minimal
    form.  Rebuilding the pattern from it and compiling a fresh plan
    makes every derived number a pure function of the isomorphism class.
    """
    num_vertices, edges, labels, induced = pattern_key
    pattern = Pattern(
        name="canonical",
        num_vertices=int(num_vertices),
        edge_list=tuple(edges),
        labels=tuple(labels) if labels is not None else None,
    )
    plan = build_plan(pattern, induced=bool(induced))
    set_ops = sum(lv.num_set_ops for lv in plan.levels)
    diff_ops = sum(lv.num_difference_ops for lv in plan.levels)
    bounds = sum(
        len(lv.upper_bounds) + len(lv.lower_bounds) for lv in plan.levels
    )
    return PlanFeatures(
        depth=plan.depth,
        stop_level=plan.stop_level,
        num_set_ops=set_ops,
        num_difference_ops=diff_ops,
        num_restrictions=len(plan.restrictions),
        num_bounds=bounds,
        labelled=pattern.labels is not None,
        induced=plan.induced,
        collection=plan.collection,
    )


def _stats_for(graph: "CSRGraph", fingerprint: str) -> GraphStats:
    with _graph_stats_lock:
        stats = _graph_stats_cache.get(fingerprint)
        if stats is not None:
            _graph_stats_cache.move_to_end(fingerprint)
            return stats
    stats = graph_stats(graph)
    with _graph_stats_lock:
        _graph_stats_cache[fingerprint] = stats
        while len(_graph_stats_cache) > _GRAPH_STATS_LIMIT:
            _graph_stats_cache.popitem(last=False)
    return stats


def query_features(
    graph: "CSRGraph", fingerprint: str, pattern_key: tuple
) -> QueryFeatures:
    """The full feature vector for one ``(graph snapshot, pattern)`` query."""
    stats = _stats_for(graph, fingerprint)
    pf = plan_features(pattern_key)
    return QueryFeatures(
        fingerprint=fingerprint,
        pattern_key=pattern_key,
        num_vertices=stats.num_vertices,
        num_edges=stats.num_edges,
        avg_degree=stats.avg_degree,
        max_degree=stats.max_degree,
        skew=stats.skew,
        depth=pf.depth,
        stop_level=pf.stop_level,
        num_set_ops=pf.num_set_ops,
        num_difference_ops=pf.num_difference_ops,
        num_restrictions=pf.num_restrictions,
        num_bounds=pf.num_bounds,
        labelled=pf.labelled,
        induced=pf.induced,
        collection=pf.collection,
    )


def analytic_work(features: QueryFeatures) -> float:
    """Model-based work proxy (abstract units) for an unseen query shape.

    A deliberately coarse branching-process estimate: each executed level
    multiplies the frontier by the average degree, symmetry bounds prune
    (each roughly halves the bounded frontier), every extra set operation
    adds a merge pass, and set differences keep large complements live
    (the CYC/TT blow-up the paper's Table 5 shows).  The output only has
    to *rank* queries and stay monotone in the knobs that matter — the
    per-engine throughput calibration in the predictor turns it into
    seconds.
    """
    branch = max(features.avg_degree, 1.0)
    work = float(max(features.num_vertices, 1))
    for _ in range(max(features.stop_level, 1) - 1):
        work = min(work * branch, 1e18)
    work *= 0.6 ** min(features.num_bounds, 8)
    work *= 1.0 + 0.25 * features.num_set_ops
    work *= 1.0 + 0.5 * features.num_difference_ops
    if features.labelled:
        work *= 0.5
    return max(min(work, 1e18), 1.0)
