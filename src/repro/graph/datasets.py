"""Registry of the paper's evaluation datasets (Table 3) as synthetic stand-ins.

The paper evaluates on seven real-world graphs from SNAP/GraMi.  This offline
reproduction cannot download them, so each is replaced by a deterministic
synthetic graph generated to match its published statistics: average degree
(= m/n, the paper's convention), degree skew, and the presence/absence of an
extreme hub.  The four large graphs (MI, YT, PA, LJ) are additionally scaled
down so that full end-to-end simulations finish in seconds rather than the
1500 CPU-core-hours the paper's artifact budget lists; the scale factor for
each is recorded in its spec and in EXPERIMENTS.md.

What this substitution preserves (and why it is enough): every performance
phenomenon the paper attributes to a dataset is a function of the matched
statistics — degree skew drives task-tree irregularity (the barrier-free
scheduler's advantage), average degree drives set lengths (the order-aware
SIU's advantage), and working-set size relative to cache drives the memory
behaviour.  Absolute embedding counts differ from the real graphs; speedup
*ratios* between architectures on the same stand-in are the quantity compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .csr import CSRGraph
from .generators import powerlaw_graph
from .stats import GraphStats, graph_stats

__all__ = ["DatasetSpec", "DATASETS", "load_dataset", "dataset_table"]


@dataclass(frozen=True)
class DatasetSpec:
    """Generation recipe for one Table-3 stand-in."""

    key: str          # short code used throughout the paper (PP, WV, ...)
    full_name: str    # dataset name as printed in Table 3
    num_vertices: int  # stand-in size (post scaling)
    avg_degree: float  # target m/n, from Table 3
    max_degree: int    # stand-in hub degree (scaled with the graph)
    triangle_boost: float  # wedge-closure fraction ≈ clustering level
    seed: int
    paper_vertices: float  # published size, for the reproduction report
    paper_edges: float
    paper_skew: float
    scale_note: str = "full size"


# Stand-in sizes keep the small graphs at full scale and shrink the large
# ones; max degrees are scaled to preserve hub-to-size ratio / skew ordering.
DATASETS: dict[str, DatasetSpec] = {
    spec.key: spec
    for spec in [
        DatasetSpec("PP", "p2p-Gnutella04", 10_876, 3.68, 103, 0.05, 11,
                    1.09e4, 4.00e4, 2.15),
        DatasetSpec("WV", "WikiVote", 7_115, 14.57, 1_065, 0.30, 12,
                    7.12e3, 1.04e5, 5.14),
        DatasetSpec("AS", "AstroPh", 9_000, 10.55, 360, 0.50, 13,
                    1.88e4, 1.98e5, 3.85, "scaled 2x"),
        DatasetSpec("MI", "MiCo", 8_000, 11.18, 420, 0.30, 14,
                    9.66e4, 1.08e6, 8.48, "scaled 12x"),
        DatasetSpec("YT", "Youtube", 15_000, 2.63, 2_200, 0.10, 15,
                    1.13e6, 2.99e6, 232.0, "scaled 75x"),
        DatasetSpec("PA", "Patents", 15_000, 4.38, 240, 0.10, 16,
                    3.77e6, 1.65e7, 6.75, "scaled 250x"),
        DatasetSpec("LJ", "LiveJournal", 15_000, 14.23, 1_800, 0.30, 17,
                    4.85e6, 6.90e7, 30.9, "scaled 320x"),
    ]
}


@lru_cache(maxsize=32)
def load_dataset(key: str, scale: float = 1.0) -> CSRGraph:
    """Generate (and cache) the stand-in for dataset ``key``.

    ``scale`` < 1 shrinks the vertex count proportionally (hub degree scales
    with it) — the parameter sweeps in Figures 16–19 use smaller instances to
    keep total bench time low.  Graphs are degree-descending relabelled, the
    standard GPM preprocessing step all compared systems apply.
    """
    spec = DATASETS[key.upper()]
    n = max(int(spec.num_vertices * scale), 64)
    max_deg = max(int(spec.max_degree * scale), 8)
    max_deg = min(max_deg, n - 1)
    # avg_degree is m/n; the generator targets mean degree 2m/n.
    # triangle_boost adds ~0.8*boost*m extra closure edges; compensate so the
    # realised m/n still tracks Table 3's Avg Deg column.
    mean_degree = 2.0 * spec.avg_degree / (1.0 + 0.8 * spec.triangle_boost)
    g = powerlaw_graph(
        num_vertices=n,
        avg_degree=min(mean_degree, max_deg),
        max_degree=max_deg,
        seed=spec.seed,
        name=spec.key,
        triangle_boost=spec.triangle_boost,
    )
    g = g.relabeled_by_degree()
    g.name = spec.key
    return g


def dataset_table(scale: float = 1.0) -> list[GraphStats]:
    """Statistics of all stand-ins, in Table-3 row order."""
    return [graph_stats(load_dataset(key, scale)) for key in DATASETS]
