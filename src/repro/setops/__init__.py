"""Exact functional/cycle models of the set-operation hardware pipelines."""

from .bitonic import OrderAwarePipeline, bitonic_merge_segment, min_stage
from .bulk import (
    bulk_adjacency,
    bulk_adjacency_bits,
    bulk_membership,
    edge_keys,
    gather_rows,
    packed_adjacency,
)
from .merge_queue import MergeQueuePipeline
from .reference import (
    difference_sorted,
    intersect_count,
    intersect_sorted,
    merge_comparison_count,
)
from .systolic import SystolicMergeArray
from .trace import FLAG_L, FLAG_R, INF_KEY, Element, SetOpTrace

__all__ = [
    "FLAG_L",
    "FLAG_R",
    "INF_KEY",
    "Element",
    "MergeQueuePipeline",
    "OrderAwarePipeline",
    "SetOpTrace",
    "SystolicMergeArray",
    "bitonic_merge_segment",
    "bulk_adjacency",
    "bulk_adjacency_bits",
    "bulk_membership",
    "difference_sorted",
    "edge_keys",
    "gather_rows",
    "intersect_count",
    "intersect_sorted",
    "merge_comparison_count",
    "min_stage",
    "packed_adjacency",
]
