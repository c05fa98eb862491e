"""Graph substrate: CSR storage, shared-memory store, BitmapCSR, datasets."""

from .algorithms import neighborhood
from .bitmapcsr import (
    VALID_WIDTHS,
    count_vertices,
    decode,
    difference_words,
    encode,
    encoded_length,
    intersect_words,
)
from .csr import CSRGraph, edges_to_csr
from .datasets import DATASETS, DatasetSpec, dataset_table, load_dataset
from .generators import (
    configuration_model,
    erdos_renyi,
    powerlaw_degree_sequence,
    powerlaw_graph,
)
from .io import load_edge_list, save_edge_list
from .stats import GraphStats, degree_skewness, graph_stats
from .store import (
    AttachedGraph,
    GraphSegment,
    SharedGraphRef,
    attach_graph,
    share_graph,
)

__all__ = [
    "VALID_WIDTHS",
    "AttachedGraph",
    "GraphSegment",
    "SharedGraphRef",
    "attach_graph",
    "share_graph",
    "CSRGraph",
    "DATASETS",
    "DatasetSpec",
    "GraphStats",
    "configuration_model",
    "count_vertices",
    "dataset_table",
    "decode",
    "degree_skewness",
    "difference_words",
    "edges_to_csr",
    "encode",
    "encoded_length",
    "erdos_renyi",
    "graph_stats",
    "intersect_words",
    "load_dataset",
    "load_edge_list",
    "neighborhood",
    "powerlaw_degree_sequence",
    "powerlaw_graph",
    "save_edge_list",
]
