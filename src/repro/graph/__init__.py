"""Graph substrate: CSR storage, shared-memory store, BitmapCSR, datasets."""

from .algorithms import (
    connected_components,
    core_numbers,
    degeneracy,
    degeneracy_order,
    global_clustering,
    k_core,
    largest_component,
    neighborhood,
    relabeled_by_degeneracy,
)
from .bitmapcsr import (
    VALID_WIDTHS,
    BitmapSet,
    count_vertices,
    decode,
    difference_words,
    encode,
    encoded_length,
    intersect_words,
)
from .csr import CSRGraph, edges_to_csr
from .datasets import DATASETS, DatasetSpec, dataset_names, dataset_table, load_dataset
from .generators import (
    barabasi_albert,
    configuration_model,
    erdos_renyi,
    powerlaw_degree_sequence,
    powerlaw_graph,
)
from .interop import from_networkx, to_networkx
from .io import load_edge_list, save_edge_list
from .stats import GraphStats, degree_skewness, graph_stats
from .store import (
    AttachedGraph,
    GraphSegment,
    SharedGraphRef,
    attach_graph,
    share_graph,
    shm_available,
)

__all__ = [
    "VALID_WIDTHS",
    "AttachedGraph",
    "GraphSegment",
    "SharedGraphRef",
    "attach_graph",
    "share_graph",
    "shm_available",
    "connected_components",
    "core_numbers",
    "degeneracy",
    "degeneracy_order",
    "global_clustering",
    "k_core",
    "largest_component",
    "relabeled_by_degeneracy",
    "BitmapSet",
    "CSRGraph",
    "DATASETS",
    "DatasetSpec",
    "GraphStats",
    "barabasi_albert",
    "configuration_model",
    "count_vertices",
    "dataset_names",
    "dataset_table",
    "decode",
    "degree_skewness",
    "difference_words",
    "edges_to_csr",
    "encode",
    "encoded_length",
    "erdos_renyi",
    "from_networkx",
    "graph_stats",
    "intersect_words",
    "load_dataset",
    "load_edge_list",
    "neighborhood",
    "powerlaw_degree_sequence",
    "powerlaw_graph",
    "save_edge_list",
    "to_networkx",
]
