"""`repro.cluster`: distributed sharded query execution.

The cluster layer scales single-node matching out horizontally: a
:class:`Coordinator` — the cluster's one scheduler — cuts each
registered CSR graph into contiguous vertex-range shards (owned range +
a replicated halo), ships one induced subgraph to each
:class:`ShardWorker`, and answers a query by scattering root-restricted
subqueries, which each shard runs with
:func:`~repro.service.worker.run_job`, and merging the per-shard
reports.  Transports are pluggable (:mod:`repro.cluster.comm`): the
deterministic in-process transport for tests, TCP for real distribution.

Quickstart::

    from repro.cluster import LocalCluster
    from repro import PATTERNS, load_dataset

    with LocalCluster(num_shards=4) as cluster:
        gid = cluster.coordinator.register_graph(
            load_dataset("WV", scale=0.1))
        print(cluster.coordinator.count(gid, PATTERNS["3CF"]))
"""

from .comm import available_transports, get_transport
from .coordinator import ClusterHealth, Coordinator, LocalCluster
from .merge import merge_replies, merge_reports
from .partition import (
    ShardSpec,
    contiguous_cuts,
    halo_vertices,
    induced_subgraph,
    make_shards,
)
from .worker import ShardWorker

__all__ = [
    "ClusterHealth",
    "Coordinator",
    "LocalCluster",
    "ShardSpec",
    "ShardWorker",
    "available_transports",
    "contiguous_cuts",
    "get_transport",
    "halo_vertices",
    "induced_subgraph",
    "make_shards",
    "merge_replies",
    "merge_reports",
]
