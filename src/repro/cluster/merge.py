"""Gather-side report merging: shard reports → one cluster report.

Counts (embeddings, tasks, set ops, comparisons, words, DRAM traffic,
cache hits/misses) are *work* and sum across shards.  Cycles and wall
time are *makespan* and take the maximum — the shards ran in parallel,
so the cluster is as slow as its slowest shard.  Utilisation-bearing
fields (``siu_busy_cycles``, ``num_sius``) sum, which keeps the derived
``siu_utilization`` a system-wide mean over every SIU in the cluster.

Replication adds an *exactly-once* obligation the plain fold cannot
see: with replica groups, two workers legitimately hold the **same**
owned root range, so a bug that let two replicas' answers for one shard
through would double-count every embedding rooted in that range —
silently, since the merged total still "looks like a number".
:func:`merge_replies` is the guard: it refuses duplicate or overlapping
ranges with a typed :class:`~repro.errors.ClusterError`, right before
the fold.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import ClusterError
from ..sim.report import SimReport

__all__ = ["merge_reports", "merge_replies"]

#: one range-tagged shard answer: ((lo, hi) owned root range, report)
Reply = tuple[tuple[int, int], SimReport]

#: fields that add up (work done somewhere is work done)
_SUM_FIELDS = (
    "embeddings",
    "tasks",
    "set_ops",
    "comparisons",
    "words_in",
    "words_out",
    "siu_busy_cycles",
    "num_sius",
    "private_hits",
    "private_misses",
    "shared_hits",
    "shared_misses",
    "dram_bytes",
)

#: fields where the cluster is as slow/deep as its worst shard
_MAX_FIELDS = (
    "cycles",
    "host_cycles",
    "wall_seconds",
    "peak_active_task_sets",
)


def merge_reports(
    reports: Sequence[SimReport],
    graph_name: str = "",
    pattern_name: str = "",
) -> SimReport:
    """Fold per-shard reports into one cluster-level :class:`SimReport`."""
    if not reports:
        raise ClusterError("cannot merge zero shard reports")
    merged = SimReport(
        config_name=reports[0].config_name,
        graph_name=graph_name or reports[0].graph_name,
        pattern_name=pattern_name or reports[0].pattern_name,
        frequency_ghz=reports[0].frequency_ghz,
        num_sius=0,  # accumulator start (the dataclass default is 1)
    )
    for report in reports:
        for name in _SUM_FIELDS:
            setattr(merged, name, getattr(merged, name) + getattr(report, name))
        for name in _MAX_FIELDS:
            setattr(merged, name, max(getattr(merged, name), getattr(report, name)))
        merged.per_pe_busy.extend(report.per_pe_busy)
    return merged


def merge_replies(
    replies: Sequence[Reply],
    graph_name: str = "",
    pattern_name: str = "",
) -> SimReport:
    """Exactly-once fold of range-tagged replies into one report.

    Raises :class:`~repro.errors.ClusterError` if any owned root range
    appears twice or two ranges overlap — either would double-count
    embeddings rooted in the shared vertices, which is precisely the
    corruption replica failover must never introduce.
    """
    if not replies:
        raise ClusterError("cannot merge zero shard replies")
    ranges: list[tuple[int, int]] = []
    for rng, _ in replies:
        lo, hi = int(rng[0]), int(rng[1])
        if hi < lo:
            raise ClusterError(f"malformed root range [{lo}, {hi})")
        ranges.append((lo, hi))
    seen: set[tuple[int, int]] = set()
    for rng in ranges:
        if rng in seen:
            raise ClusterError(
                f"root range [{rng[0]}, {rng[1]}) answered twice — "
                f"refusing to double-count"
            )
        seen.add(rng)
    ordered = sorted(ranges)
    for (lo, hi), (next_lo, next_hi) in zip(ordered, ordered[1:]):
        if next_lo < hi:
            raise ClusterError(
                f"root ranges [{lo}, {hi}) and [{next_lo}, {next_hi}) "
                f"overlap — shards would double-count embeddings "
                f"rooted in [{next_lo}, {min(hi, next_hi)})"
            )
    return merge_reports(
        [report for _, report in replies],
        graph_name=graph_name,
        pattern_name=pattern_name,
    )
