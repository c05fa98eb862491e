"""Cluster-wide tracing plumbing: one job's span tree over the comm layer.

The service stitches worker-*process* spans back under the job span via
:meth:`~repro.obs.tracing.Tracer.ingest`; a sharded query also crosses a
*comm* boundary (inproc or tcp frames).  A traced ``query`` frame says
only ``"trace": True``: the shard runs the job normally and
:func:`collect_job_spans` extracts exactly that job's span tree (the
``service.job`` root whose ``job_id`` matches, plus every descendant)
for a :class:`~repro.cluster.worker.ShardWorker` to ship home in the
reply envelope.  The coordinator re-parents the batch under its scatter
span and re-anchors it onto that span's timeline, so every shard
renders in coordinator time — no id or clock crosses the wire.
"""

from __future__ import annotations

from typing import Sequence

from .tracing import Span

__all__ = ["collect_job_spans"]

#: span name of the service-side job root (the shard-tree anchor)
JOB_ROOT_SPAN = "service.job"


def collect_job_spans(
    spans: Sequence[Span], job_id: int | str
) -> list[Span]:
    """Extract one job's span tree from a service tracer's history.

    Roots are ``service.job`` spans whose ``job_id`` attribute matches;
    every span reachable from a root through parent links is included,
    in the original (finish-order) sequence.  Spans belonging to other
    jobs — a busy shard interleaves many — are left behind.
    """
    by_id = {sp.span_id: sp for sp in spans}
    roots = {
        sp.span_id
        for sp in spans
        if sp.name == JOB_ROOT_SPAN and sp.attrs.get("job_id") == job_id
    }
    if not roots:
        return []
    out: list[Span] = []
    membership: dict[int, bool] = {}

    def belongs(span_id: int) -> bool:
        seen: list[int] = []
        cur: int | None = span_id
        result = False
        while cur is not None:
            if cur in membership:
                result = membership[cur]
                break
            if cur in roots:
                result = True
                break
            seen.append(cur)
            parent = by_id.get(cur)
            cur = parent.parent_id if parent is not None else None
        for sid in seen:
            membership[sid] = result
        return result

    for sp in spans:
        if belongs(sp.span_id):
            out.append(sp)
    return out
