"""Streaming a schedule into time-partitioned on-disk shards.

Multi-year, multi-million-job co-simulations cannot hold every downstream
artifact in memory, and downstream consumers (trace synthesis, telemetry
replay, the query service) want the allocation history the same way they
want telemetry: as a :class:`~repro.parallel.partition.PartitionedDataset`
whose manifest zone maps prune time queries before any shard is read.

:func:`schedule_to_partitioned` shards a
:class:`~repro.workload.scheduler.ScheduleResult` by allocation *begin
time*.  An allocation lives in exactly one shard (the one containing its
``begin_time``); a consumer scanning window ``[t0, t1)`` therefore reads
the shards overlapping ``[t0 - max_duration, t1)`` — the same widening an
:class:`~repro.workload.traces.AllocationIntervalIndex` applies in memory
— and the manifest records ``max_duration`` so readers don't have to
guess.  :func:`read_active_allocations` implements that probe.
"""

from __future__ import annotations

import json

import numpy as np

from repro.frame.table import Table, concat
from repro.parallel.partition import PartitionedDataset
from repro.workload.scheduler import ScheduleResult

_SIDECAR = "schedule.json"


def schedule_to_partitioned(
    schedule: ScheduleResult,
    root,
    shard_s: float,
    name: str = "schedule",
    include_nodes: bool = True,
) -> PartitionedDataset:
    """Write ``schedule`` into a :class:`PartitionedDataset` under ``root``.

    Shards cover ``shard_s``-second spans of begin time; allocations are
    assigned to the shard containing their ``begin_time`` and stay sorted
    by it inside each shard (so the ``begin_time`` zone maps are sorted
    and time probes binary-search).  With ``include_nodes`` each shard
    also carries the per-(job, node) rows of its allocations, joined into
    one long table (``row_kind`` 0 = allocation, 1 = node row).

    A ``schedule.json`` sidecar records ``max_duration_s`` plus drop
    counts, which :func:`read_active_allocations` uses to widen probes.
    """
    if shard_s <= 0:
        raise ValueError("need shard_s > 0")
    al = schedule.allocations

    order = np.argsort(al["begin_time"], kind="stable")
    begin = al["begin_time"][order]

    ds = PartitionedDataset.create(root, name)
    if al.n_rows:
        t_lo = float(begin[0])
        t_hi = float(begin[-1])
        first = np.floor(t_lo / shard_s) * shard_s
        n_shards = int(np.floor((t_hi - first) / shard_s)) + 1
        # both edges from the same expression: w1 of shard s must equal
        # w0 of shard s+1 bit-for-bit or the dataset rejects the overlap
        for s in range(n_shards):
            w0 = first + s * shard_s
            w1 = first + (s + 1) * shard_s
            lo = int(np.searchsorted(begin, w0, side="left"))
            hi = int(np.searchsorted(begin, w1, side="left"))
            if hi <= lo:
                continue
            rows = order[lo:hi]
            shard = al.take(rows)
            if include_nodes:
                shard = _with_node_rows(shard, schedule)
            ds.append(shard, w0, w1)

    durations = al["end_time"] - al["begin_time"] if al.n_rows else np.empty(0)
    sidecar = {
        "max_duration_s": float(durations.max()) if len(durations) else 0.0,
        "n_allocations": int(al.n_rows),
        "n_dropped": int(len(schedule.dropped)),
        "includes_node_rows": bool(include_nodes),
    }
    (ds.root / _SIDECAR).write_text(json.dumps(sidecar))
    return ds


def _with_node_rows(shard: Table, schedule: ScheduleResult) -> Table:
    """Append one row per (allocation, node) below the allocation rows."""
    node_lists = [schedule.nodes_of(a) for a in shard["allocation_id"]]
    counts = np.array([len(nl) for nl in node_lists], dtype=np.int64)
    rep = np.repeat(np.arange(shard.n_rows), counts)
    node_part = Table(
        {
            name: (
                np.concatenate(node_lists)
                if name == "node"
                else shard[name][rep]
            )
            for name in (*shard.columns, "node")
        }
    )
    alloc_part = shard.with_column("node", np.full(shard.n_rows, -1, np.int64))
    both = concat([alloc_part, node_part])
    kind = np.concatenate(
        [
            np.zeros(shard.n_rows, dtype=np.int64),
            np.ones(node_part.n_rows, dtype=np.int64),
        ]
    )
    return both.with_column("row_kind", kind)


def read_schedule_sidecar(ds: PartitionedDataset) -> dict:
    """The ``schedule.json`` metadata written by :func:`schedule_to_partitioned`."""
    return json.loads((ds.root / _SIDECAR).read_text())


def read_active_allocations(
    ds: PartitionedDataset, t0: float, t1: float
) -> Table:
    """Allocation rows overlapping ``[t0, t1)`` from a schedule dataset.

    Probes shards for begin times in ``[t0 - max_duration, t1)`` (zone-map
    pruned), then filters exactly — the on-disk analogue of
    :meth:`AllocationIntervalIndex.active_rows`, returning rows in
    ascending begin-time order.
    """
    meta = read_schedule_sidecar(ds)
    lo = t0 - meta["max_duration_s"]
    tables = []
    for i in ds.select_where("begin_time", lo, t1):
        shard = ds.read(i)
        if "row_kind" in shard:
            shard = shard.filter(shard["row_kind"] == 0)
        mask = (shard["begin_time"] < t1) & (shard["end_time"] > t0)
        if mask.any():
            tables.append(shard.filter(mask))
    if not tables:
        first = ds.read(0) if ds.n_partitions else None
        cols = (
            {n: first[n][:0] for n in first.columns}
            if first is not None
            else {}
        )
        return Table(cols)
    return concat(tables)
