"""Reference trace painter: one interpreted iteration per allocation.

:meth:`~repro.workload.traces.ClusterTraceBuilder.build` paints batched
kernels over (extent, profile kind) groups with cached per-allocation
noise.  :func:`paint_loop` is the painter it replaced: it walks the active
allocations one by one, redraws each allocation's node noise on every
call, and paints it with the production per-allocation kernel
:func:`~repro.workload.traces.allocation_component_power`.  The batteries
in ``tests/workload/test_event_core.py`` compare its arrays with
``build``'s bit for bit; ``benchmarks/bench_sched_scale.py`` co-times the
two.
"""

from __future__ import annotations

import numpy as np

from repro.workload.traces import (
    ClusterTraceBuilder,
    TraceArrays,
    allocation_component_power,
    node_noise,
)


def paint_loop(
    builder: ClusterTraceBuilder,
    t0: float,
    t1: float,
    dt: float,
    per_gpu: bool = False,
    track_alloc: bool = False,
) -> TraceArrays:
    """``builder.build(t0, t1, dt, per_gpu, track_alloc)``, one allocation
    at a time."""
    times, cpu_w, gpu_w, gpu_detail, alloc_of = builder._idle_arrays(
        t0, t1, dt, per_gpu, track_alloc
    )
    catalog = builder.catalog
    active = builder.active_allocations(t0, t1)
    for aid, begin, end in zip(
        active["allocation_id"].tolist(),
        active["begin_time"].tolist(),
        active["end_time"].tolist(),
    ):
        nodes = builder.schedule.nodes_of(aid)
        if len(nodes) == 0:
            continue
        i0 = int(np.searchsorted(times, begin, side="left"))
        i1 = int(np.searchsorted(times, end, side="left"))
        if i1 <= i0:
            continue
        row = catalog.row_of_allocation(aid)
        c_w, g_w = allocation_component_power(
            builder.node_model,
            catalog.profile(row),
            nodes,
            int(catalog.table["gpus_used"][row]),
            node_noise(builder.seed, aid, len(nodes)),
            times[i0:i1] - begin,
            end - begin,
        )
        cpu_w[nodes, i0:i1] = c_w.sum(axis=1)
        gpu_w[nodes, i0:i1] = g_w.sum(axis=1)
        if gpu_detail is not None:
            gpu_detail[nodes, :, i0:i1] = g_w
        if alloc_of is not None:
            alloc_of[nodes, i0:i1] = aid
    return builder._traces(times, cpu_w, gpu_w, gpu_detail, alloc_of)
