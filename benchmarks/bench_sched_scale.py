"""Extension X6 — event-driven co-simulation at scale.

The paper's datasets span a year of Summit operation (~840k jobs on 4608
nodes); ROADMAP item 2 asks for a co-simulation core that makes
multi-year, multi-million-job what-if studies interactive.  This bench
drives both rebuilt hot paths against their straight-line seed
implementations:

* **Scheduler**: a burst-quantized 95%-load catalog (submits land in
  17-day waves, so the pending queue holds tens of thousands of jobs at
  any machine size — the regime where the seed's per-event
  ``pending.sort()`` and per-blocked-job ``sorted(running)`` walks go
  superlinear).  Reference and event engines are co-timed and the full
  ``ScheduleResult`` compared bit-for-bit wherever the reference is
  feasible; beyond ``REF_CEILING`` jobs only the event engine runs and
  the baseline keeps its best *measured* jobs/s (its throughput only
  degrades with size, so the printed speedup is a lower bound).
* **Trace synthesis**: a class-5 fleet (many small jobs, the
  per-allocation-interpretation worst case) painted over five simulated
  days; the seed-faithful loop painter (per-window noise redraws, one
  Python iteration per active allocation) against the batched kernel
  path, bit-identity asserted on every array.

Both seed implementations are the test oracles in ``tests/oracles/``
(importable as ``tests.oracles`` with the repo root on ``sys.path``, as
under ``python -m pytest``).
* **Partitioned feed**: the largest schedule is streamed into a
  time-sharded ``PartitionedDataset`` and probed back, cross-checked
  against the in-memory interval index — the hand-off that lets the
  `.rcs` pipeline consume multi-year allocation histories.

Timing ratios are asserted via ``anchor`` (full scale only); the
operation-count invariants below are hard asserts at every scale and are
what the CI smoke step gates on.
"""

import tempfile
import time

import numpy as np

from benchutil import SCALE, anchor, emit
from repro.core.report import render_table
from repro.workload import (
    AllocationIntervalIndex,
    ClusterTraceBuilder,
    JobCatalog,
    Scheduler,
    read_active_allocations,
    schedule_to_partitioned,
    synthetic_catalog,
)
from tests.oracles.scheduler import ReferenceScheduler
from tests.oracles.traces import paint_loop

#: catalog sizes; the last is the paper-scale multi-year point
POINTS = (20_000, 100_000, 1_000_000)
#: largest point where the seed scheduler is co-timed (its cost grows
#: superlinearly with backlog: measured 46 s at 50k, 292 s at 100k jobs)
REF_CEILING = 150_000
#: machine utilization of the synthetic load — just under critical, so
#: every job eventually starts and the backlog stays scale-invariant
UTILIZATION = 0.95
#: submit-time quantum: all submits within a wave land at its start
BURST_S = 1.5e6


def burst_catalog(n_jobs: int, seed: int) -> tuple[JobCatalog, float]:
    """A 95%-load catalog whose submits arrive in ``BURST_S`` waves.

    The horizon is derived from the demand itself (``node-seconds /
    (capacity * UTILIZATION)``), so the backlog regime — tens of
    thousands of pending jobs at every burst edge — is the same at 20k
    and at 1M jobs, and the schedule always starts every job.
    """
    probe = synthetic_catalog(n_jobs=n_jobs, horizon_s=1.0, seed=seed)
    t = probe.table
    demand = float((t["node_count"] * t["walltime_s"]).sum())
    horizon = demand / (probe.config.n_nodes * UTILIZATION)
    cat = synthetic_catalog(n_jobs=n_jobs, horizon_s=horizon, seed=seed)
    sub = np.floor(cat.table["submit_time"] / BURST_S) * BURST_S
    return JobCatalog(cat.table.with_column("submit_time", sub),
                      cat.config), horizon


def schedules_identical(a, b) -> bool:
    for name in a.allocations.columns:
        if not np.array_equal(a.allocations[name], b.allocations[name]):
            return False
    for name in a.node_allocations.columns:
        if not np.array_equal(a.node_allocations[name],
                              b.node_allocations[name]):
            return False
    if not np.array_equal(a.dropped, b.dropped):
        return False
    for name in a.dropped_by_class.columns:
        if not np.array_equal(a.dropped_by_class[name],
                              b.dropped_by_class[name]):
            return False
    return True


def assert_op_counts(stats: dict, n_jobs: int, result) -> None:
    """Engine-internal bookkeeping invariants — the CI smoke gates
    (hard asserts at every scale; no timing involved)."""
    assert stats["n_events"] == (
        stats["n_submits"] + stats["n_completion_batches"]
    )
    assert stats["n_submits"] == n_jobs
    assert stats["n_started"] == result.allocations.n_rows
    assert stats["n_started"] + len(result.dropped) == n_jobs
    assert stats["max_pending"] > 0
    assert stats["n_queue_scans"] >= 1
    assert stats["n_shadow_walks"] <= stats["n_queue_scans"]
    assert int(result.dropped_by_class["n_dropped"].sum()) == len(
        result.dropped
    )


def run_scheduler_sweep():
    sizes = []
    for base in POINTS:
        n = max(2_000, int(base * SCALE))
        if n not in sizes:
            sizes.append(n)
    rows = []
    ident_all = True
    ref_jobs_per_s = None  # best measured seed throughput so far
    last = {}
    for n in sizes:
        cat, horizon = burst_catalog(n, seed=3)
        ev = Scheduler(cat.config, seed=0)
        t0 = time.perf_counter()
        ev_res = ev.run(cat, horizon * 1.1)
        ev_t = time.perf_counter() - t0
        st = ev.last_run_stats
        assert_op_counts(st, n, ev_res)

        if n <= REF_CEILING:
            ref = ReferenceScheduler(cat.config, seed=0)
            t0 = time.perf_counter()
            ref_res = ref.run(cat, horizon * 1.1)
            ref_t = time.perf_counter() - t0
            assert_op_counts(ref.last_run_stats, n, ref_res)
            ident = schedules_identical(ref_res, ev_res)
            ident_all = ident_all and ident
            ref_jobs_per_s = st["n_started"] / ref_t
            ref_cell = f"{ref_t:.2f}"
            ident_cell = str(ident)
        else:
            # seed path infeasible here; its jobs/s only falls with n,
            # so carrying the last measured figure flatters the baseline
            ref_cell = "(carried)"
            ident_cell = "(property tests)"
        last = {
            "n": n,
            "horizon_s": horizon,
            "ev_t": ev_t,
            "jobs_per_s": st["n_started"] / ev_t,
            "events_per_s": st["n_events"] / ev_t,
            "ref_jobs_per_s": ref_jobs_per_s,
            "result": ev_res,
        }
        rows.append([
            n, f"{horizon / 86_400.0:.0f}", ref_cell, f"{ev_t:.2f}",
            f"{st['n_started'] / ev_t:,.0f}", f"{st['n_events'] / ev_t:,.0f}",
            st["max_pending"], st["n_scans_skipped"], ident_cell,
        ])
    return rows, last, ident_all


def run_trace_comparison():
    """Class-5 fleet over five days: seed-faithful loop vs batch painter."""
    n = max(1_500, int(40_000 * SCALE))
    cat = synthetic_catalog(
        n_jobs=n, horizon_s=5 * 86_400.0, seed=7,
        class_weights=(0.0, 0.0, 0.0, 0.0, 1.0),
    )
    sched = Scheduler(cat.config, seed=0).run(cat, 6 * 86_400.0)

    # short windows at fine dt: few samples per active allocation, the
    # regime where the seed loop's per-allocation overhead dominates
    window_s, dt, n_windows = 120.0, 5.0, 12
    start = 86_400.0
    windows = [(start + i * window_s, start + (i + 1) * window_s)
               for i in range(n_windows)]

    # the loop oracle redraws noise per window, as the seed painter did;
    # it never touches the builder's noise cache
    builder = ClusterTraceBuilder(cat, sched, seed=0)
    sched.nodes_of(-1)  # build the shared node index outside both timings

    t0 = time.perf_counter()
    loop_out = [paint_loop(builder, w0, w1, dt) for w0, w1 in windows]
    loop_t = time.perf_counter() - t0
    t0 = time.perf_counter()
    batch_out = [builder.build(w0, w1, dt) for w0, w1 in windows]
    batch_t = time.perf_counter() - t0

    ident = all(
        np.array_equal(a.node_input_w, b.node_input_w)
        and np.array_equal(a.node_cpu_w, b.node_cpu_w)
        and np.array_equal(a.node_gpu_w, b.node_gpu_w)
        for a, b in zip(loop_out, batch_out)
    )

    al = sched.allocations
    b, e = al["begin_time"], al["end_time"]
    k = al["node_count"].astype(np.float64)
    node_s = 0.0
    for w0, w1 in windows:
        ov = np.clip(np.minimum(e, w1) - np.maximum(b, w0), 0.0, None)
        node_s += float((ov * k).sum())
    return {
        "n_jobs": n,
        "loop_t": loop_t,
        "batch_t": batch_t,
        "node_s": node_s,
        "ident": ident,
    }


def run_feed_roundtrip(result, horizon_s):
    """Stream the schedule to a PartitionedDataset; probe it back and
    cross-check against the in-memory interval index."""
    al = result.allocations
    index = AllocationIntervalIndex(al)
    begin, end = al["begin_time"], al["end_time"]
    with tempfile.TemporaryDirectory(prefix="sched-feed-") as root:
        shard_s = max(horizon_s / 16.0, 86_400.0)
        ds = schedule_to_partitioned(result, root, shard_s,
                                     include_nodes=False)
        n_shards = ds.n_partitions
        probes_ok = True
        for frac in (0.15, 0.5, 0.85):
            t0 = frac * horizon_s
            t1 = t0 + 6 * 3_600.0
            got = np.sort(read_active_allocations(ds, t0, t1)
                          ["allocation_id"])
            rows = index.active_rows(t0, t1)
            live = rows[(begin[rows] < t1) & (end[rows] > t0)]
            want = np.sort(al["allocation_id"][live])
            probes_ok = probes_ok and np.array_equal(got, want)
    return n_shards, probes_ok


def test_cosim_scale(benchmark):
    (rows, last, ident_all), trace = benchmark.pedantic(
        lambda: (run_scheduler_sweep(), run_trace_comparison()),
        rounds=1, iterations=1,
    )
    # the largest schedule is the multi-year one — that's the feed demo
    n_alloc = last["result"].allocations.n_rows
    n_shards, probes_ok = run_feed_roundtrip(
        last["result"], last["horizon_s"] * 1.1
    )

    jobs_ratio = last["jobs_per_s"] / last["ref_jobs_per_s"]
    trace_ratio = trace["loop_t"] / trace["batch_t"]
    table = render_table(
        ["jobs", "sim days", "ref (s)", "event (s)", "jobs/s", "events/s",
         "max pending", "scans skipped", "identical"],
        rows,
        title="X6: event-driven co-simulation at scale",
    )
    lines = [
        table,
        "",
        f"largest point: {last['n']:,} jobs over "
        f"{last['horizon_s'] / (365 * 86_400.0):.1f} simulated years",
        "schedule bit-identical at all co-timed points: "
        f"{ident_all}",
        f"jobs/s speedup at largest point: {jobs_ratio:.1f}x (floor 5x)",
        "",
        f"trace fleet: {trace['n_jobs']:,} class-5 jobs, "
        f"{trace['node_s'] / 1e6:.1f}M node-seconds painted "
        f"(loop {trace['loop_t']:.2f} s, batch {trace['batch_t']:.2f} s)",
        f"trace arrays bit-identical: {trace['ident']}",
        f"trace node-seconds/s speedup: {trace_ratio:.1f}x (floor 3x)",
        "",
        f"partitioned feed: {n_alloc:,} allocations -> {n_shards} shards",
        f"partitioned feed probes match interval index: {probes_ok}",
    ]
    emit("sched_scale", "\n".join(lines))

    assert ident_all
    assert trace["ident"]
    assert probes_ok
    anchor(jobs_ratio >= 5.0,
           "event core >=5x seed jobs/s at the million-job point")
    anchor(trace_ratio >= 3.0,
           "batched trace synthesis >=3x seed node-seconds/s")
