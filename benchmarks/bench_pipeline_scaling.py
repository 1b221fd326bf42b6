"""Extension X3 — pipeline throughput: partition-parallel coarsening.

The Dask-substitute executor maps the 10-second coarsening over archive
shards stored in the partition layout (node-major, time-ascending — exactly
how the paper's parquet files are laid out).  Variants, all producing
bit-identical output from the same on-disk dataset:

* ``single-pass``  — the pre-optimization reference: read everything into
  one table, generic factorize+argsort group-by kernel, one thread;
* ``serial``       — the same generic kernel mapped shard-by-shard;
* ``sorted``       — the run-length sorted-path kernel (auto-probed), one
  thread: no factorize, no argsort, no gather;
* ``threads x4``   — sorted kernel fanned out on the thread pool;
* ``processes x4`` — sorted kernel on the process pool; shards and results
  cross via ``multiprocessing.shared_memory`` instead of the pipe;
* ``fused x4``     — ``Pipeline.telemetry_series``: telemetry -> cluster
  series with read+coarsen+aggregate as one query-plan task per shard on
  the process pool: workers read their own shard and only the tiny
  per-window series crosses back.

Every variant's output is asserted **bit-identical** to the single-pass
baseline's; the kernel microbenchmark below the main table does the same on
one day of 100-node telemetry (the paper-scale unit the ISSUE anchors to).

Process-backend overhead note (profiled on the reference 1-core CI box):
the fixed costs are small — forking a 4-worker pool costs ~20 ms and the
shared-memory transport ~30 ms for all 8 shards — so nearly all of the
processes-vs-threads gap is *oversubscription*: four forked workers
time-slicing one core while the GIL-releasing numpy kernels would already
saturate it from a single thread, plus copy-on-write faults as each worker
touches the forked parent heap.  That cost is intrinsic to the box, not a
transport regression, so instead of "fixing" it the bench pins the ratio:
``t_procs <= PROC_OVERHEAD_BUDGET * t_threads`` (golden ratio ~2.2x).  A
silent transport regression — say, results falling off the shm path onto
the pickle pipe — would blow the budget and fail the anchor.
"""

import time

import numpy as np

from benchutil import (SCALE, TRACE_OVERHEAD_BUDGET, anchor, emit,
                       trace_overhead_pct)
from repro.core.aggregate import cluster_power_series
from repro.core.coarsen import coarsen_telemetry
from repro.core.report import render_table
from repro.frame.table import Table, concat
from repro.frame.window import window_aggregate
from repro.obs import trace
from repro.parallel import Executor, PartitionedDataset, grouped_aggregate, map_partitions
from repro.pipeline import Pipeline, PipelineConfig

# Regression budget for the process backend relative to threads on the same
# workload (see the overhead note in the module docstring).  The golden run
# sits near 2.2x; the slack covers scheduler jitter, not a slower transport.
PROC_OVERHEAD_BUDGET = 2.5


def _coarsen_shard(table: Table) -> Table:
    return coarsen_telemetry(table, ["input_power"], width=10.0)


def _coarsen_shard_generic(table: Table) -> Table:
    return coarsen_telemetry(table, ["input_power"], width=10.0, presorted=False)


def build_dataset(twin_day, tmp_dir, n_shards=8):
    """Write ``n_shards`` archive shards that cleanly partition the window
    grid: collector-delay spillover past each span is clipped so every
    (node, window) pair lives in exactly one shard."""
    ds = PartitionedDataset.create(tmp_dir / "telemetry", "telemetry-1hz")
    span = max(900.0, 10_800.0 * SCALE)  # full scale: 8 x 3 h = one day
    for i in range(n_shards):
        t0 = i * span
        arr = twin_day.builder.build(t0, t0 + span, 1.0)
        tel = twin_day.sampler().sample(arr)
        t = tel["timestamp"]
        tel = tel.filter((t >= t0) & (t < t0 + span))
        # archive layout: node-major, per-node time ascending
        ds.append(tel.sort(["node", "timestamp"]), t0, t0 + span)
    return ds, span


def _assert_tables_identical(a, b, label):
    assert a.columns == b.columns, label
    assert a.n_rows == b.n_rows, label
    for c in a.columns:
        assert a[c].dtype == b[c].dtype, (label, c)
        assert np.array_equal(a[c], b[c]), (label, c)


def _kernel_comparison():
    """Sorted vs generic windowed group-by on 1 day x 100 nodes of 1 Hz
    archive-sorted telemetry (scaled by REPRO_BENCH_SCALE)."""
    n_nodes = 100
    n_t = max(3600, int(86_400 * SCALE))
    rng = np.random.default_rng(7)
    tel = Table({
        "node": np.repeat(np.arange(n_nodes, dtype=np.int64), n_t),
        "timestamp": np.tile(np.arange(n_t, dtype=np.float64), n_nodes),
        "input_power": rng.normal(2200.0, 150.0, n_nodes * n_t),
    })
    kw = dict(time="timestamp", width=10.0, values=["input_power"], by=["node"])

    t0 = time.perf_counter()
    generic = window_aggregate(tel, presorted=False, **kw)
    t_generic = time.perf_counter() - t0
    t0 = time.perf_counter()
    fast = window_aggregate(tel, presorted=True, **kw)
    t_sorted = time.perf_counter() - t0
    _assert_tables_identical(generic, fast, "kernel")
    return tel.n_rows, generic.n_rows, t_generic, t_sorted


def test_pipeline_scaling(benchmark, twin_day, tmp_path):
    ds, _ = build_dataset(twin_day, tmp_path)

    # pre-optimization reference: one read, one generic-kernel pass
    t0 = time.perf_counter()
    full = ds.to_table()
    coarse_single = coarsen_telemetry(full, ["input_power"], width=10.0,
                                      presorted=False)
    series_single = cluster_power_series(coarse_single)
    t_single = time.perf_counter() - t0

    def run(executor, fn=_coarsen_shard):
        t0 = time.perf_counter()
        out = map_partitions(ds, fn, executor)
        return out, time.perf_counter() - t0

    span_calls0 = trace.disabled_span_calls()
    out_serial, t_serial = run(Executor(backend="serial"),
                               _coarsen_shard_generic)
    out_sorted, t_sorted = run(Executor(backend="serial"))
    out_threads, _ = benchmark.pedantic(
        lambda: run(Executor(backend="threads", max_workers=4)),
        rounds=1, iterations=1,
    )
    t_threads = benchmark.stats["mean"]
    out_procs, t_procs = run(Executor(backend="processes", max_workers=4))

    # identical results regardless of kernel route or execution backend ...
    for out, label in ((out_sorted, "sorted"), (out_threads, "threads"),
                       (out_procs, "processes")):
        assert len(out) == len(out_serial)
        for a, b in zip(out_serial, out):
            _assert_tables_identical(a, b, label)
    # ... and the stitched shards reproduce the single pass bit-for-bit
    _assert_tables_identical(concat(out_serial).sort(["node", "timestamp"]),
                             coarse_single.sort(["node", "timestamp"]),
                             "chunked vs single-pass")

    # telemetry -> cluster series, one task per shard, from the same dataset
    pipe_fused = Pipeline(twin_day, PipelineConfig(backend="processes",
                                                   max_workers=4))
    t0 = time.perf_counter()
    series_fused = pipe_fused.telemetry_series(ds)
    t_fused = time.perf_counter() - t0
    _assert_tables_identical(series_fused, series_single, "fused")

    # tracing-disabled overhead over the instrumented hot path: every
    # span() the executor/pipeline took above was the no-op fast path;
    # charge each at its measured per-call cost against the phase wall
    hot_wall = t_serial + t_sorted + t_threads + t_procs + t_fused
    span_calls = trace.disabled_span_calls() - span_calls0
    overhead_pct = trace_overhead_pct(span_calls, hot_wall)

    # distributed group-by over the same shards
    agg = grouped_aggregate(ds, ["node"], "input_power",
                            Executor(backend="threads", max_workers=4))

    k_rows_in, k_rows_out, k_generic, k_sorted = _kernel_comparison()

    coarse_rows = sum(t.n_rows for t in out_serial)
    main = render_table(
        ["variant", "shards", "rows in", "rows out", "seconds"],
        [
            ["single-pass", 1, ds.n_rows, series_single.n_rows,
             f"{t_single:.3f}"],
            ["serial", ds.n_partitions, ds.n_rows, coarse_rows,
             f"{t_serial:.3f}"],
            ["sorted", ds.n_partitions, ds.n_rows, coarse_rows,
             f"{t_sorted:.3f}"],
            ["threads x4", ds.n_partitions, ds.n_rows, coarse_rows,
             f"{t_threads:.3f}"],
            ["processes x4", ds.n_partitions, ds.n_rows, coarse_rows,
             f"{t_procs:.3f}"],
            ["fused x4", ds.n_partitions, ds.n_rows,
             series_fused.n_rows, f"{t_fused:.3f}"],
        ],
        title="X3: partition-parallel 10 s coarsening of 1 Hz telemetry",
    )
    kernel = render_table(
        ["kernel", "rows in", "rows out", "seconds"],
        [
            ["generic", k_rows_in, k_rows_out, f"{k_generic:.3f}"],
            ["sorted-path", k_rows_in, k_rows_out, f"{k_sorted:.3f}"],
        ],
        title=f"window_aggregate kernels, 1 day x 100 nodes (scale {SCALE:g})",
    )
    proc_ratio = t_procs / t_threads
    emit("pipeline_scaling",
         main
         + "\nall variants bit-identical: yes"
         + f"\nprocesses/threads ratio: {proc_ratio:.2f}x"
         f" (budget {PROC_OVERHEAD_BUDGET:.1f}x)"
         + f"\ntracing-disabled overhead: {overhead_pct:.4f}% of hot path"
         f" over {span_calls} span calls (budget"
         f" {TRACE_OVERHEAD_BUDGET * 100:.0f}%)\n\n"
         + kernel)

    # the distributed aggregate covers every node
    assert agg.n_rows == twin_day.config.n_nodes
    # threads should not be drastically slower than serial (GIL released);
    # speedups depend on the box, so only guard against pathology
    assert t_threads < 2.0 * t_serial
    # pin the process-backend overhead (docstring note): the fixed costs
    # are tens of ms, so only a transport regression can blow this budget
    anchor(t_procs <= PROC_OVERHEAD_BUDGET * t_threads,
           f"process-backend overhead ratio {proc_ratio:.2f}x exceeds "
           f"budget {PROC_OVERHEAD_BUDGET:.1f}x "
           f"({t_procs:.3f}s vs {t_threads:.3f}s threads)")
    # ISSUE X3 anchors (hard at full scale, advisory below it): the sorted
    # kernel halves the generic one on the paper-scale unit, and the fused
    # process pipeline halves the single-pass serial reference end to end
    anchor(k_sorted * 2.0 <= k_generic,
           f"sorted kernel >= 2x generic ({k_generic:.3f}s vs {k_sorted:.3f}s)")
    anchor(t_sorted < t_serial,
           f"sorted coarsen beats generic on shards "
           f"({t_serial:.3f}s vs {t_sorted:.3f}s)")
    anchor(t_fused * 2.0 <= t_single,
           f"fused processes x4 >= 2x single-pass serial "
           f"({t_single:.3f}s vs {t_fused:.3f}s)")
    # tracing-disabled must stay free — hard at every scale (the no-op
    # span cost does not shrink with REPRO_BENCH_SCALE)
    assert overhead_pct < TRACE_OVERHEAD_BUDGET * 100, (
        f"tracing-disabled overhead {overhead_pct:.4f}% of the hot path "
        f"exceeds the {TRACE_OVERHEAD_BUDGET:.0%} budget "
        f"({span_calls} span calls over {hot_wall:.3f}s)")
