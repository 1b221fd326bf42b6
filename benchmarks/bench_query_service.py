"""Extension — the query service under load: cold fan-out with fragment
reuse, warm cache leverage, tail latency, and explicit overload behavior.

A twin's raw telemetry is archived as a partitioned ``.rcs`` store and
served by an in-process :class:`~repro.serve.server.QueryService` (the
same engine ``python -m repro serve`` wraps in TCP; measuring in-process
keeps the numbers about the service, not the loopback stack).  Four
measured phases:

* **cold waves** — distinct width-aligned sliding-window queries driven
  in waves of ``c`` concurrent clients, result *and* fragment caches
  cleared before every wave.  At ``c=1`` every query pays its full
  per-shard cost; at ``c=8`` the eight overlapping windows of a wave
  share per-shard fragments (leader computes, the rest await the flight
  or hit the cache), so throughput must scale even on one core;
* **warm** — one identical query repeated by every client against a hot
  result cache: the single-flight + LRU path the "N dashboards, one hot
  store" workload lives on;
* **overlap sweep** — a sequential sweep of sliding aligned windows
  through a fragment-enabled service (caches cleared once up front) vs
  the identical sweep through a ``fragment_cache=False`` service.  The
  enabled side computes each shard fragment once and answers the rest
  by aligned slicing; every per-query answer is asserted bit-identical
  across the two services.

Deterministic phases (pinned exactly in the golden):

* **single-flight** — 12 identical concurrent cold queries must execute
  exactly once;
* **overload** — a 1-slot/1-queue service offered 16 queries by 8
  two-query tenants (quota 1) must answer every request immediately:
  2 ok (1 of them queued), 2 quota rejections, 12 capacity rejections.
  Admission decisions happen synchronously on the event loop, so the
  split is exact, not statistical.

Anchored acceptance bars (hard at full scale, advisory below):

* cold wave throughput at concurrency 8  >=  **3x** concurrency 1
  (fragment sharing, not parallelism — holds on a single core);
* the overlap sweep with fragments  >=  **5x** the sweep without, with
  every answer bit-identical;
* warm identical-query throughput at concurrency 8  >=  **5x** the cold
  single-client throughput;
* the service's full-range answer is **bit-identical** to the
  single-pass batch kernels (``cluster_power_series(coarsen_telemetry(
  ...))``) over everything the archive holds;
* overload rejections are explicit (the exact counts above) — rejected
  beats hung.
"""

import asyncio
import time

import numpy as np

from benchutil import (SCALE, TRACE_OVERHEAD_BUDGET, anchor, emit,
                       trace_overhead_pct)
from repro.core.aggregate import cluster_power_series
from repro.core.coarsen import coarsen_telemetry
from repro.core.report import render_table
from repro.obs import trace
from repro.datasets import SimulationSpec, simulate_twin
from repro.datasets.store import write_partitioned_series
from repro.serve import Query, QueryService, ServiceConfig

SPEC = SimulationSpec(
    n_nodes=36,
    n_jobs=max(40, int(400 * SCALE)),
    horizon_s=max(1800.0, 3600.0 * SCALE),
    seed=205,
)
SHARD_S = 300.0
WIDTH = 10.0
CONCURRENCY = (1, 4, 8)
COLD_QUERIES = max(16, int(48 * SCALE))   # distinct windows per cold phase
WARM_QUERIES = max(64, int(256 * SCALE))  # identical queries per warm phase
SWEEP_QUERIES = max(16, int(32 * SCALE))  # sliding windows per sweep side
STRIDE = 30.0                             # window stride (multiple of WIDTH)
FLIGHT_BURST = 12                         # identical concurrent (pinned)
WARM_FLOOR = 5.0
COLD_WAVE_FLOOR = 3.0
SWEEP_FLOOR = 5.0

# window length: width-aligned, fits COLD_QUERIES strides inside the
# horizon at every scale
WINDOW_S = min(1800.0, SPEC.horizon_s / 2.0) // WIDTH * WIDTH


def build_dataset(root):
    twin = simulate_twin(SPEC)
    arrays = twin.builder.build(0.0, SPEC.horizon_s, 1.0)
    telemetry = twin.sampler().sample(arrays)
    return write_partitioned_series(telemetry, root, "telemetry",
                                    day_s=SHARD_S)


def sliding_queries(n: int, offset: float) -> list[Query]:
    """``n`` width-aligned sliding cluster windows, ``STRIDE`` apart."""
    return [
        Query(t_begin=offset + i * STRIDE,
              t_end=offset + i * STRIDE + WINDOW_S,
              width=WIDTH)
        for i in range(n)
    ]


def fragment_reuse(resp) -> tuple[int, int]:
    frag = resp.get("fragments") or {}
    return (frag.get("hits", 0) + frag.get("shared", 0),
            frag.get("misses", 0))


async def cold_waves(service, queries, concurrency):
    """Drive ``queries`` through waves of ``concurrency`` concurrent
    clients, clearing both cache tiers before every wave.

    Returns (wall seconds, per-query latencies, fragments reused).
    """
    latencies: list[float] = []
    reused = 0
    wall = 0.0
    for w in range(0, len(queries), concurrency):
        service.cache.clear()
        service.fragments.clear()
        wave = queries[w:w + concurrency]
        t0 = time.perf_counter()
        results = await asyncio.gather(*(service.query(q) for q in wave))
        wall += time.perf_counter() - t0
        for resp in results:
            assert resp["status"] == "ok", resp
            latencies.append(resp["elapsed_s"])
            reused += fragment_reuse(resp)[0]
    return wall, latencies, reused


async def warm_load(service, query, concurrency):
    """Repeat one identical query against a primed result cache."""
    latencies: list[float] = []
    hits = 0
    await service.query(query)  # prime outside the clock

    async def client(n):
        nonlocal hits
        for _ in range(n):
            resp = await service.query(query)
            assert resp["status"] == "ok", resp
            latencies.append(resp["elapsed_s"])
            if resp["cache"] == "hit":
                hits += 1

    share = WARM_QUERIES // concurrency
    t0 = time.perf_counter()
    await asyncio.gather(*(client(share) for _ in range(concurrency)))
    return time.perf_counter() - t0, latencies, hits


async def sweep(service):
    rows = []
    qps = {}
    cold_set = sliding_queries(COLD_QUERIES, 0.0)
    warm_query = Query(t_begin=0.0, t_end=SPEC.horizon_s, width=WIDTH)
    for conc in CONCURRENCY:
        wall, lat, reused = await cold_waves(service, cold_set, conc)
        qps["cold", conc] = len(cold_set) / wall
        rows.append([
            "cold", conc, len(cold_set),
            f"{qps['cold', conc]:.0f}",
            f"{np.percentile(lat, 50) * 1e3:.2f}",
            f"{np.percentile(lat, 99) * 1e3:.2f}",
            f"{reused / len(cold_set):.1f}",
        ])
    for conc in CONCURRENCY:
        wall, lat, hits = await warm_load(service, warm_query, conc)
        n = (WARM_QUERIES // conc) * conc
        qps["warm", conc] = n / wall
        rows.append([
            "warm", conc, n,
            f"{qps['warm', conc]:.0f}",
            f"{np.percentile(lat, 50) * 1e3:.2f}",
            f"{np.percentile(lat, 99) * 1e3:.2f}",
            f"{hits / n:.2f}",
        ])
    return rows, qps


async def overlap_sweep(service_on, service_off):
    """Identical sliding-window sweep with and without the fragment
    cache; answers must match bit-for-bit, query by query."""
    queries = sliding_queries(SWEEP_QUERIES, 40.0)
    walls = {}
    tables = {}
    reused = computed = 0
    for name, svc in (("off", service_off), ("on", service_on)):
        svc.cache.clear()
        svc.fragments.clear()
        out = []
        t0 = time.perf_counter()
        for q in queries:
            resp = await svc.query(q)
            assert resp["status"] == "ok", resp
            out.append(resp["table"])
            if name == "on":
                r, c = fragment_reuse(resp)
                reused += r
                computed += c
        walls[name] = time.perf_counter() - t0
        tables[name] = out
    identical = all(a == b for a, b in zip(tables["on"], tables["off"]))
    return walls["off"] / walls["on"], identical, reused, computed


async def flight_phase(service):
    """12 identical concurrent cold queries -> exactly one execution."""
    service.cache.clear()
    executed_before = service.stats.executed
    q = Query(t_begin=0.0, t_end=SPEC.horizon_s / 2.0, width=WIDTH)
    results = await asyncio.gather(
        *(service.query(q, tenant=f"dash{i}") for i in range(FLIGHT_BURST))
    )
    assert all(r["status"] == "ok" for r in results)
    return service.stats.executed - executed_before


async def overload_phase(dataset):
    """8 tenants x 2 distinct queries against a 1-slot/1-queue service."""
    service = QueryService(dataset, ServiceConfig(
        max_inflight=1, max_queue=1, tenant_inflight=1, workers=1,
    ))
    try:
        tasks = []
        k = 0
        for tenant in range(8):
            for _ in range(2):
                q = Query(t_begin=0.0, t_end=900.0, width=WIDTH + k)
                tasks.append(service.query(q, tenant=f"tenant{tenant}"))
                k += 1
        results = await asyncio.gather(*tasks)
        ok = sum(r["status"] == "ok" for r in results)
        queued = sum(r["status"] == "ok" and r["queued_s"] > 0
                     for r in results)
        adm = service.admission
        return ok, queued, adm.rejected_capacity, adm.rejected_quota
    finally:
        service.close()


def test_query_service(tmp_path):
    dataset = build_dataset(tmp_path)
    service = QueryService(dataset, ServiceConfig(
        max_inflight=8, max_queue=32, tenant_inflight=32, workers=4,
    ))
    service_off = QueryService(dataset, ServiceConfig(
        max_inflight=8, max_queue=32, tenant_inflight=32, workers=4,
        fragment_cache=False,
    ))

    async def main():
        rows, qps = await sweep(service)
        sweep_ratio, sweep_identical, reused, computed = \
            await overlap_sweep(service, service_off)
        executed = await flight_phase(service)
        # bit-identity: the service's answer vs the batch pipeline's
        full = await service.query(
            Query(t_begin=0.0, t_end=SPEC.horizon_s, width=WIDTH)
        )
        overload = await overload_phase(dataset)
        return (rows, qps, sweep_ratio, sweep_identical, reused, computed,
                executed, full, overload)

    try:
        span_calls0 = trace.disabled_span_calls()
        t0 = time.perf_counter()
        (rows, qps, sweep_ratio, sweep_identical, reused, computed,
         executed, full, overload) = asyncio.run(main())
        hot_wall = time.perf_counter() - t0
        span_calls = trace.disabled_span_calls() - span_calls0
    finally:
        service.close()
        service_off.close()
    overhead_pct = trace_overhead_pct(span_calls, hot_wall)

    # the batch pipeline runs the service's own plan, so the independent
    # reference is the single-pass chain over the archive's rows
    archived = dataset.to_table()
    t = np.asarray(archived["timestamp"])
    reference = cluster_power_series(coarsen_telemetry(
        archived.filter((t >= 0.0) & (t < SPEC.horizon_s)),
        ["input_power"], width=WIDTH,
    ))
    identical = full["table"] == reference

    cold_scaling = qps["cold", 8] / qps["cold", 1]
    warm_speedup = qps["warm", 8] / qps["cold", 1]
    ok, queued, rej_cap, rej_quota = overload

    main_table = render_table(
        ["phase", "clients", "queries", "qps", "p50 ms", "p99 ms",
         "hit/frag"],
        rows,
        title="Query service: cold vs warm throughput by concurrency",
    )
    # "pipeline" in the golden line names the single-pass batch kernels
    footer = (
        f"\nshards: {dataset.n_partitions} x {SHARD_S:.0f}s"
        f" ({dataset.n_rows} rows archived)"
        f"\nservice == pipeline: {'yes' if identical else 'NO'}"
        f"\nfragments on == off: {'yes' if sweep_identical else 'NO'}"
        f"\nsweep fragments: reused {reused}, computed {computed}"
        f"\nsingle-flight: executed {executed} of {FLIGHT_BURST}"
        f" identical concurrent queries"
        f"\noverload: offered 16 -> ok {ok} (queued {queued}),"
        f" rejected {rej_cap + rej_quota}"
        f" (capacity {rej_cap}, quota {rej_quota})"
        f"\ncold wave @8 vs @1 throughput: {cold_scaling:.1f}x"
        f" (floor {COLD_WAVE_FLOOR:.1f}x)"
        f"\noverlap sweep with/without fragments: {sweep_ratio:.1f}x"
        f" (floor {SWEEP_FLOOR:.1f}x)"
        f"\nwarm@8 vs cold@1 throughput: {warm_speedup:.1f}x"
        f" (must be >= {WARM_FLOOR:.0f}x)"
        f"\ntracing-disabled overhead: {overhead_pct:.4f}% of service"
        f" phases over {span_calls} span calls (budget"
        f" {TRACE_OVERHEAD_BUDGET * 100:.0f}%)\n"
    )
    emit("query_service", main_table + footer)

    assert identical, "service result diverged from the single-pass kernels"
    assert sweep_identical, "fragment-cached sweep diverged from uncached"
    assert executed == 1, "single-flight failed to collapse the burst"
    assert (ok, queued) == (2, 1), (ok, queued)
    assert (rej_cap, rej_quota) == (12, 2), (rej_cap, rej_quota)
    anchor(cold_scaling >= COLD_WAVE_FLOOR,
           f"cold wave scaling {cold_scaling:.1f}x < {COLD_WAVE_FLOOR}x")
    anchor(sweep_ratio >= SWEEP_FLOOR,
           f"overlap sweep leverage {sweep_ratio:.1f}x < {SWEEP_FLOOR}x")
    anchor(warm_speedup >= WARM_FLOOR,
           f"warm/cold throughput {warm_speedup:.1f}x < {WARM_FLOOR}x")
    # tracing-disabled must stay free — hard at every scale (the no-op
    # span cost does not shrink with REPRO_BENCH_SCALE)
    assert overhead_pct < TRACE_OVERHEAD_BUDGET * 100, (
        f"tracing-disabled overhead {overhead_pct:.4f}% of the service "
        f"phases exceeds the {TRACE_OVERHEAD_BUDGET:.0%} budget "
        f"({span_calls} span calls over {hot_wall:.3f}s)")
