"""Extension X5 — power-aware scheduling (the paper's conclusion, measured).

"Aggressive power and energy aware ... scheduling policies can have impact
even on HPC deployments like Summit": a cap-admission scheduler trades
queue wait for a flattened power envelope.  This bench sweeps the cap and
reports peak power, mean wait, utilization, and the facility's overcooling
exposure (the cost driver Section 5 identifies).
"""

import time

import numpy as np

from benchutil import anchor, emit, to_mw_equiv
from repro.core.report import render_table
from repro.datasets import cluster_power_direct
from repro.frame.join import join
from repro.machine import ChipPopulation
from repro.workload import PowerAwareScheduler, schedule_jobs
from tests.oracles.scheduler import ReferencePowerAwareScheduler


def compare_engines(twin_day, machine_peak):
    """Time the tightest cap (most veto/re-scan pressure) on the event core
    and the reference oracle, and verify the event core changes nothing
    observable."""
    cat = twin_day.catalog
    cfg = twin_day.config
    horizon = twin_day.spec.horizon_s
    cap = 0.6 * machine_peak
    runs = {}
    for engine, cls in (("reference", ReferencePowerAwareScheduler),
                        ("event", PowerAwareScheduler)):
        sched = cls(cap, cfg, seed=twin_day.spec.seed)
        t0 = time.perf_counter()
        runs[engine] = (sched.run_capped(cat, horizon),
                        time.perf_counter() - t0)
    ref, ref_t = runs["reference"]
    ev, ev_t = runs["event"]
    ident = (
        all(np.array_equal(ref.schedule.allocations[c],
                           ev.schedule.allocations[c])
            for c in ref.schedule.allocations.columns)
        and all(np.array_equal(ref.schedule.node_allocations[c],
                               ev.schedule.node_allocations[c])
                for c in ref.schedule.node_allocations.columns)
        and ref.n_power_delayed == ev.n_power_delayed
        and np.array_equal(ref.commitment[0], ev.commitment[0])
        and np.array_equal(ref.commitment[1], ev.commitment[1])
    )
    return ident, ref_t / ev_t


def run_sweep(twin_day):
    cat = twin_day.catalog
    cfg = twin_day.config
    horizon = twin_day.spec.horizon_s
    chips = ChipPopulation(cfg, seed=twin_day.spec.seed)
    machine_peak = cfg.n_nodes * cfg.node_max_power_w

    results = {}
    baseline = schedule_jobs(cat, horizon)
    for label, cap_frac in (("none", None), ("85%", 0.85), ("70%", 0.7),
                            ("60%", 0.6)):
        if cap_frac is None:
            sched = baseline
            delayed = 0
        else:
            r = PowerAwareScheduler(cap_frac * machine_peak, cfg,
                                    seed=twin_day.spec.seed).run_capped(
                cat, horizon
            )
            sched = r.schedule
            delayed = r.n_power_delayed
        _, power = cluster_power_direct(
            cat, sched, chips, horizon_s=horizon, seed=twin_day.spec.seed
        )
        al = sched.allocations
        sub = join(al, cat.table.select(["allocation_id", "submit_time"]),
                   "allocation_id", how="inner")
        wait = float((sub["begin_time"] - sub["submit_time"]).mean())
        util = float(
            (al["node_count"] * (al["end_time"] - al["begin_time"])).sum()
            / (cfg.n_nodes * horizon)
        )
        results[label] = {
            "cap_frac": cap_frac,
            "peak_w": float(power.max()),
            "mean_w": float(power.mean()),
            "wait_s": wait,
            "util": util,
            "delayed": delayed,
            "started": al.n_rows,
        }
    return results, machine_peak


def test_power_aware_scheduling(benchmark, twin_day):
    results, machine_peak = benchmark.pedantic(
        run_sweep, args=(twin_day,), rounds=1, iterations=1
    )
    rows = [
        [label,
         f"{to_mw_equiv(d['peak_w'], twin_day):.2f}",
         f"{to_mw_equiv(d['mean_w'], twin_day):.2f}",
         f"{d['wait_s'] / 60.0:.1f}", f"{d['util']:.2f}",
         d["delayed"], d["started"]]
        for label, d in results.items()
    ]
    ident, ratio = compare_engines(twin_day, machine_peak)
    emit("power_aware", "\n".join([
        render_table(
            ["cap", "peak (MW eq)", "mean (MW eq)", "mean wait (min)",
             "utilization", "power-delayed jobs", "jobs started"],
            rows,
            title="X5: power-aware scheduling vs the unconstrained baseline",
        ),
        "",
        f"engines bit-identical (schedule + cap accounting): {ident}",
        f"event/reference runtime at 60% cap: {ratio:.1f}x (floor 0.8x)",
    ]))
    assert ident
    # parity floor: at one busy day the queues are too short for the event
    # core to pull ahead — the scale regime is bench_sched_scale's job
    anchor(ratio >= 0.8, "event core at parity or better on the day twin")

    base = results["none"]
    tight = results["60%"]
    # tightening the cap flattens the peak monotonically (2% slack: a
    # loose cap reshuffles placement and chip draws without binding)
    peaks = [results[k]["peak_w"] for k in ("none", "85%", "70%", "60%")]
    assert all(a * 1.02 >= b for a, b in zip(peaks, peaks[1:]))
    # the 60% cap genuinely cuts the peak relative to baseline...
    anchor(tight["peak_w"] < 0.95 * base["peak_w"],
           "a tight cap reduces peak power")
    # ...and the bill is queue wait, not lost jobs
    anchor(tight["wait_s"] >= base["wait_s"],
           "capping increases mean queue wait")
    assert tight["delayed"] > 0
