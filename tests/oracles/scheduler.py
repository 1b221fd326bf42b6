"""Reference scheduler: the original batch-stepped loop, kept as the oracle.

:class:`~repro.workload.scheduler.Scheduler` runs one event-driven core.
This module keeps the loop it replaced, in the shape of the SimPy cycle of
oar3's batch simulator: each event re-sorts the whole pending queue and
each blocked job walks ``sorted(running)`` for its reservation.  It drives
the production :class:`~repro.workload.scheduler._Sim` (the only writer of
machine state and the placement-RNG draw order) and builds its result with
the production ``_assemble``, so any divergence from the event core is a
decision difference, which the hypothesis batteries in
``tests/workload/test_event_core.py`` look for.
``benchmarks/bench_sched_scale.py`` and ``benchmarks/bench_power_aware.py``
co-time it against the event core.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.workload.jobs import JobCatalog
from repro.workload.powercap import PowerAwareScheduler
from repro.workload.scheduler import (
    ScheduleResult,
    Scheduler,
    _Sim,
    _assemble,
)


def run_reference(
    sched: Scheduler, catalog: JobCatalog, horizon_s: float
) -> ScheduleResult:
    """The original batch-stepped loop: re-sorts ``pending`` every event
    and walks ``sorted(running)`` for the reservation (one pass for shadow
    *and* spare — the historical second walk is folded in).
    """

    def draining(now: float) -> bool:
        return any(a <= now < b for a, b in sched.drain_windows)

    t = catalog.table
    submit = t["submit_time"]
    nodes_req = t["node_count"]
    wall = t["walltime_s"]
    sclass = t["sched_class"]

    order = np.argsort(submit, kind="stable")
    sim = _Sim(sched, catalog)
    sim.by_end = None  # the oracle walks sorted(running) instead
    running = sim.running
    node_lists = sim.node_lists

    pending: list[tuple[int, int, int]] = []  # (class, seq, row)
    stats = {
        "n_events": 0, "n_submits": 0, "n_completion_batches": 0,
        "n_queue_scans": 0, "n_scans_skipped": 0, "n_shadow_walks": 0,
        "max_pending": 0,
    }

    def shadow_and_spare(k_needed: int) -> tuple[float, int]:
        """Earliest time the top blocked job can have ``k_needed``
        nodes, and the spare nodes at that instant — one end-ordered
        walk of the running set."""
        stats["n_shadow_walks"] += 1
        avail = sim.n_free
        freed = sim.n_free
        shadow = float("inf")
        for t_end, row in sorted(running):
            nn = len(node_lists[row])
            if shadow == float("inf"):
                avail += nn
                if avail >= k_needed:
                    shadow = t_end
                    freed = avail
            elif t_end > shadow:
                break
            else:
                freed += nn
        if shadow == float("inf"):
            return shadow, 0
        return shadow, max(0, freed - k_needed)

    def try_start(now: float) -> None:
        """Priority scan with EASY reservation backfill."""
        if not pending or sim.n_free == 0 or draining(now):
            return
        stats["n_queue_scans"] += 1
        pending.sort()
        still: list[tuple[int, int, int]] = []
        shadow: float | None = None
        spare_at_shadow = 0
        for depth, item in enumerate(pending):
            if sim.n_free == 0 or depth >= sched.BACKFILL_DEPTH:
                still.extend(pending[depth:])
                break
            row = item[2]
            k = int(nodes_req[row])
            if k <= sim.n_free and not sched.admit(catalog, row, now):
                # policy veto (e.g. power cap): job waits without
                # earning a node reservation
                still.append(item)
            elif k <= sim.n_free and shadow is None:
                sim.start_job(row, now)
            elif k <= sim.n_free:
                # backfill candidate: must not delay the reservation —
                # either done by the shadow time, or small enough to fit
                # in the nodes the blocked job leaves spare
                if now + float(wall[row]) <= shadow or k <= spare_at_shadow:
                    sim.start_job(row, now)
                    if k > spare_at_shadow:
                        spare_at_shadow = 0
                    else:
                        spare_at_shadow -= k
                else:
                    still.append(item)
            else:
                if shadow is None:
                    # first blocked job: compute its reservation
                    shadow, spare_at_shadow = shadow_and_spare(k)
                still.append(item)
        pending[:] = still

    seq = 0
    for j in order:
        now = float(submit[j])
        # release completions (and give queued jobs those nodes) in order
        while running and running[0][0] <= now:
            t_end, row_done = heapq.heappop(running)
            sim.release(row_done, t_end)
            # drain any other jobs ending at the same instant first
            while running and running[0][0] <= t_end:
                _, r2 = heapq.heappop(running)
                sim.release(r2, t_end)
            stats["n_completion_batches"] += 1
            try_start(t_end)
        pending.append((int(sclass[j]), seq, int(j)))
        seq += 1
        stats["n_submits"] += 1
        stats["max_pending"] = max(stats["max_pending"], len(pending))
        try_start(now)

    while pending and running and running[0][0] <= horizon_s:
        t_end, row_done = heapq.heappop(running)
        sim.release(row_done, t_end)
        while running and running[0][0] <= t_end:
            _, r2 = heapq.heappop(running)
            sim.release(r2, t_end)
        stats["n_completion_batches"] += 1
        try_start(t_end)

    stats["n_events"] = stats["n_submits"] + stats["n_completion_batches"]
    stats["n_started"] = sim.n_started
    sched.last_run_stats = stats
    return _assemble(catalog, sim)


class ReferenceScheduler(Scheduler):
    """:class:`Scheduler` whose core is the reference loop."""

    _run_core = run_reference


class ReferencePowerAwareScheduler(PowerAwareScheduler):
    """:class:`PowerAwareScheduler` whose core is the reference loop."""

    _run_core = run_reference
