"""The repo benchmark: one command, three workloads, every layer timed.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch --seed 0 --seconds 20 --trace 0

Workloads (``perfbench/workloads.json`` records why each exists, its
input sizes, and which per-layer metrics it should leave near zero):

* ``batch`` — seeded archive-and-analyse passes (:mod:`batch`), each in
  a fresh interpreter over a different twin;
* ``query-cold`` / ``query-hot`` — closed-loop TCP traffic from this
  process against a ``python -m repro serve`` subprocess (:mod:`query`)
  over the store such a pass leaves behind for one fixed twin.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same work untraced and traced (each batch twin
twice; each query stream against an untraced, then a traced server) and
reports the per-layer metrics from the traced part (spans recorded by
:mod:`spans`), plus the layer table and the tracing overhead.  Either
way the outputs are checked, every mismatch counts as a failed
operation, and the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: the imports a batch pass uses (what ``setup_s`` times on ``batch``)
BATCH_IMPORTS = ("import repro.datasets, repro.pipeline, repro.parallel, "
                 "repro.stream, repro.telemetry")
#: cold starts per run; ``setup_s`` is their median
SETUP_STARTS = 3
#: the tail percentile reported: the highest one that keeps ten samples
#: beyond it on ``query-cold``, the workload with the fewest operations
TAIL = 95
#: per-layer counters only one kind of workload produces (the other
#: kind reports them as 0: that layer did no work)
BATCH_COUNTERS = ("workload.sched_events", "parallel.compact_bytes_rewritten",
                  "parallel.bytes_before_compact",
                  "parallel.bytes_after_compact", "stream.rows_per_s",
                  "stream.late_rows")
SERVE_COUNTERS = ("serve.shards_scanned_per_query",
                  "serve.shards_pruned_per_query", "serve.result_hit_ratio",
                  "serve.fragment_hit_ratio", "serve.result_evictions",
                  "serve.fragment_evictions", "serve.admission_queued",
                  "serve.rejected", "serve.distinct_result_mb")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def peak_rss_mb(pid: int) -> float:
    """A live process's peak resident set (``VmHWM``) in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class Outcome:
    """A workload run's operations, failures, metrics and report lines."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, float] = {}
        self.lines: list[str] = []

    def fail(self, problems: list[str]) -> None:
        self.failed += len(problems)
        self.lines.extend(f"CHECK FAILED: {p}" for p in problems)


def layer_report(out: Outcome, records: list[dict], n_ops: int,
                 main_untraced: float, main_traced: float) -> None:
    import spans

    out.metrics.update(spans.layer_metrics(records, n_ops))
    table, unattributed = spans.layer_table(records)
    out.metrics["obs.unattributed_pct"] = unattributed
    out.metrics["obs.trace_overhead_pct"] = (
        100.0 * (main_traced - main_untraced) / main_untraced)
    out.lines.append(spans.render_table(
        table, unattributed, out.metrics["obs.trace_overhead_pct"]))


def load_records(*paths: Path) -> list[dict]:
    from repro.obs.export import load_trace

    return [r for p in paths if p.exists() for r in load_trace(str(p))]


# ---------------- batch ----------------


def import_setup_s() -> float:
    """Seconds for a fresh interpreter to finish the pass's imports."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", BATCH_IMPORTS], check=True,
                   cwd=ROOT)
    return time.perf_counter() - t0


def twin_seed(seed: int, k: int) -> int:
    """The twin seed of pass ``k`` of a run with workload seed ``seed``:
    each pass simulates a different twin, so a run's figures average
    over several job mixes instead of riding on one."""
    import numpy as np

    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def archive_pass(seed: int, out: Path, trace: Path | None = None,
                 sensor_seed: int | None = None) -> dict:
    """One checked batch pass in a fresh interpreter (see :mod:`batch`)."""
    cmd = [sys.executable, str(HERE / "batch.py"), "--seed", str(seed),
           "--out", str(out)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    if sensor_seed is not None:
        cmd += ["--sensor-seed", str(sensor_seed)]
    done = subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    return json.loads(done.stdout.splitlines()[-1])


def run_batch(args, work: Path) -> Outcome:
    """Passes over a different twin each (pass ``k`` simulates twin seed
    ``twin_seed(seed, k)``) until ``--seconds`` have passed.  With
    ``--trace 1`` each twin is run untraced and then traced."""
    out = Outcome()
    passes: dict[bool, list[dict]] = {False: [], True: []}
    trace_path = work / "trace-batch.jsonl"
    if not args.trace:
        out.metrics["setup_s"] = statistics.median(
            import_setup_s() for _ in range(SETUP_STARTS))
    deadline = time.perf_counter() + args.seconds
    k = 0
    while not passes[bool(args.trace)] or time.perf_counter() < deadline:
        for traced in ((False, True) if args.trace else (False,)):
            target = work / f"pass-{k}"
            res = archive_pass(twin_seed(args.seed, k), target,
                               trace_path if traced else None)
            shutil.rmtree(target)
            out.attempted += 1
            out.fail(res["problems"])
            passes[traced].append(res)
            out.lines.append(
                f"pass {k}{' (traced)' if traced else ''}: "
                f"{res['wall_s']:.3f} s, {res['rows']:,} rows, "
                f"{res['shards_before']} -> {res['shards_after']} shards, "
                f"{res['bytes_before']:,} -> {res['bytes_after']:,} bytes, "
                f"peak RSS {res['rss_mb']:.1f} MB"
                + ("" if res["problems"] else ", checks ok"))
        k += 1

    untraced = passes[False]
    w = [p["wall_s"] for p in untraced]
    if not args.trace:
        out.metrics.update({
            "store_bytes_per_row": sum(p["bytes_after"] for p in untraced)
            / sum(p["rows"] for p in untraced),
            "op_p50_ms": 1e3 * statistics.median(w),
            "op_p95_ms": 1e3 * percentile(w, TAIL),
            "ops_per_s": len(w) / sum(w),
            "peak_rss_mb": statistics.mean(p["rss_mb"] for p in untraced),
        })
        out.lines.append(f"ops: {len(w)} passes (latency samples)")
        return out

    traced = passes[True]
    m = len(traced)

    def mean(key: str) -> float:
        return sum(p[key] for p in traced) / m

    out.metrics.update(dict.fromkeys(SERVE_COUNTERS, 0.0))
    layer_report(out, load_records(trace_path), m, statistics.median(w),
                 statistics.median(p["wall_s"] for p in traced))
    stream_s = out.metrics["stream.run_s"]
    out.metrics.update({
        "workload.sched_events": mean("sched_events"),
        "parallel.compact_bytes_rewritten": mean("bytes_rewritten"),
        "parallel.bytes_before_compact": mean("bytes_before"),
        "parallel.bytes_after_compact": mean("bytes_after"),
        "stream.rows_per_s": (mean("stream_rows") / stream_s
                              if stream_s else 0.0),
        "stream.late_rows": mean("late_rows"),
    })
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (a value that was actually observed)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


# ---------------- query-cold / query-hot ----------------


def run_query(args, work: Path, hot: bool) -> Outcome:
    import query
    import spans

    out = Outcome()
    clients = min(2, nproc())
    prep = archive_pass(query.STORE_TWIN_SEED, work / "archive",
                        sensor_seed=args.seed)
    out.attempted += 1
    out.fail(prep["problems"])
    store = work / "archive" / "telemetry"
    out.lines.append(
        f"store: {prep['rows']:,} rows, {prep['shards_after']} shards, "
        f"{prep['bytes_after']:,} bytes (untimed prep pass); "
        f"serve caches: result {query.CACHE_MB} MiB, "
        f"fragment {query.FRAGMENT_MB} MiB")
    out.lines.append(f"closed loop: {clients} client connections, "
                     f"nproc {nproc()}, serve at its default workers")

    runs: list[tuple[query.QueryStream, query.Phase]] = []

    def phase(server: query.Server, seconds: float) -> query.Phase:
        stream = query.QueryStream(args.seed, hot)
        ph = query.closed_loop(server.port, stream, seconds, clients)
        ph.stats = server.stats()
        runs.append((stream, ph))
        out.attempted += ph.attempted
        out.fail(ph.failures)
        p50 = 1e3 * percentile(ph.latencies, 50) if ph.attempted else 0
        out.lines.append(
            f"phase {len(runs)}: {ph.attempted} queries "
            f"({ph.ok} ok) in {ph.wall_s:.2f} s, p50 {p50:.3f} ms; "
            f"distinct answers {_distinct_mb(stream, ph):.2f} MB; "
            f"evictions: result cache "
            f"{ph.stats['result_cache']['evictions']}, fragment cache "
            f"{ph.stats['fragment_cache']['evictions']}")
        return ph

    servers: list[query.Server] = []
    try:
        if not args.trace:
            setups = []
            for k in range(SETUP_STARTS):
                server = query.Server(store, work, f"u{k}")
                servers.append(server)
                setups.append(server.start())
                if k < SETUP_STARTS - 1:
                    server.stop()
            ph = phase(server, args.seconds)
            rss = peak_rss_mb(server.proc.pid)
            server.stop()
            n = ph.attempted
            out.metrics.update({
                "setup_s": statistics.median(setups),
                "store_bytes_per_row": prep["bytes_after"] / prep["rows"],
                "op_p50_ms": 1e3 * percentile(ph.latencies, 50),
                "op_p95_ms": 1e3 * percentile(ph.latencies, TAIL),
                "ops_per_s": ph.ok / ph.wall_s,
                "peak_rss_mb": rss,
            })
            out.lines.append(f"ops: {n} queries (latency samples; "
                             f"p{TAIL} has {n - math.ceil(TAIL / 100 * n)} "
                             f"beyond it)")
        else:
            half = args.seconds / 2.0
            untraced = query.Server(store, work, "u")
            servers.append(untraced)
            untraced.start()
            ph_u = phase(untraced, half)
            untraced.stop()
            client_trace = work / "trace-client.jsonl"
            server_trace = work / "trace-server.jsonl"
            traced = query.Server(store, work, "t", trace_path=server_trace)
            servers.append(traced)
            traced.start()
            with spans.traced("client", client_trace):
                ph_t = phase(traced, half)
            traced.stop()
            layer_report(out, load_records(client_trace, server_trace),
                         ph_t.attempted,
                         percentile(ph_u.latencies, 50),
                         percentile(ph_t.latencies, 50))
            out.metrics.update(dict.fromkeys(BATCH_COUNTERS, 0.0))
            st = ph_t.stats
            rc = st["result_cache"]
            executed = st["executed"]
            out.metrics.update({
                "serve.shards_scanned_per_query": (
                    st["shards_scanned"] / executed if executed else 0.0),
                "serve.shards_pruned_per_query": (
                    st["shards_pruned"] / executed if executed else 0.0),
                "serve.result_hit_ratio": (
                    rc["hits"] / (rc["hits"] + rc["misses"])
                    if rc["hits"] + rc["misses"] else 0.0),
                "serve.fragment_hit_ratio": st["fragment_hit_ratio"],
                "serve.result_evictions": rc["evictions"],
                "serve.fragment_evictions": st["fragment_cache"]["evictions"],
                "serve.admission_queued": sum(
                    t["queued"] for t in st.get("tenants", {}).values()),
                "serve.rejected": st["rejected"],
                "serve.distinct_result_mb": _distinct_mb(*runs[-1]),
            })
    finally:
        for server in servers:
            server.stop()

    checked, planned, problems = query.check_answers(
        store, runs, args.seed)
    out.fail(problems)
    out.lines.append(
        f"answer check: a seeded sample of {query.CHECK_SAMPLE} answers "
        f"picked {planned} distinct queries; all {checked} answers to them "
        f"compared bit for bit with in-process plan_query().execute()")
    return out


def _distinct_mb(stream, ph) -> float:
    seen: dict[str, int] = {}
    for i, _, nbytes in ph.answers:
        seen[json.dumps(stream.drawn[i], sort_keys=True)] = nbytes
    return sum(seen.values()) / 1e6


# ---------------- entry point ----------------


WORKLOADS = {
    "batch": run_batch,
    "query-cold": lambda args, work: run_query(args, work, hot=False),
    "query-hot": lambda args, work: run_query(args, work, hot=True),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    end_to_end, per_layer = declared_metrics()
    declared = per_layer if args.trace else end_to_end

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        out = WORKLOADS[args.workload](args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = json.loads((HERE / "workloads.json").read_text())[args.workload]
    print(f"workload {args.workload} (seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}): {record['why']}")
    for line in out.lines:
        print(line)
    out.metrics["error_ratio"] = out.failed / out.attempted
    missing = sorted(set(declared) - set(out.metrics))
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 2
    metrics = {name: {"value": float(out.metrics[name]), "unit": unit}
               for name, unit in declared.items()}
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    if args.trace:
        near_zero = record["near_zero"]
        print("predicted near zero: " + ", ".join(
            f"{k}={out.metrics[k]:.3g}" for k in near_zero))
    print(json.dumps({"correct": out.failed == 0, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
