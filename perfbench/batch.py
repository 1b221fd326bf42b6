"""The ``batch`` archive-and-analyse pass and its output checks.

One pass is ``python -m repro export --telemetry-minutes 120`` followed
by ``python -m repro compact``, then the batch and stream analyses over
what was archived:

1. ``Pipeline.export`` of the twin (simulate, job series, cluster power);
2. paint and sample 120 min of 1 Hz node telemetry;
3. write it as 300 s ``.rcs`` shards, then ``PartitionedDataset.compact``;
4. ``Pipeline.telemetry_series`` over the compacted store;
5. the ``Pipeline.stream_graph`` replay of the same telemetry.

Each pass runs in a fresh interpreter, as the CLI would, so its peak
RSS is its own: ``python perfbench/batch.py --seed N --out DIR [--trace
FILE]`` runs one pass on twin seed ``N``, checks it, and prints one JSON
line.  The query workloads serve the store such a pass leaves in ``DIR``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.datasets import SimulationSpec
from repro.datasets.store import write_partitioned_series
from repro.frame.table import Table
from repro.obs import trace
from repro.obs.metrics import REGISTRY
from repro.parallel.partition import PartitionedDataset
from repro.pipeline import Pipeline, PipelineConfig
from repro.telemetry import TelemetrySampler

#: the twin of the repo's baseline export (ROADMAP open items)
N_NODES = 90
N_JOBS = 1300
HORIZON_S = 86_400.0
TELEMETRY_S = 7200.0
SHARD_S = 300.0
WIDTH_S = 10.0


def spec(seed: int) -> SimulationSpec:
    return SimulationSpec(n_nodes=N_NODES, n_jobs=N_JOBS,
                          horizon_s=HORIZON_S, seed=seed)


def table_digest(table: Table) -> str:
    """Hash of column names, dtypes and bytes: equal digests mean equal
    tables bit for bit (NaNs are canonicalized first, since a NaN's
    payload does not survive the JSON wire and ``Table ==`` treats all
    NaNs as equal)."""
    h = hashlib.blake2b(digest_size=16)
    for name in table.columns:
        col = np.ascontiguousarray(table[name])
        if col.dtype.kind == "f":
            nan = np.isnan(col)
            if nan.any():
                col = np.where(nan, np.nan, col)
        h.update(f"{name}:{col.dtype.str}:{col.shape[0]};".encode())
        h.update(col.tobytes())
    return h.hexdigest()


def _sched_events() -> float:
    return sum(v["state"] for k, v in REGISTRY.snapshot().items()
               if k.startswith("sched.n_events"))


@dataclass
class PassResult:
    wall_s: float
    telemetry: Table
    store: PartitionedDataset
    series: Table
    late_rows: int
    stream_rows: int
    sched_events: float
    bytes_before: int
    bytes_after: int
    shards_before: int
    shards_after: int
    bytes_rewritten: int


def archive_pass(seed: int, out: Path,
                 sensor_seed: int | None = None) -> PassResult:
    """Run one pass into the fresh directory ``out``; time only the pass.
    ``sensor_seed`` draws the sensor noise apart from the twin's seed."""
    events0 = _sched_events()
    with trace.span("bench.pass"):
        t0 = time.perf_counter()
        pipe = Pipeline(spec(seed), PipelineConfig())
        pipe.export(out)
        twin = pipe.twin
        sampler = (twin.sampler() if sensor_seed is None
                   else TelemetrySampler(twin.config, sensor_seed))
        telemetry = sampler.sample(twin.builder.build(0.0, TELEMETRY_S, 1.0))
        store = write_partitioned_series(telemetry, out, "telemetry",
                                         day_s=SHARD_S)
        before = {p.filename for p in store.partitions}
        stats = store.compact()
        series = pipe.telemetry_series(store)
        graph = pipe.stream_graph(telemetry)
        stream_stats = graph.run()
        wall = time.perf_counter() - t0
    return PassResult(
        wall_s=wall,
        telemetry=telemetry,
        store=store,
        series=series,
        late_rows=int(stream_stats.total_late_rows),
        stream_rows=int(graph.source.rows_emitted),
        sched_events=_sched_events() - events0,
        bytes_before=int(stats["before"]["n_bytes"]),
        bytes_after=int(stats["n_bytes"]),
        shards_before=int(stats["before"]["n_partitions"]),
        shards_after=int(stats["n_partitions"]),
        bytes_rewritten=sum(p.n_bytes for p in store.partitions
                            if p.filename not in before),
    )


def check_pass(res: PassResult) -> list[str]:
    """The pass's output checks; returns one message per mismatch."""
    from repro.core.aggregate import cluster_power_series
    from repro.core.coarsen import coarsen_telemetry

    problems = []
    keys = ["timestamp", "node"]
    back = PartitionedDataset(res.store.root).to_table().sort(keys)
    if table_digest(back) != table_digest(res.telemetry.sort(keys)):
        problems.append("compacted store does not read back as the "
                        "sampled telemetry")
    oracle = cluster_power_series(coarsen_telemetry(
        res.telemetry, ["input_power"], width=WIDTH_S))
    if table_digest(res.series) != table_digest(oracle):
        problems.append("telemetry_series over the store differs from "
                        "single-pass cluster_power_series")
    if res.late_rows:
        problems.append(f"stream replay dropped {res.late_rows} late rows")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="one checked batch pass")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--sensor-seed", type=int, default=None)
    parser.add_argument("--trace", default=None,
                        help="record the pass's layer spans to this file")
    args = parser.parse_args(argv)
    if args.trace:
        import spans

        with spans.traced("batch", args.trace):
            res = archive_pass(args.seed, Path(args.out), args.sensor_seed)
    else:
        res = archive_pass(args.seed, Path(args.out), args.sensor_seed)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({
        "wall_s": res.wall_s,
        "rss_mb": rss_mb,
        "rows": res.telemetry.n_rows,
        "late_rows": res.late_rows,
        "stream_rows": res.stream_rows,
        "sched_events": res.sched_events,
        "bytes_before": res.bytes_before,
        "bytes_after": res.bytes_after,
        "shards_before": res.shards_before,
        "shards_after": res.shards_after,
        "bytes_rewritten": res.bytes_rewritten,
        "problems": check_pass(res),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
