"""Layer spans for the benchmark's traced runs, recorded from outside.

The benchmark times each layer by wrapping the public function that
enters it, patched where its callers look it up, in a
:mod:`repro.obs.trace` span named after the function (``encode_column``,
``PartitionedDataset.compact``, ...).  The names are the function's own,
so they never collide with the lower-case spans ``repro.obs`` already
emits (``pipeline.*``, ``executor.*``, ``serve.*``), which the traced run
collects too: they carry span context across the executor's threads,
the service's worker pool and the TCP hop, so one query's spans share a
trace id from the client down to the shard decode.

Spans stay in each process's memory until tracing is disabled (the
flush threshold is lifted) and are then written as one JSONL append.
:func:`layer_table` turns the records into per-name self/total seconds
plus the "unattributed" share of the benchmark's own root spans.
"""

from __future__ import annotations

import functools
import inspect
from contextlib import contextmanager

from repro.obs import trace

#: root span of one batch pass / one client query (the benchmark's own)
ROOTS = ("bench.pass", "bench.query")


def _note_encode(out, args, kwargs):
    raw = int(args[0].nbytes)
    return {"raw": raw, "out": raw if out is None else len(out[1])}


def _note_rows(out, args, kwargs):
    return {"rows": int(out.n_rows)}


def _note_plan(plan, args, kwargs):
    return {"rows_in": int(plan.rows_in)}


def _note_nbytes(out, args, kwargs):
    return {"bytes": int(out.nbytes())}


def _note_len(out, args, kwargs):
    return {"bytes": len(out)}


def _targets(side: str) -> list[tuple[object, str, str, object]]:
    """``(owner, attribute, span name, note)`` for each wrapped entry
    point; ``note(result, args, kwargs)`` returns span attributes."""
    import repro.frame.columnar as columnar
    from repro.parallel.partition import PartitionedDataset

    shared = [
        (columnar, "encode_column", "encode_column", _note_encode),
        (columnar, "decode_column", "decode_column", None),
        (PartitionedDataset, "read", "PartitionedDataset.read", None),
        (PartitionedDataset, "read_time_range",
         "PartitionedDataset.read_time_range", None),
        (PartitionedDataset, "read_time_range_merged",
         "PartitionedDataset.read_time_range_merged", None),
    ]
    if side == "batch":
        import repro.datasets.generate as generate
        from repro.parallel.executor import Executor
        from repro.pipeline import Pipeline
        from repro.stream import StreamGraph
        from repro.telemetry import TelemetrySampler
        from repro.workload.traces import ClusterTraceBuilder

        return shared + [
            (Executor, "map", "Executor.map", None),
            (generate, "simulate_twin", "simulate_twin", None),
            (ClusterTraceBuilder, "build", "ClusterTraceBuilder.build", None),
            (TelemetrySampler, "sample", "TelemetrySampler.sample",
             _note_rows),
            (Pipeline, "export", "Pipeline.export", None),
            (Pipeline, "telemetry_series", "Pipeline.telemetry_series", None),
            (PartitionedDataset, "append", "PartitionedDataset.append", None),
            (PartitionedDataset, "compact", "PartitionedDataset.compact",
             None),
            (StreamGraph, "run", "StreamGraph.run", None),
        ]
    if side == "server":
        import repro.serve.server as server
        from repro.serve import QueryPlan, TelemetryServer

        return shared + [
            (server, "plan_query", "plan_query", _note_plan),
            (QueryPlan, "run_fragment", "QueryPlan.run_fragment",
             _note_nbytes),
            (QueryPlan, "finalize", "QueryPlan.finalize", _note_rows),
            (TelemetryServer, "_encode", "TelemetryServer._encode",
             _note_len),
        ]
    if side == "client":
        import repro.serve.client as client

        return [(client, "table_from_wire", "table_from_wire", None)]
    raise ValueError(f"unknown side {side!r}")


def _wrap(fn, name: str, note):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with trace.span(name) as sp:
            out = fn(*args, **kwargs)
            if note is not None and trace.is_enabled():
                sp.set(**note(out, args, kwargs))
            return out

    return wrapper


def install(side: str) -> list[tuple[object, str, object]]:
    """Wrap ``side``'s entry points (``batch``, ``server`` or
    ``client``); returns what :func:`uninstall` needs to undo it."""
    saved = []
    for owner, attr, name, note in _targets(side):
        raw = inspect.getattr_static(owner, attr)
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        wrapped = _wrap(fn, name, note)
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(wrapped)
        saved.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
    return saved


def uninstall(saved) -> None:
    for owner, attr, raw in reversed(saved):
        setattr(owner, attr, raw)


def hold_in_memory() -> None:
    """Keep every span record buffered until :func:`trace.disable`."""
    trace.FLUSH_THRESHOLD = 1 << 62


@contextmanager
def traced(side: str, path):
    """Wrappers installed and spans recorded to ``path`` for the block;
    the buffered records are written when it exits."""
    hold_in_memory()
    saved = install(side)
    trace.enable(path)
    try:
        yield
    finally:
        trace.disable()
        uninstall(saved)


# ---------------- analysis ----------------


def _union(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(records: list[dict]) -> dict[str, float]:
    """Span id -> self seconds: the span's duration minus the part of
    its interval that its children (in any thread or process) cover.
    A span whose parent is missing from ``records`` counts as a root."""
    children: dict[str, list[dict]] = {}
    for r in records:
        if r["parent"] is not None:
            children.setdefault(r["parent"], []).append(r)
    out = {}
    for r in records:
        a, b = r["ts"], r["ts"] + r["dur"]
        covered = _union([
            (max(a, c["ts"]), min(b, c["ts"] + c["dur"]))
            for c in children.get(r["span"], ())
            if c["ts"] < b and c["ts"] + c["dur"] > a
        ])
        out[r["span"]] = max(0.0, r["dur"] - covered)
    return out


def layer_table(records: list[dict]) -> tuple[dict[str, dict], float]:
    """Per span name ``{"calls", "total_s", "self_s"}``, and the
    unattributed share (%) of the benchmark's root spans: the part of
    their wall time that no named span below them covers."""
    selfs = self_times(records)
    table: dict[str, dict] = {}
    root_total = root_self = 0.0
    for r in records:
        row = table.setdefault(r["name"],
                               {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += r["dur"]
        row["self_s"] += selfs[r["span"]]
        if r["name"] in ROOTS:
            root_total += r["dur"]
            root_self += selfs[r["span"]]
    pct = 100.0 * root_self / root_total if root_total > 0 else 0.0
    return table, pct


def _attr_sum(records: list[dict], name: str, attr: str) -> float:
    return float(sum(r["attrs"].get(attr, 0) for r in records
                     if r["name"] == name))


def _outer_total(records: list[dict], *names: str) -> float:
    """Seconds inside spans called ``names``, counting a span nested in
    another of them once (``Executor.map`` inside ``Executor.map``)."""
    by_id = {r["span"]: r for r in records}
    total = 0.0
    for r in records:
        if r["name"] not in names:
            continue
        up = by_id.get(r["parent"])
        while up is not None and up["name"] not in names:
            up = by_id.get(up["parent"])
        if up is None:
            total += r["dur"]
    return total


def layer_metrics(records: list[dict], n_ops: int) -> dict[str, float]:
    """Every span-derived per-layer metric, per operation (one batch
    pass or one query); a layer the workload never entered reads 0."""
    def per(value: float) -> float:
        return value / n_ops if n_ops else 0.0

    def outer(*names: str) -> float:
        return per(_outer_total(records, *names))

    encode_s = _outer_total(records, "encode_column")
    raw = _attr_sum(records, "encode_column", "raw")
    encoded = _attr_sum(records, "encode_column", "out")
    rows_out = _attr_sum(records, "QueryPlan.finalize", "rows")
    return {
        "datasets.simulate_s": outer("simulate_twin"),
        "workload.paint_s": outer("ClusterTraceBuilder.build"),
        "telemetry.sample_s": outer("TelemetrySampler.sample"),
        "telemetry.rows": per(_attr_sum(records, "TelemetrySampler.sample",
                                        "rows")),
        "pipeline.export_s": outer("Pipeline.export"),
        "pipeline.telemetry_series_s": outer("Pipeline.telemetry_series"),
        "frame.encode_s": per(encode_s),
        "frame.encode_mb_per_s": raw / 1e6 / encode_s if encode_s else 0.0,
        "frame.encode_ratio": raw / encoded if encoded else 0.0,
        "frame.decode_s": outer("decode_column"),
        "frame.decode_calls": per(sum(r["name"] == "decode_column"
                                      for r in records)),
        "parallel.append_s": outer("PartitionedDataset.append"),
        "parallel.compact_s": outer("PartitionedDataset.compact"),
        "parallel.read_s": outer("PartitionedDataset.read",
                                 "PartitionedDataset.read_time_range",
                                 "PartitionedDataset.read_time_range_merged"),
        "parallel.executor_map_s": outer("Executor.map"),
        "stream.run_s": outer("StreamGraph.run"),
        "serve.plan_s": outer("serve.plan"),
        "serve.task_s": outer("serve.task.exec"),
        "serve.finalize_s": outer("QueryPlan.finalize"),
        "serve.encode_s": outer("serve.encode"),
        "serve.response_bytes": per(_attr_sum(
            records, "TelemetryServer._encode", "bytes")),
        "serve.rows_examined_per_row_returned": (
            _attr_sum(records, "plan_query", "rows_in") / rows_out
            if rows_out else 0.0),
        "serve.fragment_computed_mb": _attr_sum(
            records, "QueryPlan.run_fragment", "bytes") / 1e6,
        "client.decode_s": outer("table_from_wire"),
    }


def render_table(table: dict[str, dict], unattributed_pct: float,
                 overhead_pct: float) -> str:
    """The traced run's layer table: self and total seconds per span
    name, the unattributed row, and the tracing overhead."""
    lines = [f"{'span':44s} {'calls':>8s} {'total s':>10s} {'self s':>10s}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:44s} {row['calls']:8d} "
                     f"{row['total_s']:10.4f} {row['self_s']:10.4f}")
    lines.append(f"{'unattributed (share of root wall time)':44s} "
                 f"{'':8s} {'':10s} {unattributed_pct:9.2f}%")
    lines.append(f"trace overhead vs the paired untraced run: "
                 f"{overhead_pct:+.2f}%")
    return "\n".join(lines)
