"""The ``query-cold`` and ``query-hot`` workloads: closed-loop TCP traffic
against a real ``python -m repro serve`` subprocess.

Each client connection sends its next query when the previous reply has
arrived (``QueryClient`` is blocking, so every dashboard or CLI caller
has exactly one query in flight).  All connections live in this one
process, one thread each, no more than the machine has cores.

Query streams are drawn from the workload seed:

* **cold** — every query draws its own unaligned time window (5-60 min),
  coarsen width, node selection and metric set, and the levels (cluster,
  node, cabinet, raw single node, cluster + PUE) take turns, so no result
  repeats and few shard fragments do;
* **hot** — 80% Zipf draws over twelve fixed dashboard queries, 20%
  width-aligned 30 min cluster windows sliding by one minute, so the
  working set fits in the service's caches.

The service runs with result/fragment cache budgets small enough
(:data:`CACHE_MB`, :data:`FRAGMENT_MB`) that the cold working set
overflows them within one run while the hot one fits.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.obs import trace
from repro.parallel.partition import PartitionedDataset
from repro.serve import Query, QueryClient, ServiceError, plan_query

from batch import N_NODES, TELEMETRY_S, table_digest

HERE = Path(__file__).resolve().parent

#: the served store is one fixed deployment's archive: this twin, with
#: sensor noise and the query stream drawn from the workload seed.  The
#: job mix changes which codec each shard column gets, and with it the
#: cold read cost (p50 105-148 ms across ten twins, tracking the store's
#: bytes), so a seeded twin would swamp the run-to-run spread; the batch
#: workload is where twin-to-twin variation is measured.
STORE_TWIN_SEED = 0
#: ``serve --cache-mb`` / ``--fragment-mb`` for both query workloads
CACHE_MB = 2
FRAGMENT_MB = 1
#: a failed query enters the latency sample as this (the client timeout)
FAIL_LATENCY_S = 60.0
#: answers sampled (seeded) to pick the queries checked in-process
CHECK_SAMPLE = 48

N_CABINETS = 5  # 90 nodes at SUMMIT's 18 nodes per cabinet
METRICS = ("input_power", "p0_power", "p1_power", "gpu_power_total")

#: the hot workload's fixed dashboard queries, most popular first
DASHBOARDS = (
    {"level": "cluster", "width": 10.0},
    {"level": "cluster", "derived": "pue", "width": 60.0},
    {"level": "cluster", "t_begin": 3600.0, "t_end": 7200.0, "width": 10.0},
    {"level": "cluster", "metrics": ["gpu_power_total"], "width": 30.0},
    {"level": "cluster", "cabinets": [0], "width": 60.0},
    {"level": "node", "nodes": [0, 1, 2, 3, 4, 5], "t_begin": 5400.0,
     "t_end": 7200.0, "width": 60.0},
    {"level": "cluster", "metrics": ["p0_power"], "t_begin": 0.0,
     "t_end": 3600.0, "width": 10.0},
    {"level": "cluster", "cabinets": [2], "t_begin": 1800.0,
     "t_end": 5400.0, "width": 30.0},
    {"level": "raw", "nodes": [7], "t_begin": 6600.0, "t_end": 7200.0},
    {"level": "node", "cabinets": [4],
     "metrics": ["input_power", "gpu_power_total"], "width": 300.0},
    {"level": "cluster", "nodes": list(range(45)), "width": 20.0},
    {"level": "cluster", "metrics": ["p1_power"], "width": 120.0},
)
HOT_DASHBOARD_SHARE = 0.8
ZIPF_S = 1.1
SLIDE_WINDOW_S = 1800.0
SLIDE_STEP_S = 60.0


def _canonical(q: dict) -> dict:
    return Query.from_dict(q).to_dict()


class QueryStream:
    """The workload's seeded query sequence, drawn on demand under a lock
    (the load threads share it, so the sequence is the same however they
    interleave)."""

    def __init__(self, seed: int, hot: bool):
        self.rng = np.random.default_rng([seed, 0x51E7])
        self.hot = hot
        self.drawn: list[dict] = []
        self._slide = 0
        weights = 1.0 / np.arange(1, len(DASHBOARDS) + 1) ** ZIPF_S
        self._zipf = weights / weights.sum()
        self._lock = threading.Lock()

    def next(self) -> tuple[int, dict]:
        with self._lock:
            q = _canonical(self._hot() if self.hot
                           else self._cold(len(self.drawn)))
            self.drawn.append(q)
            return len(self.drawn) - 1, q

    def _hot(self) -> dict:
        rng = self.rng
        if rng.random() < HOT_DASHBOARD_SHARE:
            return DASHBOARDS[int(rng.choice(len(DASHBOARDS), p=self._zipf))]
        positions = int((TELEMETRY_S - SLIDE_WINDOW_S) / SLIDE_STEP_S) + 1
        t0 = (self._slide % positions) * SLIDE_STEP_S
        self._slide += 1
        return {"level": "cluster", "t_begin": t0,
                "t_end": t0 + SLIDE_WINDOW_S, "width": 10.0}

    def _cold(self, index: int) -> dict:
        rng = self.rng
        dur = float(rng.uniform(300.0, 3600.0))
        t0 = float(rng.uniform(0.0, TELEMETRY_S - dur))
        q = {"t_begin": t0, "t_end": t0 + dur,
             "width": float(rng.integers(10, 121))}

        def metrics(k: int) -> list[str]:
            return [str(m) for m in rng.choice(METRICS, size=k,
                                               replace=False)]

        def nodes(lo: int, hi: int) -> list[int]:
            k = int(rng.integers(lo, hi + 1))
            return sorted(int(n) for n in rng.choice(N_NODES, size=k,
                                                     replace=False))

        kind = index % 5  # in turn, so every run has the same level mix
        if kind == 0:    # cluster over a node subset
            q.update(level="cluster", metrics=metrics(1), nodes=nodes(20, 90))
        elif kind == 1:  # per-node series for a few nodes
            q.update(level="node", metrics=metrics(int(rng.integers(1, 4))),
                     nodes=nodes(4, 30))
        elif kind == 2:  # one cabinet
            q.update(level="cluster", metrics=metrics(1),
                     cabinets=[int(rng.integers(N_CABINETS))])
        elif kind == 3:  # raw rows of a single node
            q.update(level="raw", metrics=metrics(int(rng.integers(1, 4))),
                     nodes=nodes(1, 1))
        else:            # cluster + PUE
            q.update(level="cluster", derived="pue")
        return q


# ---------------- the serve subprocess ----------------


class Server:
    """One ``serve`` subprocess over ``store``, started and stopped by the
    benchmark; with ``trace_path`` it is the traced launcher instead."""

    def __init__(self, store: Path, work: Path, tag: str,
                 trace_path: Path | None = None):
        self.store, self.work, self.tag = store, work, tag
        self.trace_path = trace_path
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> float:
        """Launch and wait until the server answers ``ping``; returns the
        seconds from launch to that answer."""
        ready = self.work / f"ready-{self.tag}"
        args = ["serve", str(self.store), "--ready-file", str(ready),
                "--cache-mb", str(CACHE_MB), "--fragment-mb", str(FRAGMENT_MB)]
        env = dict(os.environ)
        if self.trace_path is None:
            cmd = [sys.executable, "-m", "repro", *args]
            env.pop("REPRO_TRACE", None)
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), *args]
            env["REPRO_TRACE"] = str(self.trace_path)
        log = open(self.work / f"serve-{self.tag}.log", "wb")
        t0 = time.perf_counter()
        try:
            self.proc = subprocess.Popen(cmd, env=env, cwd=self.work,
                                         stdout=log, stderr=subprocess.STDOUT)
        finally:
            log.close()
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"serve exited with {self.proc.returncode}"
                                   f"; see {self.work / f'serve-{self.tag}.log'}")
            if time.perf_counter() - t0 > 120.0:
                raise RuntimeError("serve did not become ready in 120 s")
            try:
                text = ready.read_text()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                break
            time.sleep(0.005)
        self.port = int(text.split()[1])
        with QueryClient(port=self.port) as client:
            if not client.ping():
                raise RuntimeError("serve did not answer ping")
        return time.perf_counter() - t0

    def stats(self) -> dict:
        with QueryClient(port=self.port) as client:
            return client.stats()

    def stop(self) -> None:
        """SIGINT (the handler that drains and flushes spans), then wait."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# ---------------- the closed loop ----------------


@dataclass
class Phase:
    """What one timed closed-loop phase produced."""

    latencies: list[float] = field(default_factory=list)
    #: (query index, answer digest, answer bytes) per answered query
    answers: list[tuple[int, str, int]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    stats: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def ok(self) -> int:
        return len(self.answers)


def closed_loop(port: int, stream: QueryStream, seconds: float,
                clients: int) -> Phase:
    """``clients`` connections, one thread each, for ``seconds``."""
    phase = Phase()
    lock = threading.Lock()
    t_start = time.perf_counter()
    deadline = t_start + seconds

    def failed(msg: str) -> None:
        with lock:
            phase.latencies.append(FAIL_LATENCY_S)
            phase.failures.append(msg)

    def worker() -> None:
        client = None
        while time.perf_counter() < deadline:
            try:
                if client is None:
                    client = QueryClient(port=port, tenant="bench",
                                         timeout=FAIL_LATENCY_S)
                i, q = stream.next()
                t0 = time.perf_counter()
                with trace.span("bench.query"):
                    resp = client.query(q)
                dt = time.perf_counter() - t0
            except (ServiceError, OSError) as err:
                failed(f"connection: {err}")
                if client is not None:
                    client.close()
                client = None
                continue
            if resp.get("status") != "ok":
                failed(f"{resp.get('status')}: "
                       f"{resp.get('error') or resp.get('reason')}")
                continue
            table = resp["table"]
            digest = table_digest(table)
            with lock:
                phase.latencies.append(dt)
                phase.answers.append((i, digest, table.nbytes()))
        if client is not None:
            client.close()

    threads = [threading.Thread(target=worker, name=f"load-{k}")
               for k in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    phase.wall_s = time.perf_counter() - t_start
    return phase


def check_answers(store: Path, runs: list[tuple[QueryStream, Phase]],
                  seed: int) -> tuple[int, int, list[str]]:
    """Compare served answers with in-process ``plan_query(...).execute()``.

    A seeded sample of :data:`CHECK_SAMPLE` answers picks the queries to
    plan in-process; every answer any phase got to one of those queries
    is then checked.  Returns (answers checked, queries planned,
    mismatch messages).
    """
    by_query: dict[str, list[str]] = {}
    order: list[str] = []
    for stream, phase in runs:
        for i, digest, _ in phase.answers:
            key = json.dumps(stream.drawn[i], sort_keys=True)
            by_query.setdefault(key, []).append(digest)
            order.append(key)
    rng = np.random.default_rng([seed, 0xC4EC])
    picks = rng.choice(len(order), min(CHECK_SAMPLE, len(order)),
                       replace=False)
    keys = sorted({order[j] for j in picks})
    dataset = PartitionedDataset(store)
    checked, problems = 0, []
    for key in keys:
        want = table_digest(
            plan_query(Query.from_dict(json.loads(key)), dataset).execute())
        for got in by_query[key]:
            checked += 1
            if got != want:
                problems.append(f"served answer differs from the "
                                f"in-process plan for {key}")
    return checked, len(keys), problems
