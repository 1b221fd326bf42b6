"""Extension — storage-engine I/O: compressed ``.rcs`` vs raw vs ``.npz``.

A wide archive dataset (one sorted time column, one node column, 36 float
telemetry channels — the shape of the paper's per-node parquet files) is
written once per store configuration:

* ``rcs``     — compressed columnar: per-column codecs picked by the
  encoder (delta/varint for integers, quantized-delta for sensor floats,
  XOR-shuffle for noisy floats), recorded in the shard footer;
* ``rcs-raw`` — the PR 4 layout (``REPRO_RCS_COMPRESSION=off``): raw
  little-endian pages, zero-copy mmap reads;
* ``npz``     — ``numpy.savez_compressed`` standing in for parquet.

The generator emits *quantized smooth* channels — bounded-slew integer
random walks times a 0.1 LSB, the shape of real power/thermal sensor
feeds — plus a noisy minority (spectral residuals), so the codec selector
faces both its best case and its worst.

Reads go through every access path the pipeline uses: ``full`` (all
columns, every shard), ``projected`` (2-column pushdown), and
``zone-pruned`` (one-shard time-range scan).  Each reports a **cold**
pass — page cache evicted first (``drop_caches`` as root, else
``posix_fadvise(DONTNEED)``), the state a year-scale archive is always
in — and a **warm** pass (pages resident).
Every read is forced to consume its bytes (column sums), so mmap
laziness cannot fake a win; and every variant's table is asserted
**bit-identical** across all three stores before any timing is trusted.

Writes are timed too: each store's ``append`` wall seconds and its encode
throughput (raw column MB per write second).  The ``rcs`` store is
written a second time with its codec pool at width 1
(``REPRO_MAX_WORKERS=1``), and every shard file must match the pooled
write byte for byte.

Anchored acceptance bars (hard at full scale, advisory below):

* compressed ``.rcs`` bytes on disk  <  ``.npz`` bytes on disk;
* compressed full cold read  <=  2x the raw ``.rcs`` full cold read;
* 2-column projected ``.rcs`` read  >=  3x the full-table ``.npz`` read;
* zone pruning never loses to the projected full sweep it replaces.
"""

import os
from unittest.mock import patch

import time

import numpy as np

from benchutil import SCALE, anchor, emit
from repro.core.report import render_table
from repro.frame.table import Table, concat
from repro.parallel import PartitionedDataset

N_CHANNELS = 36
N_NOISY = 6  # trailing channels carry full-entropy residuals
N_SHARDS = 8
ROWS_PER_SHARD = max(4_000, int(50_000 * SCALE))
PROJECTION = ["timestamp", "m00"]
LSB = 0.1  # sensor quantum: power/thermal feeds report in 0.1 W / 0.1 C
COLD_READ_BUDGET = 2.0  # compressed full cold read vs raw, max ratio

# (store key) -> (shard format, REPRO_RCS_COMPRESSION while writing)
STORES = {
    "rcs": ("rcs", "auto"),
    "rcs-raw": ("rcs", "off"),
    "npz": ("npz", "auto"),
}
#: the ``rcs`` store again, encoded with the codec pool at width 1
SERIAL = "rcs-serial"


def _smooth_channel(rng, n, slew=40):
    """Quantized bounded-slew walk: ``ints * LSB`` around 2 kW."""
    steps = rng.integers(-slew, slew + 1, n)
    return (20_000 + np.cumsum(steps)) * LSB


def build_datasets(root):
    """Write the same shard tables into every store configuration.

    Returns the stores (the three of :data:`STORES` plus :data:`SERIAL`),
    each store's total ``append`` seconds, and the raw column bytes one
    store receives.
    """
    writes = {key: (fmt, {"REPRO_RCS_COMPRESSION": mode})
              for key, (fmt, mode) in STORES.items()}
    writes[SERIAL] = ("rcs", {"REPRO_RCS_COMPRESSION": "auto",
                              "REPRO_MAX_WORKERS": "1"})
    stores = {
        key: PartitionedDataset.create(root / key, f"wide-{key}")
        for key in writes
    }
    write_s = dict.fromkeys(writes, 0.0)
    raw_bytes = 0
    rng = np.random.default_rng(42)
    span = float(ROWS_PER_SHARD)
    for i in range(N_SHARDS):
        t0 = i * span
        cols = {
            "timestamp": np.arange(t0, t0 + span),
            "node": np.arange(ROWS_PER_SHARD, dtype=np.int64) % 64,
        }
        for c in range(N_CHANNELS):
            if c >= N_CHANNELS - N_NOISY:
                cols[f"m{c:02d}"] = rng.normal(2_000.0, 150.0,
                                               ROWS_PER_SHARD)
            else:
                cols[f"m{c:02d}"] = _smooth_channel(rng, ROWS_PER_SHARD)
        table = Table(cols)
        raw_bytes += table.nbytes()
        for key, (fmt, env) in writes.items():
            with patch.dict(os.environ, env):
                w0 = time.perf_counter()
                stores[key].append(table, t0, t0 + span, fmt=fmt)
                write_s[key] += time.perf_counter() - w0
    return stores, write_s, raw_bytes


def same_shard_bytes(a, b) -> bool:
    """True when two stores hold byte-identical shard files."""
    names = [p.filename for p in a.partitions]
    return names == [p.filename for p in b.partitions] and all(
        (a.root / n).read_bytes() == (b.root / n).read_bytes()
        for n in names
    )


def evict(ds) -> None:
    """Drop the page cache for the store's shard files (best effort).

    Without this the just-written shards sit fully cached and the "cold"
    pass reads raw pages at RAM speed — a state a year-scale archive
    never enjoys.  As root, ``/proc/sys/vm/drop_caches`` evicts
    deterministically; otherwise fall back to per-file
    ``posix_fadvise(DONTNEED)``, which is advisory — on filesystems that
    ignore it the cold/warm split simply collapses.
    """
    os.sync()  # dirty pages cannot be dropped
    try:
        with open("/proc/sys/vm/drop_caches", "w") as f:
            f.write("1\n")
        return
    except OSError:
        pass
    if not hasattr(os, "posix_fadvise"):  # pragma: no cover - POSIX only
        return
    for p in ds.partitions:
        fd = os.open(ds.root / p.filename, os.O_RDONLY)
        try:
            os.posix_fadvise(fd, 0, 0, os.POSIX_FADV_DONTNEED)
        finally:
            os.close(fd)


def consume(table: Table) -> float:
    """Touch every byte of every column (defeats mmap laziness)."""
    total = 0.0
    for c in table.columns:
        total += float(np.asarray(table[c], dtype=np.float64).sum())
    return total


def timed(fn, pre=None, passes=3):
    """(result, cold seconds, warm seconds) for one read variant.

    Cold is the best of ``passes`` runs, each preceded by ``pre`` (page-
    cache eviction); warm is the best of two back-to-back runs.  Every
    pass starts with the previous pass's tables released — holding a
    100 MB result while the next pass allocates its own doubles the
    allocator's page-fault bill and skews the measurement.
    """
    out, cold, warm = None, float("inf"), float("inf")
    for _ in range(passes):
        if pre is not None:
            pre()
        out = None
        t0 = time.perf_counter()
        out = fn()
        cold = min(cold, time.perf_counter() - t0)
    for _ in range(2):
        out = None
        t0 = time.perf_counter()
        out = fn()
        warm = min(warm, time.perf_counter() - t0)
    return out, cold, warm


def _assert_tables_identical(a, b, label):
    assert a.columns == b.columns, label
    assert a.n_rows == b.n_rows, label
    for c in a.columns:
        assert a[c].dtype == b[c].dtype, (label, c)
        assert np.array_equal(a[c], b[c]), (label, c)


def test_io_throughput(tmp_path):
    datasets, write_s, raw_bytes = build_datasets(tmp_path)
    serial = datasets.pop(SERIAL)
    pooled_is_serial = same_shard_bytes(datasets["rcs"], serial)
    n_rows = datasets["rcs"].n_rows
    # the one-shard probe window: zone maps must skip the other 7 shards
    span = float(ROWS_PER_SHARD)
    t0p, t1p = 2 * span, 3 * span

    # timing hygiene: let writeback drain first — flushing ~150 MB of
    # just-written shards must not be billed to whichever store reads
    # first.  Each store then gets one untimed priming pass (allocator +
    # import warm-up) before its timed variants.
    os.sync()

    variants = {}  # (variant, store) -> (table, cold_s, warm_s)
    for key, ds in datasets.items():
        consume(ds.to_table())
        chill = lambda ds=ds: evict(ds)
        variants["full", key] = timed(
            lambda ds=ds: (lambda t: (consume(t), t)[1])(ds.to_table()),
            pre=chill,
        )
        variants["projected", key] = timed(
            lambda ds=ds: (lambda t: (consume(t), t)[1])(
                ds.to_table(columns=PROJECTION)
            ),
            pre=chill,
        )
        variants["zone-pruned", key] = timed(
            lambda ds=ds: (lambda t: (consume(t), t)[1])(
                concat(list(ds.scan(PROJECTION, t0p, t1p)))
            ),
            pre=chill,
        )

    # ---- bit-identity across stores and against unpushed reads ----
    full_npz = variants["full", "npz"][0]
    for key in ("rcs", "rcs-raw"):
        _assert_tables_identical(variants["full", key][0], full_npz,
                                 f"full/{key}")
    want_proj = full_npz.select(PROJECTION)
    ts = full_npz["timestamp"]
    want_pruned = full_npz.filter((ts >= t0p) & (ts < t1p)).select(PROJECTION)
    for key in STORES:
        _assert_tables_identical(
            variants["projected", key][0], want_proj, f"projected/{key}"
        )
        _assert_tables_identical(
            variants["zone-pruned", key][0], want_pruned, f"pruned/{key}"
        )

    kept = datasets["rcs"].select_time(t0p, t1p)
    assert kept == [2], "zone maps failed to prune to the single hot shard"
    # the compressed store is self-describing: footers name the codecs
    enc = datasets["rcs"].encoding_summary()
    assert sum(n for c, n in enc.items() if c != "raw") > 0
    assert all(p.enc is None for p in datasets["rcs-raw"].partitions)

    rows = []
    for (variant, key), (table, cold, warm) in variants.items():
        rows.append([
            variant, key, len(table.columns), table.n_rows,
            f"{cold:.4f}", f"{warm:.4f}",
        ])
    main = render_table(
        ["variant", "store", "cols", "rows", "cold s", "warm s"],
        rows,
        title=(
            "IO throughput: full vs projected vs zone-pruned reads "
            f"({N_SHARDS} shards x {N_CHANNELS + 2} columns)"
        ),
    )
    b_rcs = datasets["rcs"].n_bytes
    b_raw = datasets["rcs-raw"].n_bytes
    b_npz = datasets["npz"].n_bytes
    bytes_ratio = b_rcs / b_npz
    cold_ratio = variants["full", "rcs"][1] / max(
        variants["full", "rcs-raw"][1], 1e-9
    )
    speedup = variants["full", "npz"][1] / max(
        variants["projected", "rcs"][1], 1e-9
    )
    codec_census = " ".join(
        f"{c}={n}" for c, n in sorted(enc.items())
    )
    footer = (
        f"\nall reads bit-identical: yes"
        f"\nzone-map pruned shards: {N_SHARDS - len(kept)}/{N_SHARDS}"
        f"\nbytes on disk: rcs {b_rcs} rcs-raw {b_raw} npz {b_npz}"
        f" ({n_rows} rows)"
        f"\ncompressed/npz bytes: {bytes_ratio:.2f} (must be < 1)"
        f"\ncompressed/raw cold read: {cold_ratio:.2f}x"
        f" (budget {COLD_READ_BUDGET:.1f}x)"
        f"\nprojected rcs vs full npz (cold): {speedup:.1f}x"
        f"\ncolumn codecs: {codec_census}"
        + "".join(
            f"\nwrite {key}: {write_s[key]:.3f} s,"
            f" encode {raw_bytes / 1e6 / write_s[key]:.1f} MB/s"
            for key in STORES
        )
        + f"\nwrite rcs at REPRO_MAX_WORKERS=1: {write_s[SERIAL]:.3f} s"
        f" ({write_s[SERIAL] / write_s['rcs']:.2f}x the pooled write)"
        f"\npooled == serial shard bytes:"
        f" {'yes' if pooled_is_serial else 'no'}\n"
    )
    emit("io_throughput", main + footer)

    assert pooled_is_serial, "codec pool width changed the shard bytes"
    # tentpole acceptance bars (see module docstring)
    anchor(
        b_rcs < b_npz,
        f"compressed .rcs must beat .npz bytes on disk "
        f"({b_rcs} vs {b_npz})",
    )
    anchor(
        cold_ratio <= COLD_READ_BUDGET,
        f"compressed full cold read {cold_ratio:.2f}x raw exceeds "
        f"{COLD_READ_BUDGET:.1f}x budget",
    )
    anchor(
        speedup >= 3.0,
        f"projected .rcs read must be >= 3x full .npz read, got {speedup:.1f}x",
    )
    # pruning must never be slower than the projected full sweep it replaces
    anchor(
        variants["zone-pruned", "rcs"][1]
        <= variants["projected", "rcs"][1] * 1.5,
        "zone-pruned scan slower than the full projected sweep",
    )
