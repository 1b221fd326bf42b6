"""The ``.rcs`` codec pool: one thread pool encodes and decodes a shard's
columns, its width never changes the file bytes or the trace tree, and
``REPRO_MAX_WORKERS`` is parsed as strictly as the executor parses it."""

import os
import sys
import threading
import time
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import repro.frame.columnar as columnar
from repro.frame.columnar import RcsFile, load_rcs, save_rcs
from repro.frame.table import Table
from repro.obs import trace
from repro.parallel.executor import default_workers

#: pool widths the byte-identity checks compare (None: variable unset)
_CAPS = ("1", "2", None)


def _env(cap):
    """``REPRO_MAX_WORKERS`` set to ``cap`` (unset for None), on a
    machine that reports four cores, so width 2 really pools."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_MAX_WORKERS"}
    if cap is not None:
        env["REPRO_MAX_WORKERS"] = cap
    return patch.dict(os.environ, env, clear=True)


def _cores(n):
    return patch.object(os, "cpu_count", return_value=n)


@st.composite
def _mixed_tables(draw):
    """Tables mixing every column kind the encoder distinguishes."""
    n = draw(st.sampled_from([0, 1]) | st.integers(2, 400))

    def arr(dtype, elements):
        return draw(hnp.arrays(np.dtype(dtype), n, elements=elements))

    quanta = arr("i8", st.integers(-5_000, 5_000))
    cols = {
        "timestamp": np.arange(n, dtype=np.float64),
        "node": arr("i8", st.integers(0, 64)),
        "big": arr("i8", st.integers(-(2**62), 2**62)),
        "power_q": np.cumsum(quanta) * draw(st.sampled_from([0.1, 0.5, 1.0])),
        "noisy": arr("f8", st.floats(width=64, allow_nan=True)),
        "flag": arr("?", st.booleans()),
        "cabinet": arr("U4", st.sampled_from(["a", "b1", "c22", "d333"])),
        "be_int": arr(">i8", st.integers(-1_000, 1_000)),
        "be_float": arr(">f8", st.floats(-1e3, 1e3, width=64)),
    }
    return Table(cols)


class TestByteIdentity:
    @given(table=_mixed_tables())
    @settings(max_examples=40, deadline=None)
    def test_pool_width_never_changes_bytes(self, table, tmp_path_factory):
        root = tmp_path_factory.mktemp("pool")
        blobs = []
        for k, cap in enumerate(_CAPS):
            with _env(cap), _cores(4):
                save_rcs(table, root / f"{k}.rcs", compression="auto")
            blobs.append((root / f"{k}.rcs").read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]
        got = load_rcs(root / "0.rcs")
        for c in table.columns:
            assert np.array_equal(got[c], table[c],
                                  equal_nan=table[c].dtype.kind == "f"), c

    def test_pooled_write_is_pooled(self, tmp_path):
        """Width 2 really runs the encodes on more than one thread."""
        threads = set()
        real = columnar.encode_column

        def spy(col, mode):
            threads.add(threading.get_ident())
            time.sleep(0.02)  # busy long enough for the pool to grow
            return real(col, mode=mode)

        table = Table({f"c{i}": np.arange(50_000) * 0.1 for i in range(8)})
        with _env("2"), _cores(4), patch.object(columnar, "encode_column",
                                                spy):
            save_rcs(table, tmp_path / "t.rcs", compression="auto")
        assert len(threads) == 2


class TestWidth:
    def test_cores_capped_by_env_and_items(self):
        with _cores(4):
            with _env(None):
                assert columnar._codec_workers(10) == 4
                assert columnar._codec_workers(3) == 3
                assert columnar._codec_workers(0) == 1
            with _env("2"):
                assert columnar._codec_workers(10) == 2
            with _env("0"):
                assert columnar._codec_workers(10) == 1
            with _env("-3"):
                assert columnar._codec_workers(10) == 1

    def test_not_the_executor_rule(self):
        # the executor leaves a core free; the codec pool uses them all
        with _cores(2), _env(None):
            assert default_workers() == 1
            assert columnar._codec_workers(38) == 2


class TestGarbageCap:
    """The codec pool rejects a non-integer cap with the executor's error
    (``tests/parallel/test_executor.py`` covers the executor path)."""

    MESSAGE = "REPRO_MAX_WORKERS must be an integer, got 'many'"

    def test_encode_path(self, tmp_path):
        with _env("many"), pytest.raises(ValueError, match=self.MESSAGE):
            save_rcs(Table({"x": np.arange(10) * 0.5}), tmp_path / "t.rcs",
                     compression="auto")

    def test_decode_path(self, tmp_path):
        save_rcs(Table({"x": np.arange(1000) * 0.5}), tmp_path / "t.rcs",
                 compression="auto")
        rf = RcsFile(tmp_path / "t.rcs")
        assert rf.has_encoded
        with _env("many"), pytest.raises(ValueError, match=self.MESSAGE):
            rf.read()


def _spanned(fn, name):
    """``fn`` wrapped in a span, as the benchmark wraps the codecs."""
    def wrapper(*args, **kwargs):
        with trace.span(name):
            return fn(*args, **kwargs)

    return wrapper


class TestSpanParenting:
    CALLER = trace.SpanContext("trace-id", "caller-parent")

    def _traced_roundtrip(self, path, cap):
        table = Table({
            "timestamp": np.arange(2_000, dtype=np.float64),
            "node": np.arange(2_000) % 16,
            "power": np.cumsum(np.arange(2_000) % 7 - 3) * 0.1,
            "noisy": np.random.default_rng(0).normal(size=2_000),
            "flag": np.arange(2_000) % 3 == 0,
        })
        with _env(cap), _cores(4), \
                patch.object(columnar, "encode_column",
                             _spanned(columnar.encode_column,
                                      "encode_column")), \
                patch.object(columnar, "decode_column",
                             _spanned(columnar.decode_column,
                                      "decode_column")):
            trace.enable(None)
            try:
                with trace.capture() as records:
                    with trace.span("caller", _parent=self.CALLER,
                                    _seq=0) as sp:
                        save_rcs(table, path, compression="auto")
                        load_rcs(path)
            finally:
                trace.disable()
        return records, sp.span_id, table

    def test_codec_spans_nest_under_caller_at_every_width(self, tmp_path):
        trees = []
        for cap in ("1", "2"):
            records, caller, table = self._traced_roundtrip(
                tmp_path / f"{cap}.rcs", cap
            )
            by_id = {r["span"]: r for r in records}
            wrapped = [r for r in records
                       if r["name"] in ("encode_column", "decode_column")]
            n_encoded = sum(
                c != "raw" for c in RcsFile(tmp_path / f"{cap}.rcs")
                .codecs.values()
            )
            assert n_encoded >= 2
            assert sum(r["name"] == "encode_column" for r in wrapped) == len(
                table.columns
            )
            assert sum(r["name"] == "decode_column" for r in wrapped) == (
                n_encoded
            )
            for r in wrapped:
                up = by_id.get(r["parent"])
                while up is not None and up["span"] != caller:
                    up = by_id.get(up["parent"])
                assert up is not None, r
            assert len(by_id) == len(records)  # no duplicate span ids
            trees.append(sorted((r["name"], r["span"], r["parent"])
                                for r in records))
        assert trees[0] == trees[1]

    def test_wide_pool_stress(self, tmp_path):
        """More pool threads than cores and a tiny switch interval: every
        column span still reaches the caller's capture list, once."""
        n_cols = 48
        table = Table({f"c{i}": np.arange(3_000) * 0.1 + i
                       for i in range(n_cols)})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _env("16"), _cores(32):
                trace.enable(None)
                try:
                    with trace.capture() as records:
                        with trace.span("caller", _parent=self.CALLER,
                                        _seq=0):
                            save_rcs(table, tmp_path / "t.rcs",
                                     compression="auto")
                            got = load_rcs(tmp_path / "t.rcs")
                finally:
                    trace.disable()
        finally:
            sys.setswitchinterval(interval)
        n_encoded = sum(c != "raw" for c in
                        RcsFile(tmp_path / "t.rcs").codecs.values())
        assert n_encoded > 16
        columns = [r for r in records if r["name"] == "rcs.column"]
        assert len(columns) == n_cols + n_encoded
        assert len({r["span"] for r in records}) == len(records)
        for c in table.columns:
            assert np.array_equal(got[c], table[c]), c
