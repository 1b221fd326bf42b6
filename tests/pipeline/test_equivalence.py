"""Chunked pipeline output must be bit-identical to the single-pass path.

Every assertion here is ``np.array_equal`` (or byte equality for exported
files) — not ``allclose``.  The tentpole's contract is exact equality across
chunk sizes, executor backends, and cache cold/warm runs.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.core.aggregate import cluster_power_series
from repro.core.coarsen import coarsen_telemetry
from repro.pipeline import Pipeline, PipelineConfig

DAY = 86_400.0


def assert_tables_equal(got, want):
    assert got.columns == want.columns
    assert got.n_rows == want.n_rows
    for c in want.columns:
        assert got[c].dtype == want[c].dtype, c
        assert np.array_equal(got[c], want[c]), c


def _tree_digest(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def telemetry(twin_small):
    """One hour of sampled 1 Hz telemetry (coarsen/aggregate input)."""
    arr = twin_small.builder.build(0.0, 3600.0, 1.0)
    return twin_small.sampler().sample(arr)


@pytest.fixture(scope="module")
def coarse(telemetry):
    return coarsen_telemetry(telemetry, ["input_power"], width=10.0)


class TestClusterPowerEquivalence:
    @pytest.mark.parametrize(
        "chunk_s", [0.1 * DAY, 0.5 * DAY, DAY, 2 * DAY, 10 * DAY]
    )
    def test_chunk_sizes(self, twin_small, single_pass_power, chunk_s):
        pipe = Pipeline(twin_small, PipelineConfig(chunk_seconds=chunk_s,
                                                   backend="serial"))
        times, power = pipe.cluster_power()
        ref_t, ref_p = single_pass_power
        assert np.array_equal(times, ref_t)
        assert np.array_equal(power, ref_p)

    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    def test_backends(self, twin_small, single_pass_power, backend):
        pipe = Pipeline(twin_small, PipelineConfig(
            chunk_seconds=0.25 * DAY, backend=backend, max_workers=2,
        ))
        times, power = pipe.cluster_power()
        assert np.array_equal(times, single_pass_power[0])
        assert np.array_equal(power, single_pass_power[1])

    def test_seeded_random_chunk_sizes(self, twin_small, single_pass_power):
        # property-style sweep: arbitrary chunk widths never change a bit
        rng = np.random.default_rng(2024)
        for chunk_s in rng.uniform(600.0, 2.5 * DAY, size=6):
            pipe = Pipeline(twin_small, PipelineConfig(
                chunk_seconds=float(chunk_s), backend="serial",
            ))
            _, power = pipe.cluster_power()
            assert np.array_equal(power, single_pass_power[1]), chunk_s


class TestJobSeriesEquivalence:
    @pytest.mark.parametrize("chunk_s", [0.1 * DAY, 0.5 * DAY, DAY, 3 * DAY])
    def test_chunk_sizes(self, twin_small, single_pass_series, chunk_s):
        pipe = Pipeline(twin_small, PipelineConfig(chunk_seconds=chunk_s,
                                                   backend="serial"))
        assert_tables_equal(pipe.job_series(), single_pass_series)

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_backends(self, twin_small, single_pass_series, backend):
        pipe = Pipeline(twin_small, PipelineConfig(
            chunk_seconds=0.5 * DAY, backend=backend, max_workers=2,
        ))
        assert_tables_equal(pipe.job_series(), single_pass_series)

    def test_components(self, twin_small):
        ref = twin_small.job_series(components=True)
        pipe = Pipeline(twin_small, PipelineConfig(chunk_seconds=0.4 * DAY,
                                                   backend="serial"))
        assert_tables_equal(pipe.job_series(components=True), ref)


def build_dataset(telemetry, root, shard_s, fmt="rcs"):
    """Archive ``telemetry`` as ``shard_s``-wide time shards (the last one
    catches the 0-5 s collector-delay spillover past the hour)."""
    from repro.parallel.partition import PartitionedDataset

    ds = PartitionedDataset.create(root, "telemetry")
    t = telemetry["timestamp"]
    for lo in np.arange(0.0, float(t.max()) + 1.0, shard_s):
        sub = telemetry.filter((t >= lo) & (t < lo + shard_s))
        ds.append(sub, lo, lo + shard_s, fmt=fmt)
    return ds


@pytest.fixture(scope="module")
def sharded(telemetry, tmp_path_factory):
    """``sharded(shard_s, fmt)``: the hour archived at that shard width
    (built once per module, read-only)."""
    built = {}

    def get(shard_s, fmt="rcs"):
        if (shard_s, fmt) not in built:
            root = tmp_path_factory.mktemp(f"tel{int(shard_s)}{fmt}")
            built[shard_s, fmt] = build_dataset(telemetry, root, shard_s, fmt)
        return built[shard_s, fmt]

    return get


def node_level(ds, width=10.0):
    """Per-node coarsening over a store, through the query planner."""
    from repro.serve import Query, plan_query

    return plan_query(Query(level="node", width=width), ds).execute()


def filtered_reference(telemetry, t0, t1, width=10.0):
    t = telemetry["timestamp"]
    return cluster_power_series(coarsen_telemetry(
        telemetry.filter((t >= t0) & (t < t1)), ["input_power"], width=width,
    ))


class TestCoarsenAggregateEquivalence:
    @pytest.mark.parametrize("chunk_s", [300.0, 1000.0, 3600.0, DAY])
    def test_coarsen_chunk_sizes(self, telemetry, sharded, chunk_s):
        ref = coarsen_telemetry(telemetry, ["input_power"], width=10.0)
        assert_tables_equal(node_level(sharded(chunk_s)), ref)

    @pytest.mark.parametrize("chunk_s", [600.0, 1800.0, DAY])
    def test_cluster_series_chunk_sizes(self, twin_small, coarse, sharded,
                                        chunk_s):
        ref = cluster_power_series(coarse)
        pipe = Pipeline(twin_small, PipelineConfig(backend="serial"))
        assert_tables_equal(pipe.telemetry_series(sharded(chunk_s)), ref)

    @pytest.mark.parametrize("presorted", [None, True, False])
    def test_coarsen_presorted_routes(self, telemetry, tmp_path, presorted):
        # every kernel route stays bit-identical, and a node-major store
        # (the probe's fast path in every shard) coarsens to the same table
        ref = coarsen_telemetry(telemetry, ["input_power"], width=10.0)
        sorted_tel = telemetry.sort(["node", "timestamp"])
        got = coarsen_telemetry(sorted_tel, ["input_power"], width=10.0,
                                presorted=presorted)
        assert_tables_equal(got, ref)
        ds = build_dataset(sorted_tel, tmp_path / "sorted", 900.0)
        assert_tables_equal(node_level(ds), ref)


class TestFusedEquivalence:
    """telemetry_series: one read -> coarsen -> aggregate task per shard
    == single-pass, at every shard width, backend and cache state."""

    @pytest.fixture(scope="class")
    def single_pass(self, telemetry):
        return cluster_power_series(
            coarsen_telemetry(telemetry, ["input_power"], width=10.0)
        )

    @pytest.mark.parametrize("chunk_s", [300.0, 1000.0, 3600.0, DAY])
    def test_fused_chunk_sizes(self, twin_small, sharded, single_pass,
                               chunk_s):
        ds = sharded(chunk_s)
        pipe = Pipeline(twin_small, PipelineConfig(backend="serial"))
        assert_tables_equal(pipe.telemetry_series(ds), single_pass)
        assert pipe.stats.stage("series").calls == ds.n_partitions

    def test_fused_matches_unfused(self, twin_small, sharded):
        # one task per shard == coarsen and aggregate as separate steps
        ds = sharded(900.0)
        pipe = Pipeline(twin_small, PipelineConfig(backend="serial"))
        assert_tables_equal(pipe.telemetry_series(ds),
                            cluster_power_series(node_level(ds)))
        assert list(pipe.stats.stages) == ["series"]
        assert pipe.stats.stage("series").calls > 1

    @pytest.mark.parametrize("backend", ["threads", "processes"])
    def test_fused_backends(self, twin_small, sharded, single_pass, backend):
        pipe = Pipeline(twin_small, PipelineConfig(backend=backend,
                                                   max_workers=2))
        assert_tables_equal(pipe.telemetry_series(sharded(900.0)),
                            single_pass)

    def test_fused_dataset_source(self, twin_small, telemetry, single_pass,
                                  tmp_path):
        ds = build_dataset(telemetry, tmp_path / "tel", 900.0)
        pipe = Pipeline(twin_small, PipelineConfig(backend="serial"))
        got = pipe.telemetry_series(ds)
        assert_tables_equal(got, single_pass)
        assert pipe.stats.stage("series").calls == ds.n_partitions
        assert pipe.stats.stage("series").rows_in == ds.n_rows

    def test_table_source_rejected(self, twin_small, telemetry):
        pipe = Pipeline(twin_small, PipelineConfig(backend="serial"))
        with pytest.raises(TypeError, match="PartitionedDataset"):
            pipe.telemetry_series(telemetry)

    def test_fused_cache_cold_then_warm(self, twin_small, sharded,
                                        single_pass, tmp_path):
        cfg = PipelineConfig(backend="serial", cache_dir=tmp_path / "cache")
        cold = Pipeline(twin_small, cfg)
        assert_tables_equal(
            cold.telemetry_series(sharded(300.0), cache_token="tel-hour"),
            single_pass,
        )
        assert cold.stats.stage("series").cache_misses > 0
        warm = Pipeline(twin_small, cfg)
        assert_tables_equal(
            warm.telemetry_series(sharded(300.0), cache_token="tel-hour"),
            single_pass,
        )
        assert warm.stats.stage("series").cache_misses == 0
        assert (warm.stats.stage("series").cache_hits
                == cold.stats.stage("series").cache_misses)

    def test_compaction_never_serves_stale_cache(self, twin_small, telemetry,
                                                 single_pass, tmp_path):
        # compaction renumbers shards: a cache addressed by shard index
        # would answer the merged shards with the old small ones' series
        ds = build_dataset(telemetry, tmp_path / "tel", 300.0)
        cfg = PipelineConfig(backend="serial", cache_dir=tmp_path / "cache")
        before = Pipeline(twin_small, cfg).telemetry_series(
            ds, cache_token="tel")
        assert_tables_equal(before, single_pass)
        n_before = ds.n_partitions
        ds.compact(target_rows=3 * max(p.n_rows for p in ds.partitions))
        assert ds.n_partitions < n_before
        pipe = Pipeline(twin_small, cfg)
        after = pipe.telemetry_series(ds, cache_token="tel")
        assert_tables_equal(after, single_pass)
        assert pipe.stats.stage("series").cache_hits < n_before


class TestCacheEquivalence:
    def test_cold_then_warm_identical(self, twin_small, single_pass_series,
                                      single_pass_power, tmp_path):
        cfg = PipelineConfig(chunk_seconds=0.5 * DAY, backend="serial",
                             cache_dir=tmp_path / "cache")
        cold = Pipeline(twin_small, cfg)
        assert_tables_equal(cold.job_series(), single_pass_series)
        _, cold_p = cold.cluster_power()
        assert np.array_equal(cold_p, single_pass_power[1])
        assert cold.stats.total_cache_hits == 0
        assert cold.stats.total_cache_misses > 0

        warm = Pipeline(twin_small, cfg)
        assert_tables_equal(warm.job_series(), single_pass_series)
        _, warm_p = warm.cluster_power()
        assert np.array_equal(warm_p, single_pass_power[1])
        assert warm.stats.total_cache_misses == 0
        assert warm.stats.total_cache_hits == cold.stats.total_cache_misses

    def test_warm_across_chunk_size_change_is_a_miss(self, twin_small,
                                                     single_pass_power,
                                                     tmp_path):
        # the chunk layout is part of the address: changing it re-computes
        # (correctly) rather than stitching stale shards
        a = Pipeline(twin_small, PipelineConfig(
            chunk_seconds=0.5 * DAY, backend="serial",
            cache_dir=tmp_path / "cache"))
        a.cluster_power()
        b = Pipeline(twin_small, PipelineConfig(
            chunk_seconds=0.3 * DAY, backend="serial",
            cache_dir=tmp_path / "cache"))
        _, p = b.cluster_power()
        assert np.array_equal(p, single_pass_power[1])
        assert b.stats.total_cache_misses > 0


class TestExportEquivalence:
    def test_export_matches_classic_path(self, twin_small, tmp_path):
        from repro.datasets.store import export_datasets

        ref_root = tmp_path / "ref"
        export_datasets(twin_small, ref_root)
        pipe = Pipeline(twin_small, PipelineConfig(chunk_seconds=0.5 * DAY,
                                                   backend="serial"))
        got_root = tmp_path / "got"
        pipe.export(got_root)
        ref = _tree_digest(ref_root)
        got = _tree_digest(got_root)
        assert got == ref


class TestPushdownEquivalence:
    """Projection + predicate pushdown never changes a bit.

    rcs == npz, projected == full, pruned == filtered — across backends,
    shard widths, full / grid-aligned / unaligned ranges, cache off / on.
    """

    WIDTH = 10.0
    SHARD_S = 900.0
    #: full, aligned to the coarsen grid (and the 900 s shards), unaligned
    RANGES = [(None, None), (900.0, 2700.0), (903.5, 2701.25)]

    @pytest.fixture(scope="class")
    def datasets(self, sharded):
        return {fmt: sharded(self.SHARD_S, fmt) for fmt in ("rcs", "npz")}

    @pytest.fixture(scope="class")
    def single_pass(self, telemetry):
        return cluster_power_series(
            coarsen_telemetry(telemetry, ["input_power"], width=self.WIDTH)
        )

    @pytest.mark.parametrize("fmt", ["rcs", "npz"])
    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    @pytest.mark.parametrize("cached", [True, False])
    def test_formats_and_backends(self, twin_small, telemetry, sharded,
                                  tmp_path, fmt, backend, cached):
        # with the cache on, every range after the first runs against the
        # entries the earlier ranges stored: hits must stay bit-identical
        cfg = PipelineConfig(backend=backend, max_workers=2,
                             cache_dir=tmp_path / "cache" if cached else None)
        for shard_s in (300.0, self.SHARD_S):
            pipe = Pipeline(twin_small, cfg)
            for t0, t1 in self.RANGES:
                got = pipe.telemetry_series(
                    sharded(shard_s, fmt), t_begin=t0, t_end=t1,
                    cache_token=f"tel-{fmt}-{shard_s}",
                )
                ref = filtered_reference(
                    telemetry, -np.inf if t0 is None else t0,
                    np.inf if t1 is None else t1, self.WIDTH)
                assert_tables_equal(got, ref)
            series = pipe.stats.stage("series")
            if cached:
                assert series.cache_hits > 0
            else:
                assert series.cache_hits == series.cache_misses == 0

    @pytest.mark.parametrize("fmt", ["rcs", "npz"])
    @pytest.mark.parametrize("aligned", [True, False])
    def test_time_range_equals_filtered_full_read(self, twin_small, telemetry,
                                                  datasets, fmt, aligned):
        # pruned reads must reproduce exactly what filtering the full read
        # would have given, whether or not the bounds sit on the grid
        t0, t1 = self.RANGES[1] if aligned else self.RANGES[2]
        pipe = Pipeline(twin_small, PipelineConfig(backend="serial"))
        got = pipe.telemetry_series(datasets[fmt], t_begin=t0, t_end=t1)
        assert_tables_equal(got, filtered_reference(telemetry, t0, t1))

    def test_predicate_prunes_shards_before_read(self, twin_small, datasets):
        ds = datasets["rcs"]
        pipe = Pipeline(twin_small, PipelineConfig(backend="serial"))
        pipe.telemetry_series(ds, t_begin=self.SHARD_S,
                              t_end=3 * self.SHARD_S)
        # zone maps admit the in-range shards (plus, at most, the one
        # holding the 0-5 s collector-delay spillover at the range edge) —
        # the rest of the dataset is never opened
        assert pipe.stats.stage("series").calls < ds.n_partitions
        assert pipe.stats.stage("series").calls <= 3

    @pytest.mark.parametrize("fmt", ["rcs", "npz"])
    def test_dataset_cache_cold_then_warm(self, twin_small, datasets,
                                          single_pass, tmp_path, fmt):
        cfg = PipelineConfig(backend="serial", cache_dir=tmp_path / "cache")
        cold = Pipeline(twin_small, cfg)
        assert_tables_equal(
            cold.telemetry_series(datasets[fmt], cache_token=f"tel-{fmt}"),
            single_pass,
        )
        assert cold.stats.stage("series").cache_misses > 0
        warm = Pipeline(twin_small, cfg)
        assert_tables_equal(
            warm.telemetry_series(datasets[fmt], cache_token=f"tel-{fmt}"),
            single_pass,
        )
        assert warm.stats.stage("series").cache_misses == 0

    def test_time_range_addresses_different_cache_entries(self, twin_small,
                                                          telemetry, datasets,
                                                          tmp_path):
        # an aligned sub-range reuses the full run's entries for the shards
        # it covers fully, and never serves the full run's rows outside it
        cfg = PipelineConfig(backend="serial", cache_dir=tmp_path / "cache")
        ds = datasets["rcs"]
        full = Pipeline(twin_small, cfg).telemetry_series(
            ds, cache_token="tok")
        t0, t1 = self.SHARD_S, 3 * self.SHARD_S
        pruned_pipe = Pipeline(twin_small, cfg)
        pruned = pruned_pipe.telemetry_series(
            ds, cache_token="tok", t_begin=t0, t_end=t1)
        assert pruned_pipe.stats.stage("series").cache_hits > 0
        ref = filtered_reference(telemetry, t0, t1, self.WIDTH)
        assert_tables_equal(pruned, ref)
        ts = full["timestamp"]
        assert_tables_equal(
            full.filter((ts >= t0) & (ts < t1)), ref
        )

    def test_coarsen_accepts_dataset(self, datasets, telemetry):
        ref = coarsen_telemetry(telemetry, ["input_power"], width=self.WIDTH)
        got = coarsen_telemetry(datasets["rcs"], ["input_power"],
                                width=self.WIDTH)
        assert_tables_equal(got.sort(["node", "timestamp"]),
                            ref.sort(["node", "timestamp"]))

    def test_aggregate_accepts_dataset(self, coarse, tmp_path):
        from repro.datasets.store import write_partitioned_series

        ds = write_partitioned_series(
            coarse.sort("timestamp"), tmp_path, "coarse", day_s=900.0)
        ref = cluster_power_series(coarse)
        assert_tables_equal(cluster_power_series(ds), ref)
