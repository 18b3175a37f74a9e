"""The parallel engine: backends, stats merging, modeled speedup."""

from functools import partial

import pytest

from repro.engine.reporting import series_to_csv
from repro.errors import ParallelError
from repro.parallel.adaptivity import AdaptivityConfig
from repro.parallel.bench import bench_engine_config
from repro.parallel.engine import ParallelConfig, ParallelEngine, run_sharded
from repro.parallel.series import run_series_sharded
from repro.parallel.shard import ShardStats
from repro.parallel.spec import EngineSpec, ExperimentSpec
from repro.parallel.stats import StatsMerger
from repro.streams.workloads import fig9_workload, three_way_chain

CHAIN = partial(three_way_chain, t_multiplicity=5.0, window_r=64, window_s=64)
STAR = partial(fig9_workload, 4, window=32)


def spec_for(factory, arrivals=600, **kwargs):
    return ExperimentSpec(
        workload_factory=factory, arrivals=arrivals, **kwargs
    )


def test_config_validation():
    with pytest.raises(ParallelError):
        ParallelConfig(shards=0)
    with pytest.raises(ParallelError):
        ParallelConfig(shards=2, backend="threads")
    assert not ParallelConfig(shards=1).active
    assert ParallelConfig(shards=2).active


def test_process_backend_matches_serial_backend_exactly():
    spec = spec_for(CHAIN, output_mode="deltas")
    serial = run_sharded(spec, ParallelConfig(shards=2, backend="serial"))
    process = run_sharded(spec, ParallelConfig(shards=2, backend="process"))
    assert serial.merged_deltas() == process.merged_deltas()
    assert [r.stats for r in serial.results] == [
        r.stats for r in process.results
    ]
    assert serial.stats.critical_path_us == process.stats.critical_path_us
    assert process.restarts == {} and process.fallbacks == []


def test_modeled_speedup_on_the_star_workload():
    spec = spec_for(STAR, arrivals=1200, engine=EngineSpec(kind="mjoin"))
    one = run_sharded(spec, ParallelConfig(shards=1))
    four = run_sharded(spec, ParallelConfig(shards=4))
    speedup = four.stats.speedup_over_us(one.stats.critical_path_us)
    assert speedup > 1.8
    assert four.stats.balance > 0.5


def test_bench_meets_the_speedup_floor():
    """The adaptive engine on the 6-way star, steady-state measured,
    under the adaptivity plane: the benchmark's shared tunables."""
    spec = ExperimentSpec(
        workload_factory=partial(fig9_workload, 6, window=48),
        arrivals=2000,
        engine=bench_engine_config().engine_spec("adaptive"),
        warmup_fraction=0.4,
        output_mode="none",
        adaptivity=AdaptivityConfig(sync_every_updates=2000),
    )
    serial_us = run_sharded(
        spec, ParallelConfig(shards=1, backend="serial")
    ).stats.critical_path_us
    by_shards = {
        count: run_sharded(spec, ParallelConfig(shards=count)).stats
        for count in (1, 4)
    }
    assert by_shards[1].speedup_over_us(serial_us) == pytest.approx(
        1.0, abs=1e-6
    )
    # Acceptance floor: >= 1.8x modeled at 4 shards.
    assert by_shards[4].speedup_over_us(serial_us) >= 1.8


def test_merged_stats_arithmetic():
    stats = [
        ShardStats(
            shard=0, shard_count=2, updates_processed=100,
            outputs_emitted=10, cache_probes=50, cache_hits=25,
            clock_us=2_000_000.0, measured_updates=60,
            measured_span_us=1_000_000.0, used_caches=("a",),
            memory_bytes=100, per_cache_hits={"a": 25},
        ),
        ShardStats(
            shard=1, shard_count=2, updates_processed=200,
            outputs_emitted=30, cache_probes=50, cache_hits=0,
            clock_us=4_000_000.0, measured_updates=140,
            measured_span_us=2_000_000.0, used_caches=("a", "b"),
            memory_bytes=300, per_cache_hits={"a": 0},
        ),
    ]
    merged = StatsMerger().merge(stats, source_updates=250)
    assert merged.updates_processed == 300
    assert merged.source_updates == 250
    assert merged.total_work_us == 6_000_000.0
    assert merged.critical_path_us == 4_000_000.0
    assert merged.hit_rate == 0.25
    assert merged.used_caches == ("a", "b")
    assert merged.memory_bytes == 400
    # 250 source updates over a 4s critical path.
    assert merged.modeled_throughput == pytest.approx(62.5)
    # 200 measured updates over the slowest 2s measured span.
    assert merged.steady_throughput == pytest.approx(100.0)
    # mean clock 3s over max clock 4s.
    assert merged.balance == pytest.approx(0.75)
    assert merged.speedup_over_us(8_000_000.0) == pytest.approx(2.0)


def test_merger_rejects_inconsistent_shard_sets():
    lone = ShardStats(shard=0, shard_count=3)
    with pytest.raises(ParallelError):
        StatsMerger().merge([lone])
    with pytest.raises(ParallelError):
        StatsMerger().merge([])


def test_merge_summaries_sums_and_ors():
    merged = StatsMerger().merge_summaries(
        [
            {"shed_total": 3, "degraded": False, "by": {"R": 1}},
            None,
            {"shed_total": 4, "degraded": True, "by": {"R": 2, "S": 5}},
        ]
    )
    assert merged["shed_total"] == 7
    assert merged["degraded"] is True
    assert merged["by"] == {"R": 3, "S": 5}


def test_sharded_series_reports_shard_count():
    series = run_series_sharded(
        spec_for(CHAIN, arrivals=800), shards=2, sample_every_updates=400
    )
    assert series
    assert all(point.shard_count == 2 for point in series)
    assert all(point.window_throughput > 0 for point in series)
    csv_text = series_to_csv(series)
    assert "shard_count" in csv_text.splitlines()[0]
    assert ",2" in csv_text.splitlines()[1]


def test_windows_require_collection():
    run = run_sharded(spec_for(CHAIN), ParallelConfig(shards=2))
    with pytest.raises(ParallelError):
        run.merged_windows()
