"""Tests for the Profiler's online estimation (Appendix A)."""

import pytest

from repro.caching.cache import Cache
from repro.caching.key import CacheKey
from repro.core.candidates import enumerate_candidates
from repro.core.profiler import PipelineProfile, Profiler, ProfilerConfig
from repro.engine.drive import drive
from repro.mjoin.executor import MJoinExecutor
from repro.operators.pipeline import ProfileSample
from repro.streams.workloads import three_way_chain

CHAIN_ORDERS = {"T": ("S", "R"), "R": ("S", "T"), "S": ("R", "T")}


def make_executor():
    workload = three_way_chain(t_multiplicity=3.0, window_r=32, window_s=32)
    executor = MJoinExecutor(workload.graph, orders=CHAIN_ORDERS)
    return workload, executor


class TestPipelineProfile:
    def test_d_and_c_estimates(self):
        profile = PipelineProfile("T", slots=2, window=4)
        # rate: one arrival every 100µs → 10_000 updates/sec.
        for i in range(8):
            profile.record_arrival(i * 100.0)
        for _ in range(4):
            profile.record_sample(
                ProfileSample(deltas=[1, 2, 6], taus=[10.0, 30.0])
            )
        assert profile.ready()
        assert profile.rate() == pytest.approx(10_000.0)
        assert profile.d(0) == pytest.approx(10_000.0)       # 1 per update
        assert profile.d(1) == pytest.approx(20_000.0)       # 2 per update
        assert profile.d(2) == pytest.approx(60_000.0)       # outputs
        assert profile.c(0) == pytest.approx(10.0)           # µs per tuple
        assert profile.c(1) == pytest.approx(15.0)           # 30µs over 2

    def test_not_ready_without_enough_samples(self):
        profile = PipelineProfile("T", slots=1, window=5)
        profile.record_sample(ProfileSample(deltas=[1, 1], taus=[1.0]))
        assert not profile.ready()

    def test_zero_rate_without_arrivals(self):
        profile = PipelineProfile("T", slots=1, window=2)
        assert profile.rate() == 0.0
        assert profile.d(0) == 0.0

    def test_c_with_no_tuples(self):
        profile = PipelineProfile("T", slots=1, window=1)
        profile.record_sample(ProfileSample(deltas=[0, 0], taus=[0.0]))
        assert profile.c(0) == 0.0


class TestProfilerIntegration:
    def test_gate_and_sink_fill_profiles(self):
        workload, executor = make_executor()
        profiler = Profiler(
            executor,
            ProfilerConfig(window=4, profile_probability=1.0),
        )
        drive(executor, workload.updates(300))
        for profile in profiler.profiles.values():
            assert profile.ready()
            assert profile.rate() > 0

    def test_bloom_lifecycle_and_miss_estimates(self):
        workload, executor = make_executor()
        profiler = Profiler(
            executor,
            ProfilerConfig(
                window=3, profile_probability=0.2, bloom_window_tuples=16
            ),
        )
        candidates = enumerate_candidates(
            workload.graph, executor.orders(), global_quota=4
        )
        for candidate in candidates:
            profiler.install_bloom(candidate)
        drive(executor, workload.updates(1500))
        target = candidates[0].candidate_id
        assert profiler.miss_prob(target) is not None
        assert 0.0 <= profiler.miss_prob(target) <= 1.0
        profiler.remove_bloom(target)
        assert target not in profiler._installed_blooms

    def test_duty_cycle_pauses_after_window(self):
        workload, executor = make_executor()
        profiler = Profiler(
            executor,
            ProfilerConfig(window=2, bloom_window_tuples=8),
        )
        candidates = enumerate_candidates(
            workload.graph, executor.orders(), global_quota=0
        )
        profiler.install_bloom(candidates[0])
        drive(executor, workload.updates(600))
        _owner, estimator = profiler._installed_blooms[
            candidates[0].candidate_id
        ]
        assert estimator.paused
        profiler.reactivate_blooms()
        assert not estimator.paused

    def test_statistics_for_full_candidate(self):
        workload, executor = make_executor()
        profiler = Profiler(
            executor,
            ProfilerConfig(
                window=3, profile_probability=0.5, bloom_window_tuples=16
            ),
        )
        candidates = enumerate_candidates(
            workload.graph, executor.orders(), global_quota=0
        )
        for candidate in candidates:
            profiler.install_bloom(candidate)
        drive(executor, workload.updates(1200))
        stats = profiler.statistics_for(candidates[0])
        assert stats is not None
        assert stats.d_probe > 0
        assert stats.maintenance_rate >= 0
        assert 0 <= stats.miss_prob <= 1

    def test_statistics_none_before_ready(self):
        workload, executor = make_executor()
        profiler = Profiler(executor, ProfilerConfig(window=10))
        candidates = enumerate_candidates(
            workload.graph, executor.orders(), global_quota=0
        )
        assert profiler.statistics_for(candidates[0]) is None

    def test_harvest_respects_maturity(self):
        workload, executor = make_executor()
        profiler = Profiler(executor, ProfilerConfig(window=4))
        key = CacheKey(workload.graph, ("T",), ("S", "R"))
        cache = Cache("c", "T", ("S", "R"), key)
        cache.probes, cache.hits = 100, 50  # immature: entry_count 0 but <300
        profiler.harvest_used_cache("c", cache)
        assert profiler.miss_prob("c") is None
        cache.probes, cache.hits = 500, 400
        profiler.harvest_used_cache("c", cache)
        assert profiler.miss_prob("c") == pytest.approx(0.2)
        assert cache.probes == 0  # counters reset after harvest

    def test_expected_entries_scales_with_miss(self):
        workload, executor = make_executor()
        profiler = Profiler(
            executor, ProfilerConfig(window=2, bloom_window_tuples=100)
        )
        candidates = enumerate_candidates(
            workload.graph, executor.orders(), global_quota=0
        )
        cid = candidates[0].candidate_id
        profiler._observe_miss(cid, 0.5)
        profiler._observe_miss(cid, 0.5)
        assert profiler.expected_entries(candidates[0]) == pytest.approx(
            2 * 0.5 * 100
        )

    def test_rebuild_profiles_on_reorder(self):
        workload, executor = make_executor()
        profiler = Profiler(
            executor, ProfilerConfig(window=2, profile_probability=1.0)
        )
        drive(executor, workload.updates(200))
        assert profiler.profiles["T"].ready()
        executor.reorder_pipeline("T", ("R", "S"))
        profiler.rebuild_profiles("T")
        assert not profiler.profiles["T"].ready()
        # Other pipelines keep their history.
        assert profiler.profiles["R"].ready()

    def test_rebuild_profiles_preserves_arrival_rate_history(self):
        # Reordering a pipeline invalidates its δ/τ evidence (they
        # describe the old plan) but not its arrival history: rate(Ri)
        # is a property of the stream, not the plan. Losing it would
        # zero the rate — and with it every d-term — until the window
        # refills, starving selection after each reorder.
        workload, executor = make_executor()
        profiler = Profiler(
            executor, ProfilerConfig(window=2, profile_probability=1.0)
        )
        drive(executor, workload.updates(200))
        rate_before = profiler.profiles["T"].rate()
        assert rate_before > 0.0
        executor.reorder_pipeline("T", ("R", "S"))
        profiler.rebuild_profiles("T")
        assert profiler.profiles["T"].rate() == pytest.approx(rate_before)
