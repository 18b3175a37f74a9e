"""Tests for the clock, metrics, runtime helpers, and plan runners."""

import pytest

from repro.api import EngineConfig, build_static_plan
from repro.engine.clock import CostModel, Stopwatch, VirtualClock, WallClock
from repro.engine.drive import drive
from repro.engine.metrics import Metrics
from repro.engine.runtime import available_candidates, run_with_series
from repro.errors import PlanError
from repro.planner.enumeration import (
    best_xjoin,
    measured_run,
    plan_spectrum,
    run_acaching,
    run_mjoin,
)
from repro.streams.events import Sign
from repro.streams.workloads import three_way_chain

CHAIN_ORDERS = {"T": ("S", "R"), "R": ("S", "T"), "S": ("R", "T")}


class TestClock:
    def test_virtual_clock_accumulates(self):
        clock = VirtualClock()
        clock.charge(500.0)
        clock.charge(1500.0)
        assert clock.now_us == 2000.0
        assert clock.now_seconds == pytest.approx(0.002)

    def test_wall_clock_ignores_charges(self):
        clock = WallClock()
        before = clock.now_us
        clock.charge(10**9)
        assert clock.now_us - before < 1e6  # charging added nothing

    def test_stopwatch(self):
        clock = VirtualClock()
        watch = Stopwatch(clock)
        watch.start()
        clock.charge(42.0)
        assert watch.elapsed_us() == 42.0

    def test_calibration_three_way_mjoin_rate(self):
        """The cost model keeps rates in the paper's 10^4-10^5 range."""
        from repro.mjoin.executor import MJoinExecutor

        workload = three_way_chain(
            t_multiplicity=5.0, window_r=64, window_s=64
        )
        executor = MJoinExecutor(workload.graph, orders=CHAIN_ORDERS)
        drive(executor, workload.updates(3000))
        rate = executor.ctx.metrics.throughput(
            executor.ctx.clock.now_seconds
        )
        assert 10_000 <= rate <= 500_000


class TestMetrics:
    def test_throughput(self):
        metrics = Metrics(updates_processed=100)
        assert metrics.throughput(2.0) == 50.0
        assert metrics.throughput(0.0) == 0.0

    def test_hit_rate_and_probe_recording(self):
        metrics = Metrics()
        metrics.record_probe("c", hit=True)
        metrics.record_probe("c", hit=False)
        assert metrics.hit_rate == 0.5
        assert metrics.per_cache_hits == {"c": 1}

    def test_snapshot_is_detached(self):
        metrics = Metrics(updates_processed=5)
        snap = metrics.snapshot()
        metrics.updates_processed = 99
        assert snap.updates_processed == 5


class TestStaticPlanRuntime:
    def test_available_candidates(self):
        workload = three_way_chain()
        ids = available_candidates(workload, orders=CHAIN_ORDERS)
        assert "T:0-1p" in ids
        assert "R:0-1g" in ids

    def test_static_plan_unknown_candidate(self):
        workload = three_way_chain()
        with pytest.raises(PlanError, match="unknown candidate"):
            build_static_plan(
                workload,
                EngineConfig(orders=CHAIN_ORDERS, candidate_ids=("nope",)),
            )

    def test_static_plan_conflicting_candidates(self):
        workload = three_way_chain()
        orders = {"R": ("T", "S"), "S": ("R", "T"), "T": ("S", "R")}
        ids = available_candidates(workload, orders=orders)
        overlapping = [i for i in ids if i.startswith("R:")][:2]
        if len(overlapping) >= 2:
            with pytest.raises(PlanError, match="conflict"):
                build_static_plan(
                    workload,
                    EngineConfig(
                        orders=orders, candidate_ids=tuple(overlapping)
                    ),
                )

    def test_run_with_series_samples(self):
        workload = three_way_chain(t_multiplicity=3.0, window_r=16, window_s=16)
        plan = build_static_plan(workload, EngineConfig(orders=CHAIN_ORDERS))
        series = run_with_series(
            plan,
            workload.updates(2000),
            sample_every_updates=500,
            x_of=lambda u: u.relation == "S" and u.sign is Sign.INSERT,
        )
        assert len(series) >= 3
        assert all(p.window_throughput > 0 for p in series)
        xs = [p.x for p in series]
        assert xs == sorted(xs)


class TestPlanRunners:
    def test_measured_run_excludes_warmup(self):
        workload = three_way_chain(t_multiplicity=3.0, window_r=16, window_s=16)
        from repro.mjoin.executor import MJoinExecutor

        executor = MJoinExecutor(workload.graph, orders=CHAIN_ORDERS)
        rate = measured_run(executor, workload, arrivals=800, warmup_fraction=0.5)
        assert rate > 0

    def test_run_mjoin_static_orders(self):
        result = run_mjoin(
            lambda: three_way_chain(
                t_multiplicity=3.0, window_r=16, window_s=16
            ),
            arrivals=800,
            adaptive_ordering=False,
            orders=CHAIN_ORDERS,
        )
        assert result.label == "MJoin"
        assert result.throughput > 0
        assert result.detail["orders"]["T"] == ("S", "R")

    def test_best_xjoin_searches_trees(self):
        result = best_xjoin(
            lambda: three_way_chain(
                t_multiplicity=3.0, window_r=16, window_s=16
            ),
            arrivals=800,
        )
        assert result.detail["trees_searched"] == 2
        assert result.memory_peak_bytes > 0

    def test_run_acaching_reports_caches(self):
        result = run_acaching(
            lambda: three_way_chain(
                t_multiplicity=5.0, window_r=24, window_s=24
            ),
            arrivals=4000,
            global_quota=0,
            reopt_interval_updates=1500,
            stat_window=4,
        )
        assert "used_caches" in result.detail
        assert result.throughput > 0
