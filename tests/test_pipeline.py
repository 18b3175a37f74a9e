"""Tests for pipeline execution, taps, bypass rules, and profiling mode."""

import pytest

from repro.caching.cache import Cache
from repro.caching.key import CacheKey
from repro.errors import PlanError
from repro.mjoin.executor import MJoinExecutor
from repro.operators.base import ExecContext
from repro.operators.cache_ops import CacheLookup, CacheUpdate
from repro.operators.pipeline import Pipeline
from repro.streams.events import Sign, Update
from repro.streams.workloads import three_way_chain

CHAIN_ORDERS = {"T": ("S", "R"), "R": ("S", "T"), "S": ("R", "T")}


def setup_executor():
    workload = three_way_chain(t_multiplicity=3.0, window_r=16, window_s=16)
    executor = MJoinExecutor(workload.graph, orders=CHAIN_ORDERS)
    return workload, executor


def make_cache(graph):
    key = CacheKey(graph, ("T",), ("S", "R"))
    return Cache("c", "T", ("S", "R"), key, buckets=64)


def tap_cache(graph, prefix, segment):
    """A cache a tap at a slot laid out as ``segment`` can maintain."""
    return Cache("t", prefix[0], segment, CacheKey(graph, prefix, segment))


class TestPlumbingValidation:
    def test_overlapping_lookups_rejected(self):
        workload, executor = setup_executor()
        cache = make_cache(workload.graph)
        pipeline = executor.pipelines["T"]
        pipeline.attach_lookup(CacheLookup(cache, 0, 1))
        with pytest.raises(PlanError, match="overlap"):
            pipeline.attach_lookup(CacheLookup(cache, 1, 1))

    def test_lookup_past_pipeline_rejected(self):
        workload, executor = setup_executor()
        cache = make_cache(workload.graph)
        with pytest.raises(PlanError):
            executor.pipelines["T"].attach_lookup(CacheLookup(cache, 0, 5))

    def test_tap_inside_bypass_rejected_both_ways(self):
        workload, executor = setup_executor()
        cache = make_cache(workload.graph)
        pipeline = executor.pipelines["T"]
        pipeline.attach_lookup(CacheLookup(cache, 0, 1))
        tapped = tap_cache(workload.graph, ("R",), ("T", "S"))
        with pytest.raises(PlanError, match="prefix invariant"):
            pipeline.attach_update(CacheUpdate(tapped, 1, "T"))
        pipeline.detach_lookup("c")
        pipeline.attach_update(CacheUpdate(tapped, 1, "T"))
        with pytest.raises(PlanError, match="prefix invariant"):
            pipeline.attach_lookup(CacheLookup(cache, 0, 1))

    def test_tap_at_lookup_start_allowed(self):
        workload, executor = setup_executor()
        cache = make_cache(workload.graph)
        pipeline = executor.pipelines["T"]
        tapped = tap_cache(workload.graph, ("S",), ("T",))
        pipeline.attach_update(CacheUpdate(tapped, 0, "T"))
        pipeline.attach_lookup(CacheLookup(cache, 0, 1))  # start slot is ok

    def test_detach_missing_returns_false(self):
        workload, executor = setup_executor()
        assert not executor.pipelines["T"].detach_lookup("ghost")
        assert executor.pipelines["T"].detach_updates("ghost") == 0
        assert executor.pipelines["T"].detach_bloom("ghost") == 0

    def test_clear_plumbing(self):
        workload, executor = setup_executor()
        cache = make_cache(workload.graph)
        pipeline = executor.pipelines["T"]
        pipeline.attach_lookup(CacheLookup(cache, 0, 1))
        pipeline.clear_plumbing()
        assert not pipeline.active_lookups()


class TestProfileMode:
    def test_profiled_tuple_bypasses_caches(self):
        workload, executor = setup_executor()
        cache = make_cache(workload.graph)
        executor.pipelines["T"].attach_lookup(CacheLookup(cache, 0, 1))
        ctx = executor.ctx
        updates = [u for u in workload.updates(200)]
        t_update = next(u for u in updates if u.relation == "T")
        # Warm relations first.
        for update in updates:
            executor.process(update)
        probes_before = cache.probes
        composites, sample = executor.pipelines["T"].process(
            t_update.row, Sign.INSERT, ctx, profile=True
        )
        assert cache.probes == probes_before  # no probe in profile mode
        assert sample is not None
        assert len(sample.deltas) == 3  # slots 0, 1, outputs
        assert len(sample.taus) == 2

    def test_profile_sample_counts_outputs(self):
        workload, executor = setup_executor()
        ctx = executor.ctx
        for update in workload.updates(300):
            executor.process(update)
        t_pipeline = executor.pipelines["T"]
        row = next(
            u.row for u in workload.updates(10) if u.relation == "T"
        )
        composites, sample = t_pipeline.process(
            row, Sign.INSERT, ctx, profile=True
        )
        assert sample.deltas[-1] == len(composites)


class TestPositionHelpers:
    def test_order_and_position(self):
        workload, executor = setup_executor()
        pipeline = executor.pipelines["T"]
        assert pipeline.order == ("S", "R")
        assert pipeline.position_of("R") == 1
        with pytest.raises(PlanError):
            pipeline.position_of("T")
