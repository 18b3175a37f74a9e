"""Tests for cache wiring and the adaptive re-optimizer."""

import pytest

from repro.caching.global_cache import GlobalCache
from repro.core.acaching import ACaching, ACachingConfig
from repro.core.candidates import enumerate_candidates
from repro.core.profiler import Profiler, ProfilerConfig
from repro.core.reoptimizer import (
    CandidateState,
    Reoptimizer,
    ReoptimizerConfig,
)
from repro.core.wiring import CacheWiring
from repro.engine.drive import drive
from repro.errors import PlanError
from repro.mjoin.executor import MJoinExecutor
from repro.ordering.agreedy import OrderingConfig
from repro.streams.workloads import star_graph, three_way_chain

CHAIN_ORDERS = {"T": ("S", "R"), "R": ("S", "T"), "S": ("R", "T")}

FIGURE5_ORDERS = {
    "R1": ("R2", "R3", "R4", "R5", "R6"),
    "R2": ("R1", "R3", "R5", "R4", "R6"),
    "R3": ("R2", "R1", "R4", "R5", "R6"),
    "R4": ("R5", "R1", "R2", "R3", "R6"),
    "R5": ("R4", "R2", "R3", "R1", "R6"),
    "R6": ("R2", "R1", "R4", "R5", "R3"),
}


def chain_setup():
    workload = three_way_chain(t_multiplicity=3.0, window_r=24, window_s=24)
    executor = MJoinExecutor(workload.graph, orders=CHAIN_ORDERS)
    candidates = {
        c.candidate_id: c
        for c in enumerate_candidates(
            workload.graph, executor.orders(), global_quota=8
        )
    }
    return workload, executor, candidates


class TestWiring:
    def test_attach_and_detach(self):
        workload, executor, candidates = chain_setup()
        wiring = CacheWiring(executor)
        wired = wiring.attach(candidates["T:0-1p"])
        assert wired.lookup_attached
        assert executor.pipelines["T"].active_lookups()
        # Maintenance taps in both member pipelines.
        assert executor.pipelines["R"]._updates
        assert executor.pipelines["S"]._updates
        wiring.detach("T:0-1p")
        assert not executor.pipelines["T"].active_lookups()
        assert not executor.pipelines["R"]._updates

    def test_global_candidate_gets_global_cache(self):
        workload, executor, candidates = chain_setup()
        wiring = CacheWiring(executor)
        global_id = next(
            cid for cid, c in candidates.items() if c.is_global
        )
        wired = wiring.attach(candidates[global_id])
        assert isinstance(wired.cache, GlobalCache)

    def test_owner_anchored_global_skips_own_tap(self):
        workload, executor, candidates = chain_setup()
        wiring = CacheWiring(executor)
        candidate = candidates["R:0-1g"]
        assert "R" in candidate.anchor
        wiring.attach(candidate)
        assert not executor.pipelines["R"]._updates  # no self-tap
        assert executor.pipelines["S"]._updates
        assert executor.pipelines["T"]._updates

    def test_suspend_and_resume(self):
        workload, executor, candidates = chain_setup()
        wiring = CacheWiring(executor)
        wiring.attach(candidates["T:0-1p"])
        wiring.suspend_lookup("T:0-1p")
        assert not executor.pipelines["T"].active_lookups()
        assert executor.pipelines["R"]._updates  # taps stay warm
        wiring.resume_lookup("T:0-1p")
        assert executor.pipelines["T"].active_lookups()

    def test_shared_instances_counted_once(self):
        graph = star_graph(6)
        executor = MJoinExecutor(graph, orders=FIGURE5_ORDERS)
        candidates = enumerate_candidates(
            graph, FIGURE5_ORDERS, global_quota=0
        )
        shared = [
            c
            for c in candidates
            if frozenset(c.segment) == frozenset({"R1", "R2"})
        ]
        assert len(shared) == 3
        wiring = CacheWiring(executor)
        wired = [wiring.attach(c) for c in shared]
        assert len({id(w.cache) for w in wired}) == 1  # one physical store
        # Dropping one user keeps the store; dropping all clears it.
        wiring.detach(shared[0].candidate_id)
        assert wiring.memory_bytes() >= 0
        assert wired[1].cache is wiring.wired[shared[1].candidate_id].cache
        wiring.detach_all()
        assert not wiring.wired

    def test_drop_touching(self):
        workload, executor, candidates = chain_setup()
        wiring = CacheWiring(executor)
        wiring.attach(candidates["T:0-1p"])
        dropped = wiring.drop_touching("R")  # R is in the maintenance set
        assert dropped == ["T:0-1p"]

    def test_owner_witness_counter(self):
        workload, executor, candidates = chain_setup()
        wiring = CacheWiring(executor)
        wired = wiring.attach(candidates["R:0-1g"])
        counter = wired.lookup.owner_witness_count
        assert counter is not None
        from repro.streams.tuples import RowFactory

        rows = RowFactory()
        r1 = rows.make((5,))
        r2 = rows.make((5,))
        executor.relations["R"].insert(r1)
        probe_key = wired.lookup.key.probe_value((r1,))
        assert counter(probe_key) == 1
        executor.relations["R"].insert(r2)
        assert counter(probe_key) == 2

    def test_prefix_cache_has_no_witness_counter(self):
        workload, executor, candidates = chain_setup()
        wiring = CacheWiring(executor)
        wired = wiring.attach(candidates["T:0-1p"])
        assert wired.lookup.owner_witness_count is None


class TestReoptimizer:
    def adaptive_engine(self, arrivals=6000, **reopt_kwargs):
        workload = three_way_chain(
            t_multiplicity=5.0, window_r=32, window_s=32
        )
        config = ACachingConfig(
            profiler=ProfilerConfig(
                window=4, profile_probability=0.1, bloom_window_tuples=24
            ),
            reoptimizer=ReoptimizerConfig(
                reopt_interval_updates=1200,
                profiling_phase_updates=200,
                **reopt_kwargs,
            ),
            ordering=OrderingConfig(interval_updates=10**9),  # static orders
        )
        engine = ACaching(
            workload.graph,
            orders=CHAIN_ORDERS,
            config=config,
        )
        return workload, engine

    def test_bootstrap_states(self):
        workload, engine = self.adaptive_engine()
        states = engine.reoptimizer.states
        assert states
        assert all(s is CandidateState.PROFILED for s in states.values())

    def test_converges_to_profitable_cache(self):
        workload, engine = self.adaptive_engine()
        drive(engine, workload.updates(6000))
        assert "T:0-1p" in engine.used_caches()
        assert engine.ctx.metrics.reoptimizations >= 1

    def test_change_threshold_suppresses_reruns(self):
        workload, engine = self.adaptive_engine(change_threshold=10.0)
        drive(engine, workload.updates(6000))
        # A huge threshold lets at most the first selection through.
        assert engine.ctx.metrics.reoptimizations <= 1

    def test_on_reorder_drops_and_reenumerates(self):
        workload, engine = self.adaptive_engine()
        drive(engine, workload.updates(6000))
        assert engine.used_caches()
        engine.executor.reorder_pipeline("S", ("T", "R"))
        engine.reoptimizer.on_reorder("S")
        # The {S,R} candidate dies with the new ∆S order.
        assert "T:0-1p" not in engine.reoptimizer.candidates
        assert engine.used_caches() == []

    def test_memory_budget_zero_blocks_caches(self):
        workload, engine = self.adaptive_engine(memory_budget_bytes=0)
        drive(engine, workload.updates(6000))
        assert engine.used_caches() == []
        assert engine.memory_in_use() == 0

    def test_enforce_memory_detaches_over_budget(self):
        workload, engine = self.adaptive_engine()
        drive(engine, workload.updates(6000))
        assert engine.used_caches()
        engine.reoptimizer.allocator.budget_bytes = 1  # shrink budget
        victims = engine.reoptimizer.enforce_memory()
        assert victims
        assert engine.memory_in_use() <= 1 or not engine.used_caches()
