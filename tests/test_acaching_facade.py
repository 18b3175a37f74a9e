"""Tests for the ACaching facade and its wiring of the subsystems."""

import pytest

from repro.api import EngineConfig, build_adaptive_engine
from repro.core.acaching import ACaching, ACachingConfig
from repro.core.profiler import ProfilerConfig
from repro.core.reoptimizer import ReoptimizerConfig
from repro.engine.clock import WallClock
from repro.engine.drive import drive
from repro.operators.base import ExecContext
from repro.ordering.agreedy import OrderingConfig
from repro.streams.events import Sign
from repro.streams.workloads import three_way_chain

CHAIN_ORDERS = {"T": ("S", "R"), "R": ("S", "T"), "S": ("R", "T")}


def small_config(**reopt):
    return ACachingConfig(
        profiler=ProfilerConfig(
            window=4, profile_probability=0.1, bloom_window_tuples=24
        ),
        reoptimizer=ReoptimizerConfig(
            reopt_interval_updates=1000, profiling_phase_updates=200, **reopt
        ),
        ordering=OrderingConfig(interval_updates=10**9),
    )


class TestFacade:
    def test_for_workload_uses_index_config(self):
        from repro.streams.workloads import fig10_workload

        workload = fig10_workload(s_window=50)
        engine = build_adaptive_engine(
            workload, EngineConfig(tuning=small_config())
        )
        assert not engine.executor.relations["S"].has_index("B")

    def test_ctx_property(self):
        workload = three_way_chain()
        engine = build_adaptive_engine(
            workload, EngineConfig(tuning=small_config())
        )
        assert engine.ctx is engine.executor.ctx

    def test_run_returns_all_deltas(self):
        workload = three_way_chain(
            t_multiplicity=2.0, window_r=16, window_s=16
        )
        engine = ACaching(
            workload.graph, orders=CHAIN_ORDERS, config=small_config()
        )
        outputs = drive(engine, workload.updates(600))
        assert all(o.sign in (Sign.INSERT, Sign.DELETE) for o in outputs)

    def test_candidate_states_are_strings(self):
        workload = three_way_chain()
        engine = build_adaptive_engine(
            workload, EngineConfig(tuning=small_config())
        )
        states = engine.candidate_states()
        assert states
        assert set(states.values()) <= {"used", "profiled", "unused"}

    def test_throughput_zero_before_work(self):
        workload = three_way_chain()
        engine = build_adaptive_engine(
            workload, EngineConfig(tuning=small_config())
        )
        assert engine.throughput() == 0.0

    def test_wall_clock_mode(self):
        workload = three_way_chain(
            t_multiplicity=2.0, window_r=16, window_s=16
        )
        ctx = ExecContext(clock=WallClock())
        engine = ACaching(
            workload.graph,
            orders=CHAIN_ORDERS,
            config=small_config(),
            ctx=ctx,
        )
        drive(engine, workload.updates(400))
        # Real time passed; virtual charges were ignored.
        assert engine.ctx.clock.now_seconds > 0
        assert engine.throughput() > 0

    def test_memory_budget_plumbed_to_allocator(self):
        workload = three_way_chain()
        engine = build_adaptive_engine(
            workload,
            EngineConfig(tuning=small_config(memory_budget_bytes=12345)),
        )
        assert engine.reoptimizer.allocator.budget_bytes == 12345

    def test_disable_adaptive_ordering(self):
        workload = three_way_chain()
        config = small_config()
        config.adaptive_ordering = False
        engine = build_adaptive_engine(workload, EngineConfig(tuning=config))
        assert engine.orderer is None
        drive(engine, workload.updates(200))  # still processes fine
