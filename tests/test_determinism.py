"""Reproducibility: identical configurations yield identical runs.

The whole stack is seeded (generators, profiler sampling, LP rounding),
so two runs of the same experiment must agree bit-for-bit — the property
EXPERIMENTS.md relies on when recording reference numbers.
"""

from repro.core.acaching import ACaching, ACachingConfig
from repro.core.profiler import ProfilerConfig
from repro.core.reoptimizer import ReoptimizerConfig
from repro.engine.drive import drive
from repro.ordering.agreedy import OrderingConfig
from repro.streams.workloads import table2_workload, three_way_chain

CHAIN_ORDERS = {"T": ("S", "R"), "R": ("S", "T"), "S": ("R", "T")}


def run_once():
    workload = three_way_chain(t_multiplicity=5.0, window_r=32, window_s=32)
    config = ACachingConfig(
        profiler=ProfilerConfig(
            window=4, profile_probability=0.1, bloom_window_tuples=24
        ),
        reoptimizer=ReoptimizerConfig(
            reopt_interval_updates=1200, profiling_phase_updates=200
        ),
        ordering=OrderingConfig(interval_updates=1000),
    )
    engine = ACaching(workload.graph, orders=CHAIN_ORDERS, config=config)
    outputs = drive(engine, workload.updates(5000))
    return (
        engine.ctx.clock.now_us,
        engine.ctx.metrics.updates_processed,
        engine.ctx.metrics.cache_hits,
        engine.ctx.metrics.reoptimizations,
        tuple(sorted(engine.used_caches())),
        len(outputs),
    )


def test_adaptive_runs_are_bit_identical():
    assert run_once() == run_once()


def test_workload_streams_are_deterministic():
    a = [
        (u.relation, u.sign, u.row.values)
        for u in table2_workload("D5").updates(500)
    ]
    b = [
        (u.relation, u.sign, u.row.values)
        for u in table2_workload("D5").updates(500)
    ]
    assert a == b


def test_distinct_seeds_differ():
    a = [u.row.values for u in table2_workload("D5", seed=1).updates(300)]
    b = [u.row.values for u in table2_workload("D5", seed=2).updates(300)]
    assert a != b
