"""The library's central correctness property.

Caches are pure accelerators: for any workload, any pipeline orderings,
and any legal combination of prefix-invariant and globally-consistent
caches, the emitted result-delta stream must be *identical* (as a
multiset) to the cache-free MJoin's, and the accumulated live result must
equal a brute-force recomputation from the final window contents.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import enumerate_candidates
from repro.core.wiring import CacheWiring
from repro.engine.drive import drive
from repro.mjoin.executor import MJoinExecutor
from repro.relations.predicates import JoinGraph
from repro.streams.events import Sign
from repro.streams.tuples import Schema
from repro.streams.workloads import (
    fig9_workload,
    table2_workload,
    three_way_chain,
)


def normalized_deltas(outputs):
    return sorted(
        (
            int(o.sign),
            tuple(sorted((r, o.composite.row(r).rid) for r in o.composite)),
        )
        for o in outputs
    )


def brute_force_chain(executor):
    """Live |R ⋈ S ⋈ T| for the three-way chain query."""
    total = 0
    for s in executor.relations["S"].rows():
        total += executor.relations["R"].match_count(
            "A", s.values[0]
        ) * executor.relations["T"].match_count("B", s.values[1])
    return total


def brute_force_star(executor, names):
    """Live n-way star join size via index counts."""
    total = 0
    first = names[0]
    for row in executor.relations[first].rows():
        product = 1
        for other in names[1:]:
            product *= executor.relations[other].match_count(
                "A", row.values[0]
            )
            if product == 0:
                break
        total += product
    return total


def run_with_caches(workload, orders, candidate_filter, arrivals):
    executor = MJoinExecutor(
        workload.graph,
        orders=orders,
        indexed_attributes=workload.indexed_attributes,
    )
    candidates = enumerate_candidates(
        workload.graph, executor.orders(), global_quota=10
    )
    wiring = CacheWiring(executor)
    chosen = []
    for candidate in candidates:
        if not candidate_filter(candidate):
            continue
        if any(candidate.conflicts_with(c) for c in chosen):
            continue
        chosen.append(candidate)
        wiring.attach(candidate, buckets=64)
    outputs = drive(executor, workload.updates(arrivals))
    return executor, outputs, chosen


CHAIN_ORDERS = [
    {"R": ("S", "T"), "S": ("R", "T"), "T": ("S", "R")},
    {"R": ("T", "S"), "S": ("R", "T"), "T": ("S", "R")},
    {"R": ("S", "T"), "S": ("T", "R"), "T": ("S", "R")},
]


class TestChainConsistency:
    @pytest.mark.parametrize("orders", CHAIN_ORDERS)
    @pytest.mark.parametrize("use_globals", [False, True])
    def test_all_candidates_preserve_outputs(self, orders, use_globals):
        def wanted(candidate):
            return candidate.is_global == use_globals or not candidate.is_global

        workload = three_way_chain(
            t_multiplicity=3.0, window_r=24, window_s=24
        )
        executor, outputs, chosen = run_with_caches(
            workload, orders, wanted, arrivals=1500
        )
        baseline_workload = three_way_chain(
            t_multiplicity=3.0, window_r=24, window_s=24
        )
        baseline = MJoinExecutor(baseline_workload.graph, orders=orders)
        baseline_outputs = drive(baseline, baseline_workload.updates(1500))
        assert normalized_deltas(outputs) == normalized_deltas(
            baseline_outputs
        )
        live = sum(int(o.sign) for o in outputs)
        assert live == brute_force_chain(executor)

    def test_global_only_candidates(self):
        orders = {"R": ("T", "S"), "S": ("R", "T"), "T": ("S", "R")}
        workload = three_way_chain(
            t_multiplicity=3.0, window_r=24, window_s=24
        )
        executor, outputs, chosen = run_with_caches(
            workload, orders, lambda c: c.is_global, arrivals=1500
        )
        assert chosen, "expected at least one global candidate"
        live = sum(int(o.sign) for o in outputs)
        assert live == brute_force_chain(executor)
        assert executor.ctx.metrics.cache_hits > 0


class TestStarConsistency:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_star_with_all_prefix_candidates(self, n):
        workload = fig9_workload(n, window=16)
        names = [f"R{i}" for i in range(1, n + 1)]
        executor, outputs, chosen = run_with_caches(
            workload, None, lambda c: not c.is_global, arrivals=900
        )
        live = sum(int(o.sign) for o in outputs)
        assert live == brute_force_star(executor, names)

    def test_table2_point_with_globals(self):
        workload = table2_workload("D5", window_base=12)
        executor, outputs, chosen = run_with_caches(
            workload, None, lambda c: True, arrivals=900
        )
        names = [f"R{i}" for i in range(1, 5)]
        live = sum(int(o.sign) for o in outputs)
        assert live == brute_force_star(executor, names)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    t_multiplicity=st.sampled_from([1.0, 2.0, 5.0]),
    window=st.sampled_from([8, 16, 32]),
)
def test_random_cache_subsets_preserve_outputs(seed, t_multiplicity, window):
    """Property: ANY nonoverlapping candidate subset leaves outputs intact."""
    rng = random.Random(seed)
    orders = rng.choice(CHAIN_ORDERS)

    def coin(_candidate):
        return rng.random() < 0.7

    workload = three_way_chain(
        t_multiplicity=t_multiplicity, window_r=window, window_s=window
    )
    executor, outputs, chosen = run_with_caches(
        workload, orders, coin, arrivals=800
    )
    live = sum(int(o.sign) for o in outputs)
    assert live == brute_force_chain(executor)

    baseline_workload = three_way_chain(
        t_multiplicity=t_multiplicity, window_r=window, window_s=window
    )
    baseline = MJoinExecutor(baseline_workload.graph, orders=orders)
    baseline_outputs = drive(baseline, baseline_workload.updates(800))
    assert normalized_deltas(outputs) == normalized_deltas(baseline_outputs)


def test_adaptive_engine_preserves_outputs():
    """The full adaptive stack (profiler + reoptimizer + orderer) is exact."""
    from repro.api import EngineConfig, build_adaptive_engine
    from repro.core.acaching import ACachingConfig
    from repro.core.profiler import ProfilerConfig
    from repro.core.reoptimizer import ReoptimizerConfig

    workload = three_way_chain(t_multiplicity=5.0, window_r=32, window_s=32)
    config = ACachingConfig(
        profiler=ProfilerConfig(
            window=5, profile_probability=0.1, bloom_window_tuples=24
        ),
        reoptimizer=ReoptimizerConfig(
            reopt_interval_updates=1200, profiling_phase_updates=200
        ),
    )
    engine = build_adaptive_engine(workload, EngineConfig(tuning=config))
    outputs = drive(engine, workload.updates(6000))
    live = sum(int(o.sign) for o in outputs)
    assert live == brute_force_chain(engine.executor)

    baseline_workload = three_way_chain(
        t_multiplicity=5.0, window_r=32, window_s=32
    )
    baseline = MJoinExecutor(baseline_workload.graph)
    baseline_outputs = drive(baseline, baseline_workload.updates(6000))
    # Orders may differ mid-run, but the delta multiset must match.
    assert normalized_deltas(outputs) == normalized_deltas(baseline_outputs)
