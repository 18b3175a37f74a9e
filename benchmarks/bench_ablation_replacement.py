"""Ablation: direct-mapped vs LRU cache replacement (Section 3.3).

The paper picks direct-mapped replacement for its low constant overhead
and leaves richer schemes as future work. This ablation runs the forced
R⋈S cache of Figure 6 with both stores, comparing hit rates and
replacement churn when the store is deliberately undersized.
"""

from repro.api import EngineConfig, Session
from repro.caching.store import LRUStore
from repro.streams.workloads import fig6_workload

CHAIN_ORDERS = {"T": ("S", "R"), "R": ("S", "T"), "S": ("R", "T")}


def run_with_store(store_factory, arrivals=8000, buckets=48):
    workload = fig6_workload(5, window=128)
    session = Session.static(
        workload,
        EngineConfig(
            orders=CHAIN_ORDERS,
            candidate_ids=("T:0-1p",),
            buckets=buckets,
        ),
    )
    plan = session.plan
    cache = plan.wiring.wired["T:0-1p"].cache
    if store_factory is not None:
        cache.store = store_factory(buckets)
    session.run(workload.updates(arrivals))
    ctx = plan.ctx
    return {
        "throughput": ctx.metrics.throughput(ctx.clock.now_seconds),
        "hit_rate": ctx.metrics.hit_rate,
    }


def test_replacement_ablation(bench_scale, benchmark, reporter):
    arrivals = bench_scale(8000)
    direct = run_with_store(None, arrivals=arrivals)
    lru = run_with_store(LRUStore, arrivals=arrivals)
    reporter(
        "Ablation — cache replacement (undersized store, 48 entries)\n"
        "============================================================\n"
        f"{'scheme':>14} | {'tuples/sec':>12} | {'hit rate':>9}\n"
        f"{'direct-mapped':>14} | {direct['throughput']:>12,.0f} | "
        f"{direct['hit_rate']:>9.3f}\n"
        f"{'LRU':>14} | {lru['throughput']:>12,.0f} | "
        f"{lru['hit_rate']:>9.3f}"
    )
    # Both must deliver working caches; under size pressure LRU keeps the
    # hot working set at least as well as blind replacement.
    assert direct["hit_rate"] > 0.3
    assert lru["hit_rate"] >= direct["hit_rate"] - 0.05

    benchmark.pedantic(
        lambda: run_with_store(None, arrivals=2000), rounds=3, iterations=1
    )
