"""Ablation: full vs incremental re-optimization (Section 8 extension).

The incremental re-optimizer (repro.core.incremental) replaces most
from-scratch selections with local add/drop/swap moves and widens the
thresholds of statistics that never change the outcome. This ablation
compares the two on the bursty Figure 12 workload, where adaptation
actually matters.
"""

from repro.api import EngineConfig, Session
from repro.core.acaching import ACachingConfig
from repro.core.profiler import ProfilerConfig
from repro.core.reoptimizer import ReoptimizerConfig
from repro.ordering.agreedy import OrderingConfig
from repro.streams.workloads import fig12_workload


def run(incremental: bool, arrivals: int):
    workload = fig12_workload(
        burst_after_arrivals=arrivals // 2, window=96
    )
    config = ACachingConfig(
        profiler=ProfilerConfig(
            window=5, profile_probability=0.05, bloom_window_tuples=256
        ),
        reoptimizer=ReoptimizerConfig(
            reopt_interval_updates=3000,
            profiling_phase_updates=500,
            global_quota=6,
        ),
        ordering=OrderingConfig(interval_updates=1500),
        incremental_reoptimizer=incremental,
    )
    session = Session.adaptive(workload, EngineConfig(tuning=config))
    session.run(workload.updates(arrivals))
    engine = session.plan
    ctx = engine.ctx
    result = {
        "throughput": ctx.metrics.throughput(ctx.clock.now_seconds),
        "selection_rounds": ctx.metrics.reoptimizations,
        "used": engine.used_caches(),
    }
    if incremental:
        result["incremental_rounds"] = engine.reoptimizer.incremental_rounds
        result["full_rounds"] = engine.reoptimizer.full_rounds
    return result


def test_incremental_ablation(bench_scale, benchmark, reporter):
    arrivals = bench_scale(30_000)
    baseline = run(incremental=False, arrivals=arrivals)
    incremental = run(incremental=True, arrivals=arrivals)
    reporter(
        "Ablation — full vs incremental re-optimization (bursty workload)\n"
        "=================================================================\n"
        f"{'variant':>12} | {'tuples/sec':>12} | {'rounds':>7} | caches\n"
        f"{'full':>12} | {baseline['throughput']:>12,.0f} | "
        f"{baseline['selection_rounds']:>7} | {baseline['used']}\n"
        f"{'incremental':>12} | {incremental['throughput']:>12,.0f} | "
        f"{incremental['selection_rounds']:>7} | {incremental['used']} "
        f"(local {incremental['incremental_rounds']}, "
        f"full {incremental['full_rounds']})"
    )
    # The extension must not cost meaningful throughput ...
    assert incremental["throughput"] >= 0.9 * baseline["throughput"]
    # ... and must still adapt to the burst (ends on some cache).
    assert incremental["used"], "incremental variant stopped adapting"

    benchmark.pedantic(
        lambda: run(incremental=True, arrivals=5000), rounds=1, iterations=1
    )
