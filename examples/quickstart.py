"""Quickstart: adaptive caching for a three-way stream join.

Registers the continuous query  R(A) ⋈ S(A,B) ⋈ T(B)  over three sliding
windows, feeds it a synthetic update stream, and lets A-Caching discover
the profitable join-subresult cache on its own.

Run:  python examples/quickstart.py
"""

from repro import (
    ACachingConfig,
    EngineConfig,
    ProfilerConfig,
    ReoptimizerConfig,
    Session,
    Sign,
    build_adaptive_engine,
    three_way_chain,
)


def main() -> None:
    # A ready-made workload: the paper's default Section 7.2 setup.
    # T.B values repeat 5 times (multiplicity 5), so ∆T probes repeat —
    # caching R ⋈ S for ∆T's pipeline should pay off.
    workload = three_way_chain(t_multiplicity=5.0, window_r=96, window_s=96)

    # --- adaptive engine ------------------------------------------------
    # The library default re-optimization interval is the paper's I = 2
    # (virtual) seconds — roughly 100k updates at these rates. This demo
    # is shorter, so re-optimize every 5000 updates instead.
    config = ACachingConfig(
        profiler=ProfilerConfig(window=5, bloom_window_tuples=128),
        reoptimizer=ReoptimizerConfig(
            reopt_interval_updates=5000, profiling_phase_updates=400
        ),
    )
    engine = build_adaptive_engine(workload, EngineConfig(tuning=config))
    inserted = deleted = 0
    for update in workload.updates(30_000):
        for delta in engine.process(update):
            if delta.sign is Sign.INSERT:
                inserted += 1
            else:
                deleted += 1

    print("Adaptive A-Caching run")
    print(f"  updates processed : {engine.ctx.metrics.updates_processed:,}")
    print(f"  result deltas     : +{inserted:,} / -{deleted:,}")
    print(f"  throughput        : {engine.throughput():,.0f} tuples/sec")
    print(f"  caches in use     : {engine.used_caches()}")
    print(f"  cache hit rate    : {engine.ctx.metrics.hit_rate:.2%}")
    print(f"  pipeline orders   : {engine.executor.orders()}")

    # --- plain MJoin baseline -------------------------------------------
    baseline_workload = three_way_chain(
        t_multiplicity=5.0, window_r=96, window_s=96
    )
    baseline = Session.static(baseline_workload)
    baseline.run(arrivals=30_000)
    rate = baseline.throughput()
    print("\nCache-free MJoin baseline")
    print(f"  throughput        : {rate:,.0f} tuples/sec")
    print(
        f"\nA-Caching speedup   : {engine.throughput() / rate:.2f}x "
        "(virtual-clock cost model; see DESIGN.md)"
    )


if __name__ == "__main__":
    main()
