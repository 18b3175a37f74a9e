"""The experiments behind every figure and table of Section 7.

Each ``figureN`` function regenerates the corresponding plot's data at a
configurable scale; the modules in ``benchmarks/`` call these with their
default scales and print the series. EXPERIMENTS.md records measured
values against the paper's.

Figures 6-8 and 10 follow Section 7.2's methodology: a single candidate
cache — ``R ⋈ S`` in ``∆T``'s pipeline — is *forced* to be used, and the
plan with the cache is compared against the best cache-free MJoin on the
same workload. Figures 9, 11, 12, 13 run the full adaptive system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api import (
    EngineConfig,
    Session,
    build_adaptive_engine,
    build_static_plan,
)
from repro.bench.harness import ExperimentRow, run_static
from repro.engine.runtime import SeriesPoint, run_with_series
from repro.parallel.engine import ParallelConfig, run_sharded
from repro.parallel.series import run_series_sharded
from repro.parallel.spec import EngineSpec, ExperimentSpec
from repro.planner import enumeration as plans
from repro.streams.events import Sign
from repro.streams.workloads import (
    TABLE2_POINTS,
    fig6_workload,
    fig7_workload,
    fig8_workload,
    fig9_workload,
    fig10_workload,
    fig12_workload,
    table2_workload,
)

# The fixed three-way orderings under which the R ⋈ S segment in ∆T's
# pipeline is the forced candidate cache (prefix invariant satisfied:
# ∆R joins S first, ∆S joins R first). Figure 3's plan.
CHAIN_ORDERS = {"T": ("S", "R"), "R": ("S", "T"), "S": ("R", "T")}
FORCED_CACHE = "T:0-1p"


def _static_rate_sharded(
    workload_factory,
    arrivals: int,
    candidate_ids: Tuple[str, ...],
    parallel: ParallelConfig,
) -> Tuple[float, Dict]:
    """Sharded analog of a cumulative static-plan rate measurement."""
    session = Session.static(
        workload_factory,
        EngineConfig(
            orders=CHAIN_ORDERS,
            candidate_ids=candidate_ids,
            shards=parallel.shards,
            parallel_backend=parallel.backend,
        ),
    )
    stats = session.execute(arrivals).stats
    return stats.modeled_throughput, {
        "hit_rate": round(stats.hit_rate, 3),
        "probes": stats.cache_probes,
    }


def _forced_cache_rate(
    workload_factory,
    arrivals: int,
    parallel: Optional[ParallelConfig] = None,
) -> Tuple[float, Dict]:
    if parallel is not None and parallel.active:
        return _static_rate_sharded(
            workload_factory, arrivals, (FORCED_CACHE,), parallel
        )
    workload = workload_factory()
    plan = build_static_plan(
        workload,
        EngineConfig(orders=CHAIN_ORDERS, candidate_ids=(FORCED_CACHE,)),
    )
    rate = run_static(plan, workload, arrivals)
    metrics = plan.ctx.metrics
    return rate, {
        "hit_rate": round(metrics.hit_rate, 3),
        "probes": metrics.cache_probes,
    }


def _plain_mjoin_rate(
    workload_factory,
    arrivals: int,
    parallel: Optional[ParallelConfig] = None,
) -> float:
    if parallel is not None and parallel.active:
        rate, _ = _static_rate_sharded(
            workload_factory, arrivals, (), parallel
        )
        return rate
    workload = workload_factory()
    plan = build_static_plan(workload, EngineConfig(orders=CHAIN_ORDERS))
    return run_static(plan, workload, arrivals)


def figure6(
    multiplicities: Sequence[int] = tuple(range(1, 11)),
    arrivals: int = 20_000,
    window: int = 128,
    parallel: Optional[ParallelConfig] = None,
) -> List[ExperimentRow]:
    """Figure 6: varying cache hit probability via T.B multiplicity."""
    rows = []
    for multiplicity in multiplicities:
        factory = partial(fig6_workload, multiplicity, window=window)
        cached, extra = _forced_cache_rate(factory, arrivals, parallel)
        plain = _plain_mjoin_rate(factory, arrivals, parallel)
        rows.append(
            ExperimentRow(
                x=multiplicity,
                caching_rate=cached,
                mjoin_rate=plain,
                extra=extra,
            )
        )
    return rows


def figure7(
    selectivities: Sequence[float] = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0),
    arrivals: int = 20_000,
    window: int = 128,
    parallel: Optional[ParallelConfig] = None,
) -> List[ExperimentRow]:
    """Figure 7: varying join selectivity for ∆T tuples."""
    rows = []
    for selectivity in selectivities:
        factory = partial(fig7_workload, selectivity, window=window)
        cached, extra = _forced_cache_rate(factory, arrivals, parallel)
        plain = _plain_mjoin_rate(factory, arrivals, parallel)
        rows.append(
            ExperimentRow(
                x=selectivity,
                caching_rate=cached,
                mjoin_rate=plain,
                extra=extra,
            )
        )
    return rows


def figure8(
    ratios: Sequence[float] = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0),
    arrivals: int = 20_000,
    window: int = 128,
    parallel: Optional[ParallelConfig] = None,
) -> List[ExperimentRow]:
    """Figure 8: varying the cache update rate over the probe rate."""
    rows = []
    for ratio in ratios:
        factory = partial(fig8_workload, ratio, window=window)
        cached, extra = _forced_cache_rate(factory, arrivals, parallel)
        plain = _plain_mjoin_rate(factory, arrivals, parallel)
        rows.append(
            ExperimentRow(
                x=ratio, caching_rate=cached, mjoin_rate=plain, extra=extra
            )
        )
    return rows


def figure9(
    relation_counts: Sequence[int] = tuple(range(3, 10)),
    arrivals_for: Optional[Callable[[int], int]] = None,
    window: int = 48,
    parallel: Optional[ParallelConfig] = None,
) -> List[ExperimentRow]:
    """Figure 9: n-way star joins under full adaptive A-Caching."""
    if arrivals_for is None:
        arrivals_for = lambda n: max(3_000, 12_000 // max(1, n - 2))
    rows = []
    for n in relation_counts:
        arrivals = arrivals_for(n)
        factory = partial(fig9_workload, n, window=window)
        cached = plans.run_acaching(
            factory,
            arrivals,
            global_quota=0,
            reopt_interval_updates=max(800, arrivals // 5),
            stat_window=4,
            bloom_window=max(96, 3 * window),
            parallel=parallel,
        )
        plain = plans.run_mjoin(
            factory, arrivals, adaptive_ordering=True, parallel=parallel
        )
        rows.append(
            ExperimentRow(
                x=n,
                caching_rate=cached.throughput,
                mjoin_rate=plain.throughput,
                extra={
                    "caches_used": len(cached.detail["used_caches"]),
                    "candidates": "-",
                },
            )
        )
    return rows


def figure10(
    s_windows: Sequence[int] = (50, 250, 500, 1000, 1500, 2000),
    arrivals: int = 8_000,
    parallel: Optional[ParallelConfig] = None,
) -> List[ExperimentRow]:
    """Figure 10: nested-loop join cost via |S| with no S.B index."""
    rows = []
    for s_window in s_windows:
        factory = partial(fig10_workload, s_window)
        cached, extra = _forced_cache_rate(factory, arrivals, parallel)
        plain = _plain_mjoin_rate(factory, arrivals, parallel)
        rows.append(
            ExperimentRow(
                x=s_window,
                caching_rate=cached,
                mjoin_rate=plain,
                extra=extra,
            )
        )
    return rows


@dataclass
class SpectrumResult:
    """Figure 11 / Table 2: the four plan rates at one sample point."""

    point: str
    rates: Dict[str, float]
    detail: Dict[str, object] = field(default_factory=dict)


def figure11(
    points: Sequence[str] = tuple(sorted(TABLE2_POINTS)),
    arrivals: int = 12_000,
    window_base: Optional[int] = None,
    global_quota: int = 6,
    parallel: Optional[ParallelConfig] = None,
) -> List[SpectrumResult]:
    """Figure 11: M / X / P / G at the Table 2 sample points."""
    results = []
    for point in points:
        factory = partial(table2_workload, point, window_base=window_base)
        spectrum = plans.plan_spectrum(
            factory, arrivals, global_quota=global_quota, parallel=parallel
        )
        results.append(
            SpectrumResult(
                point=point,
                rates={k: r.throughput for k, r in spectrum.items()},
                detail={
                    "xjoin_tree": spectrum["X"].detail.get("tree"),
                    "P_caches": spectrum["P"].detail.get("used_caches"),
                    "G_caches": spectrum["G"].detail.get("used_caches"),
                },
            )
        )
    return results


@dataclass
class AdaptivitySeries:
    """Figure 12: throughput-over-time curves for three plans."""

    adaptive: List[SeriesPoint]
    static_rs_cache: List[SeriesPoint]   # T ⋈ (R ⋈ S)
    static_ts_cache: List[SeriesPoint]   # R ⋈ (T ⋈ S)
    burst_at_s_tuples: int


def figure12(
    total_arrivals: int = 60_000,
    burst_after_arrivals: int = 30_000,
    burst_factor: float = 20.0,
    sample_every_updates: int = 4_000,
    window: int = 96,
    reopt_interval_updates: int = 3_000,
    parallel: Optional[ParallelConfig] = None,
) -> AdaptivitySeries:
    """Figure 12: adaptivity to a 20× rate burst on ∆R.

    Plans compared, as in the paper: static ``T ⋈ (R ⋈ S)`` (an R⋈S cache
    in ∆T's pipeline), static ``R ⋈ (T ⋈ S)`` (a globally-consistent
    (T⋈S)⋉R cache in ∆R's pipeline), and full A-Caching.
    """

    factory = partial(
        fig12_workload,
        burst_after_arrivals,
        burst_factor=burst_factor,
        window=window,
    )

    def is_s_insert(update) -> bool:
        return update.relation == "S" and update.sign is Sign.INSERT

    if parallel is not None and parallel.active:
        # A time axis needs lockstep sampling, so the sharded variant is
        # always in-process regardless of the configured backend.
        def sharded_series(engine: EngineSpec) -> List[SeriesPoint]:
            return run_series_sharded(
                ExperimentSpec(
                    workload_factory=factory,
                    arrivals=total_arrivals,
                    engine=engine,
                ),
                parallel.shards,
                sample_every_updates,
                x_of=is_s_insert,
            )

        series_a = sharded_series(
            EngineConfig(
                orders=CHAIN_ORDERS, candidate_ids=(FORCED_CACHE,)
            ).engine_spec("static")
        )
        series_b = sharded_series(
            EngineConfig(
                orders=CHAIN_ORDERS, candidate_ids=("R:0-1g",)
            ).engine_spec("static")
        )
        config = plans._tuning(
            global_quota=6,
            reopt_interval_updates=reopt_interval_updates,
            profiling_phase_updates=500,
        )
        series_c = sharded_series(
            EngineConfig(tuning=config).engine_spec("adaptive")
        )
        return AdaptivitySeries(
            adaptive=series_c,
            static_rs_cache=series_a,
            static_ts_cache=series_b,
            burst_at_s_tuples=burst_after_arrivals // 7,
        )

    # Static plan A: R ⋈ S cache in ∆T's pipeline.
    workload_a = factory()
    plan_a = build_static_plan(
        workload_a,
        EngineConfig(orders=CHAIN_ORDERS, candidate_ids=(FORCED_CACHE,)),
    )
    series_a = run_with_series(
        plan_a,
        workload_a.updates(total_arrivals),
        sample_every_updates,
        x_of=is_s_insert,
    )

    # Static plan B: (S ⋈ T) ⋉ R cache in ∆R's pipeline, under the same
    # orderings — ∆S joins R first, so the {S, T} segment violates the
    # prefix invariant and the candidate is globally consistent, exactly
    # the cache the paper's adaptive algorithm converges to.
    workload_b = factory()
    plan_b = build_static_plan(
        workload_b,
        EngineConfig(orders=CHAIN_ORDERS, candidate_ids=("R:0-1g",)),
    )
    series_b = run_with_series(
        plan_b,
        workload_b.updates(total_arrivals),
        sample_every_updates,
        x_of=is_s_insert,
    )

    # Full A-Caching.
    workload_c = factory()
    config = plans._tuning(
        global_quota=6,
        reopt_interval_updates=reopt_interval_updates,
        profiling_phase_updates=500,
    )
    engine = build_adaptive_engine(workload_c, EngineConfig(tuning=config))
    series_c = run_with_series(
        engine,
        workload_c.updates(total_arrivals),
        sample_every_updates,
        x_of=is_s_insert,
        used_caches=engine.used_caches,
    )

    # x-axis conversion: before the burst ∆S receives 1/7 of arrivals
    # (rates R:S:T = 1:1:5).
    return AdaptivitySeries(
        adaptive=series_c,
        static_rs_cache=series_a,
        static_ts_cache=series_b,
        burst_at_s_tuples=burst_after_arrivals // 7,
    )


@dataclass
class MemoryPoint:
    """Figure 13: plan rates at one memory budget."""

    memory_kb: float
    mjoin_rate: float
    acaching_rate: float
    xjoin_rate: Optional[float]      # None where the XJoin is infeasible
    acaching_memory_bytes: int


def figure13(
    budgets_kb: Sequence[float] = (0.5, 2, 8, 16, 32, 48, 64, 96, 128),
    arrivals: int = 20_000,
    window_base: Optional[int] = None,
    point: str = "D8",
    global_quota: int = 0,
    parallel: Optional[ParallelConfig] = None,
) -> List[MemoryPoint]:
    """Figure 13: adaptivity to the memory available for subresults."""

    factory = partial(table2_workload, point, window_base=window_base)

    mjoin = plans.run_mjoin(factory, arrivals, parallel=parallel)
    xjoin = plans.best_xjoin(factory, arrivals, parallel=parallel)
    xjoin_needs = xjoin.memory_peak_bytes
    rows = []
    for budget_kb in budgets_kb:
        budget = int(budget_kb * 1024)
        cached = plans.run_acaching(
            factory,
            arrivals,
            global_quota=global_quota,
            memory_budget=budget,
            label=f"A-Caching@{budget_kb}KB",
            stat_window=5,
            reopt_interval_updates=4000,
            parallel=parallel,
        )
        rows.append(
            MemoryPoint(
                memory_kb=budget_kb,
                mjoin_rate=mjoin.throughput,
                acaching_rate=cached.throughput,
                xjoin_rate=(
                    xjoin.throughput if budget >= xjoin_needs else None
                ),
                acaching_memory_bytes=cached.memory_peak_bytes,
            )
        )
    return rows


def table2() -> str:
    """Render Table 2 itself (the experiment parameters)."""
    lines = [
        "Table 2: relative stream arrival rates and pairwise join "
        "selectivities (D1-D8)",
        f"{'point':>6} | {'rates R1..R4':>16} | pairwise selectivities",
    ]
    for point in sorted(TABLE2_POINTS):
        config = TABLE2_POINTS[point]
        sels = ", ".join(
            f"{a}-{b}:{s}" for (a, b), s in config["selectivities"].items()
        )
        lines.append(f"{point:>6} | {config['rates']!s:>16} | {sels}")
    return "\n".join(lines)
