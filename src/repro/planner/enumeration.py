"""Plan search and measurement: the M / X / P / G comparison of §7.3.

* ``M`` — the best MJoin: A-Greedy adaptive ordering, no caches;
* ``X`` — the best XJoin: exhaustive search over connected join trees
  (each probed on a workload prefix, the winner measured in full);
* ``P`` — caching-based plan restricted to the prefix invariant:
  A-Caching with ``global_quota = 0`` and exhaustive selection;
* ``G`` — caching-based plan with globally-consistent candidates:
  A-Caching with the Section 6 quota ``m`` (default 6).

Workloads are stateful generators, so every run takes a zero-argument
``workload_factory`` producing a fresh instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.api import EngineConfig, build_adaptive_engine
from repro.core.acaching import ACaching, ACachingConfig
from repro.core.profiler import ProfilerConfig
from repro.core.reoptimizer import ReoptimizerConfig
from repro.engine.drive import Driver
from repro.mjoin.executor import MJoinExecutor
from repro.ordering.agreedy import OrderingConfig
from repro.parallel.engine import ParallelConfig, run_sharded
from repro.parallel.spec import EngineSpec, ExperimentSpec
from repro.streams.events import Sign
from repro.streams.workloads import Workload
from repro.xjoin.executor import XJoinExecutor
from repro.xjoin.tree import JoinTree, enumerate_trees

WorkloadFactory = Callable[[], Workload]


def _run_parallel(
    label: str,
    workload_factory: WorkloadFactory,
    arrivals: int,
    engine_spec: EngineSpec,
    parallel: ParallelConfig,
    warmup_fraction: float = 0.4,
) -> "PlanResult":
    """Measure one plan sharded; mirrors :func:`measured_run` semantics.

    Throughput is the post-warmup modeled parallel rate: the shards'
    combined post-warmup updates over the slowest shard's post-warmup
    virtual span (one core per shard). ``workload_factory`` must be
    picklable (a module-level function or ``functools.partial``) when the
    process backend is used.
    """
    spec = ExperimentSpec(
        workload_factory=workload_factory,
        arrivals=arrivals,
        engine=engine_spec,
        warmup_fraction=warmup_fraction,
    )
    run = run_sharded(spec, parallel)
    stats = run.stats
    return PlanResult(
        label=label,
        throughput=stats.steady_throughput,
        elapsed_seconds=stats.critical_path_us / 1e6,
        updates=stats.updates_processed,
        outputs=stats.outputs_emitted,
        memory_peak_bytes=stats.memory_bytes,
        detail={
            "shards": stats.shard_count,
            "backend": run.backend,
            "partitioned": list(run.scheme.partitioned),
            "broadcast": list(run.scheme.broadcast),
            "balance": round(stats.balance, 3),
            "used_caches": list(stats.used_caches),
            "hit_rate": stats.hit_rate,
            "reoptimizations": stats.reoptimizations,
        },
    )


def measured_run(
    plan,
    workload: Workload,
    arrivals: int,
    warmup_fraction: float = 0.4,
    batch_size: int = 1,
):
    """Run a plan over a workload and return steady-state throughput.

    The paper reports the *maximum load the system can handle*, a steady
    state. Cumulative throughput would dilute it with the adaptive
    cold-start (candidate profiling needs W Bloom windows before the first
    selection), so the first ``warmup_fraction`` of arrivals is excluded
    from the measurement — overheads incurred after warm-up (profiling,
    re-optimization) still count, as in the paper.

    ``batch_size > 1`` drives the plan through consecutive micro-batches
    (``plan.process_batch``); the measured span starts at a batch
    boundary so warmup exclusion stays exact.
    """
    ctx = plan.ctx
    warmup = int(arrivals * warmup_fraction)
    arrivals_seen = 0
    start_updates: Optional[int] = None
    start_time = 0.0
    driver = Driver(plan, batch_size=batch_size)
    for update in workload.updates(arrivals):
        if start_updates is None and arrivals_seen >= warmup:
            driver.flush()
            start_updates = ctx.metrics.updates_processed
            start_time = ctx.clock.now_seconds
        driver.offer(update)
        if update.sign is Sign.INSERT:
            arrivals_seen += 1  # each arrival yields exactly one insertion
    driver.flush()
    if start_updates is None:
        start_updates, start_time = 0, 0.0
    span = max(1e-12, ctx.clock.now_seconds - start_time)
    return (ctx.metrics.updates_processed - start_updates) / span


@dataclass
class PlanResult:
    """One measured plan: the paper's tuples/sec numbers plus context."""

    label: str
    throughput: float          # updates/sec of virtual time, all overheads
    elapsed_seconds: float
    updates: int
    outputs: int
    memory_peak_bytes: int = 0
    detail: Dict[str, object] = field(default_factory=dict)

    def __repr__(self) -> str:
        return (
            f"PlanResult({self.label}: {self.throughput:,.0f} tuples/sec, "
            f"{self.updates} updates)"
        )


def _tuning(
    profile_probability: float = 0.05,
    window: int = 10,
    bloom_window: int = 256,
    reopt_interval_updates: Optional[int] = 2500,
    profiling_phase_updates: int = 400,
    ordering_interval: int = 1500,
    global_quota: int = 0,
    selection_method: str = "auto",
    memory_budget: Optional[int] = None,
    adaptive_ordering: bool = True,
) -> ACachingConfig:
    return ACachingConfig(
        profiler=ProfilerConfig(
            window=window,
            profile_probability=profile_probability,
            bloom_window_tuples=bloom_window,
        ),
        reoptimizer=ReoptimizerConfig(
            reopt_interval_updates=reopt_interval_updates,
            profiling_phase_updates=profiling_phase_updates,
            global_quota=global_quota,
            selection_method=selection_method,
            memory_budget_bytes=memory_budget,
        ),
        ordering=OrderingConfig(interval_updates=ordering_interval),
        adaptive_ordering=adaptive_ordering,
    )


def run_mjoin(
    workload_factory: WorkloadFactory,
    arrivals: int,
    adaptive_ordering: bool = True,
    orders: Optional[Dict[str, Tuple[str, ...]]] = None,
    parallel: Optional[ParallelConfig] = None,
) -> PlanResult:
    """The best MJoin ``M``: A-Greedy ordering, no caches."""
    if parallel is not None and parallel.active:
        if adaptive_ordering:
            config = _tuning(adaptive_ordering=True)
            config.reoptimizer.reopt_interval_updates = None
            config.reoptimizer.reopt_interval_seconds = float("inf")
            engine = EngineConfig(
                orders=orders, tuning=config
            ).engine_spec("adaptive")
        else:
            engine = EngineConfig(orders=orders).engine_spec("mjoin")
        return _run_parallel(
            "MJoin", workload_factory, arrivals, engine, parallel
        )
    workload = workload_factory()
    if adaptive_ordering:
        config = _tuning(adaptive_ordering=True)
        # No caches: quota 0 and an interval that never fires.
        config.reoptimizer.reopt_interval_updates = None
        config.reoptimizer.reopt_interval_seconds = float("inf")
        plan = ACaching(
            workload.graph,
            orders=orders,
            indexed_attributes=workload.indexed_attributes,
            config=config,
        )
        detail_of = lambda: {"orders": plan.executor.orders()}
    else:
        plan = MJoinExecutor(
            workload.graph,
            orders=orders,
            indexed_attributes=workload.indexed_attributes,
        )
        detail_of = lambda: {"orders": plan.orders()}
    steady = measured_run(plan, workload, arrivals)
    ctx = plan.ctx
    detail = detail_of()
    return PlanResult(
        label="MJoin",
        throughput=steady,
        elapsed_seconds=ctx.clock.now_seconds,
        updates=ctx.metrics.updates_processed,
        outputs=ctx.metrics.outputs_emitted,
        detail=detail,
    )


def run_xjoin_tree(
    workload_factory: WorkloadFactory, arrivals: int, tree: JoinTree
) -> PlanResult:
    """Measure one XJoin tree on a fresh workload instance."""
    workload = workload_factory()
    executor = XJoinExecutor(
        workload.graph, tree, indexed_attributes=workload.indexed_attributes
    )
    steady = measured_run(executor, workload, arrivals)
    ctx = executor.ctx
    return PlanResult(
        label="XJoin",
        throughput=steady,
        elapsed_seconds=ctx.clock.now_seconds,
        updates=ctx.metrics.updates_processed,
        outputs=ctx.metrics.outputs_emitted,
        memory_peak_bytes=executor.peak_memory_bytes,
        detail={"tree": repr(tree)},
    )


def best_xjoin(
    workload_factory: WorkloadFactory,
    arrivals: int,
    probe_arrivals: Optional[int] = None,
    parallel: Optional[ParallelConfig] = None,
) -> PlanResult:
    """The best XJoin ``X`` by exhaustive search over connected trees.

    Each tree is probed on a workload prefix; the winner runs in full.
    Tree probing stays serial even when ``parallel`` is set — the probes
    are short prefixes used only for ranking — and the winning tree is
    then measured sharded.
    """
    workload = workload_factory()
    trees = enumerate_trees(workload.graph)
    if probe_arrivals is None:
        probe_arrivals = max(200, arrivals // 10)
    best_tree, best_rate = None, -1.0
    for tree in trees:
        probe = run_xjoin_tree(workload_factory, probe_arrivals, tree)
        if probe.throughput > best_rate:
            best_tree, best_rate = tree, probe.throughput
    if parallel is not None and parallel.active:
        result = _run_parallel(
            "XJoin",
            workload_factory,
            arrivals,
            EngineConfig().engine_spec("xjoin", tree=best_tree),
            parallel,
        )
        result.detail["tree"] = repr(best_tree)
    else:
        result = run_xjoin_tree(workload_factory, arrivals, best_tree)
    result.detail["trees_searched"] = len(trees)
    return result


def run_acaching(
    workload_factory: WorkloadFactory,
    arrivals: int,
    global_quota: int = 0,
    selection_method: str = "auto",
    memory_budget: Optional[int] = None,
    label: Optional[str] = None,
    reopt_interval_updates: Optional[int] = 2500,
    profile_probability: float = 0.05,
    bloom_window: Optional[int] = None,
    stat_window: int = 10,
    parallel: Optional[ParallelConfig] = None,
) -> PlanResult:
    """A-Caching plans: ``P`` (quota 0) or ``G`` (quota m, Section 6).

    ``bloom_window`` defaults to roughly twice the largest window's update
    span so the miss-probability estimator sees the window-expiry reuse a
    probe stream actually has (Appendix A's Wd is a free parameter).

    When sharded, a global ``memory_budget`` is split evenly across
    shards: each shard's re-optimizer enforces budget/n, so the shards
    together never exceed the global cap.
    """
    workload = workload_factory()
    if bloom_window is None:
        largest = max(workload.windows.values())
        bloom_window = int(min(1500, max(192, 2.2 * largest)))
    if parallel is not None and parallel.active and memory_budget is not None:
        memory_budget = max(1, memory_budget // parallel.shards)
    config = _tuning(
        global_quota=global_quota,
        selection_method=selection_method,
        memory_budget=memory_budget,
        reopt_interval_updates=reopt_interval_updates,
        profile_probability=profile_probability,
        bloom_window=bloom_window,
        window=stat_window,
    )
    if parallel is not None and parallel.active:
        if label is None:
            label = "G (global caches)" if global_quota else "P (prefix caches)"
        return _run_parallel(
            label,
            workload_factory,
            arrivals,
            EngineConfig(tuning=config).engine_spec("adaptive"),
            parallel,
        )
    engine = build_adaptive_engine(workload, EngineConfig(tuning=config))
    steady = measured_run(engine, workload, arrivals)
    ctx = engine.executor.ctx
    if label is None:
        label = "G (global caches)" if global_quota else "P (prefix caches)"
    return PlanResult(
        label=label,
        throughput=steady,
        elapsed_seconds=ctx.clock.now_seconds,
        updates=ctx.metrics.updates_processed,
        outputs=ctx.metrics.outputs_emitted,
        memory_peak_bytes=engine.memory_in_use(),
        detail={
            "used_caches": engine.used_caches(),
            "hit_rate": ctx.metrics.hit_rate,
            "reoptimizations": ctx.metrics.reoptimizations,
            "orders": engine.executor.orders(),
        },
    )


def multi_query_overlap(
    workloads: Dict[str, Workload],
    orders: Optional[Dict[str, Dict[str, Tuple[str, ...]]]] = None,
) -> Dict[str, object]:
    """Enumerate each query's candidates and report inter-query overlap.

    A planning-time preview of what :mod:`repro.multi` would share: for
    every query the candidate set is enumerated under its (default or
    given) pipeline orders, then prefix-invariant candidates whose
    member set, key signature, and segment predicates match across
    queries are grouped into inter-query shared-store groups (the
    Definition 4.1 argument applied across queries). Returns candidate
    totals, the shareable groups (token -> query -> candidate ids), and
    how many physical stores the shared engine would materialize versus
    isolated engines wiring the same candidates.
    """
    from repro.core.candidates import (
        enumerate_candidates,
        inter_query_groups,
    )
    from repro.mjoin.executor import default_orders

    per_query: Dict[str, Tuple[object, List]] = {}
    candidate_counts: Dict[str, int] = {}
    for query_id, workload in workloads.items():
        graph = workload.graph
        resolved = dict(default_orders(graph))
        if orders and query_id in orders:
            resolved.update(
                {k: tuple(v) for k, v in orders[query_id].items()}
            )
        candidates = enumerate_candidates(graph, resolved)
        per_query[query_id] = (graph, candidates)
        candidate_counts[query_id] = len(candidates)
    groups = inter_query_groups(per_query)
    shared = {
        token: {qid: [c.candidate_id for c in members]
                for qid, members in users.items()}
        for token, users in groups.items()
        if len(users) > 1
    }
    # Stores if every candidate wires: isolated engines pay one store per
    # (query, token); the shared engine pays one store per token.
    isolated_stores = sum(len(users) for users in groups.values())
    shared_stores = len(groups)
    return {
        "candidates": candidate_counts,
        "shareable_groups": {
            repr(token): users for token, users in sorted(
                shared.items(), key=lambda kv: repr(kv[0])
            )
        },
        "isolated_store_count": isolated_stores,
        "shared_store_count": shared_stores,
        "stores_saved": isolated_stores - shared_stores,
    }


def plan_spectrum(
    workload_factory: WorkloadFactory,
    arrivals: int,
    global_quota: int = 6,
    parallel: Optional[ParallelConfig] = None,
) -> Dict[str, PlanResult]:
    """Measure M, X, P, and G for one workload (a Figure 11 bar group)."""
    return {
        "M": run_mjoin(workload_factory, arrivals, parallel=parallel),
        "X": best_xjoin(workload_factory, arrivals, parallel=parallel),
        "P": run_acaching(
            workload_factory, arrivals, global_quota=0, parallel=parallel
        ),
        "G": run_acaching(
            workload_factory,
            arrivals,
            global_quota=global_quota,
            parallel=parallel,
        ),
    }
