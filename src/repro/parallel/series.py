"""Sharded throughput time series (Figure 12/13-style curves).

Rate experiments can run each shard to completion independently, but a
*time series* needs all shards sampled at the same global stream
positions. This runner therefore keeps every shard in-process and drives
the global update stream once, routing each update to its owning
shard(s) and sampling a merged :class:`SeriesPoint` every
``sample_every_updates`` source updates.

Window throughput is modeled the same way the rate path models it: the
source updates of the window divided by the *slowest* shard's virtual
time spent inside the window (one core per shard). Cache sets union,
shed counts sum, and degradation ORs across shards, so the series stays
truthful about what the fleet as a whole did.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from repro.engine.drive import Driver
from repro.engine.runtime import SeriesPoint
from repro.parallel.partitioner import scheme_for_workload
from repro.parallel.shard import _memory_in_use, _used_caches
from repro.parallel.spec import ExperimentSpec
from repro.streams.events import Update


def run_series_sharded(
    spec: ExperimentSpec,
    shards: int,
    sample_every_updates: int = 2000,
    x_of: Optional[Callable[[Update], bool]] = None,
) -> List[SeriesPoint]:
    """Drive one sharded experiment, sampling merged throughput.

    Mirrors :func:`repro.engine.runtime.run_with_series` — same sampling
    cadence (source updates), same x-axis — with per-shard engines
    behind it. Always in-process: a time axis needs lockstep sampling,
    which per-worker replay cannot give.
    """
    source = spec.workload_factory()
    scheme = scheme_for_workload(source, shards)
    plans = [spec.engine.build(spec.workload_factory()) for _ in range(shards)]
    contexts = [plan.ctx for plan in plans]
    resiliences = [getattr(plan, "resilience", None) for plan in plans]

    updates: Iterable[Update] = source.updates(spec.arrivals)
    if spec.fault_spec is not None:
        from repro.faults.plan import FaultPlan

        updates = FaultPlan(spec.fault_spec, seed=spec.fault_seed).updates(
            updates
        )

    series: List[SeriesPoint] = []
    x = 0
    source_processed = 0
    window_start_source = 0

    def window_start() -> List[tuple]:
        """Per shard: (clock µs, probes, hits, decision seq, shed)."""
        return [
            (
                ctx.clock.now_us,
                ctx.metrics.cache_probes,
                ctx.metrics.cache_hits,
                ctx.obs.decisions.last_seq,
                r.shed_total if r else 0,
            )
            for ctx, r in zip(contexts, resiliences)
        ]

    starts = window_start()

    def emit_point() -> None:
        nonlocal window_start_source, starts
        pairs = list(zip(contexts, starts))
        span_us = max(ctx.clock.now_us - st[0] for ctx, st in pairs)
        span_s = max(1e-12, span_us / 1e6)
        probes = sum(ctx.metrics.cache_probes - st[1] for ctx, st in pairs)
        hits = sum(ctx.metrics.cache_hits - st[2] for ctx, st in pairs)
        decisions = tuple(
            record
            for ctx, st in pairs
            for record in ctx.obs.decisions.since(st[3])
        )
        shed_in_window = sum(
            (r.shed_total if r else 0) - st[4]
            for r, st in zip(resiliences, starts)
        )
        elapsed_s = max(1e-12, max(ctx.clock.now_us for ctx in contexts) / 1e6)
        used = sorted({cid for plan in plans for cid in _used_caches(plan)})
        series.append(
            SeriesPoint(
                x=x,
                updates=source_processed,
                window_throughput=(
                    (source_processed - window_start_source) / span_s
                ),
                cumulative_throughput=source_processed / elapsed_s,
                used_caches=tuple(used),
                memory_bytes=sum(_memory_in_use(plan) for plan in plans),
                hit_rate=hits / probes if probes else 0.0,
                decisions=decisions,
                degraded=any(
                    bool(r and r.degraded) for r in resiliences
                ) or shed_in_window > 0,
                shed_updates=shed_in_window,
                shard_count=shards,
            )
        )
        window_start_source = source_processed
        starts = window_start()

    # One driver per shard (spec.batch_size = 1 keeps the unbatched
    # per-update path). Every driver flushes before a sample is taken so
    # each point still reflects a lockstep stream position.
    drivers = [Driver(plan, batch_size=spec.batch_size) for plan in plans]

    for update in updates:
        for shard in scheme.shards_for(update):
            drivers[shard].offer(update)
        source_processed += 1
        if x_of is None or x_of(update):
            x += 1
        if source_processed - window_start_source >= sample_every_updates:
            for driver in drivers:
                driver.flush()
            emit_point()
    for driver in drivers:
        driver.flush()
    # Flush the trailing partial window (if any updates landed in it).
    if source_processed > window_start_source:
        emit_point()
    return series
