"""One shard's full pipeline run, and what it reports back.

A shard is a complete serial engine (MJoin/XJoin/A-Caching with windows,
caches, profiler, re-optimizer, resilience) that sees only the updates
routed to it. Workers rebuild the workload locally and replay the whole
globally ordered stream — generation is deterministic and cheap relative
to join work — filtering to their shard, so no update ever crosses a
process boundary and rids agree bit-for-bit with the serial run.

Each emitted :class:`OutputDelta` is tagged with its source update's
global ``seq`` plus an emission index, which is all the merge step needs
to restore the global arrival order.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.engine.drive import Driver
from repro.faults.plan import FaultPlan
from repro.parallel.partitioner import PartitionScheme, scheme_for_workload
from repro.parallel.spec import ExperimentSpec
from repro.streams.events import OutputDelta, Sign, canonical_delta

# Exit status a deliberately killed worker dies with (crash injection).
KILL_EXIT_CODE = 23

# (source seq, emission index within that update, the delta itself)
TaggedDelta = Tuple[int, int, OutputDelta]


@dataclass
class ShardStats:
    """One shard's counters, ready to cross a process boundary."""

    shard: int
    shard_count: int
    updates_processed: int = 0
    outputs_emitted: int = 0
    cache_probes: int = 0
    cache_hits: int = 0
    profiled_tuples: int = 0
    reoptimizations: int = 0
    caches_added: int = 0
    caches_dropped: int = 0
    per_cache_hits: Dict[str, int] = field(default_factory=dict)
    clock_us: float = 0.0                # this shard's virtual elapsed time
    measured_updates: int = 0            # post-warmup updates
    measured_span_us: float = 0.0        # post-warmup virtual span
    used_caches: Tuple[str, ...] = ()
    memory_bytes: int = 0
    shed_updates: int = 0
    quarantined: int = 0
    degraded: bool = False
    decision_count: int = 0
    poisonings: int = 0


@dataclass
class ShardResult:
    """Everything one shard run produced."""

    stats: ShardStats
    deltas: List[TaggedDelta] = field(default_factory=list)
    canonical: Optional[Counter] = None
    windows: Optional[Dict[str, List[Tuple[int, tuple]]]] = None
    resilience_summary: Optional[Dict[str, object]] = None
    # Quarantined updates retained by this shard's dead-letter buffer
    # (``repro chaos --dump-dead-letters`` surfaces them merged).
    dead_letters: List[object] = field(default_factory=list)
    # Full worker observability state (a TelemetrySnapshot) when the
    # spec asked for it (collect_obs/profile); rides the same pickle
    # path (the Supervisor's worker pipe) as everything above.
    telemetry: Optional[object] = None


def _relations_of(plan):
    """The relation-name -> Relation map behind any plan kind."""
    executor = getattr(plan, "executor", plan)
    return executor.relations


def _used_caches(plan) -> Tuple[str, ...]:
    """Candidate ids of caches currently probed, if the plan has any."""
    used = getattr(plan, "used_caches", None)
    if callable(used):
        return tuple(used())
    fixed = getattr(plan, "used", None)
    return tuple(fixed) if fixed else ()


def _memory_in_use(plan) -> int:
    memory = getattr(plan, "memory_in_use", None)
    current = int(memory()) if callable(memory) else 0
    # XJoin tracks a peak (its subresults grow with the windows); report
    # whichever is larger so memory-feasibility checks stay conservative.
    return max(current, int(getattr(plan, "peak_memory_bytes", 0)))


def _seed_reshard_windows(plan, seed, scheme, shard: int) -> None:
    """Load the predecessor run's window rows this shard now owns.

    Rows are inserted directly into the relation states (the
    RecoveryManager rebuild idiom) — no pipeline execution, no modeled
    cost: the prefix's join work already happened in the stopped run.
    Routing uses the *new* scheme, so a partitioned row lands on exactly
    the shard that will see its future deletes, and broadcast rows land
    everywhere — the same placement a fixed-shard run would have built.
    """
    from repro.streams.events import Update
    from repro.streams.tuples import Row

    relations = _relations_of(plan)
    for name, rows in seed.windows.items():
        relation = relations.get(name)
        if relation is None:
            continue
        for rid, values in rows:
            row = Row(rid, tuple(values))
            probe = Update(name, row, Sign.INSERT, 0)
            if shard in scheme.shards_for(probe):
                relation.insert(row)


def _poison_one_entry(plan) -> bool:
    """Chaos support: swap one cached row for a fake-rid impostor.

    Mirrors the serial chaos harness, but per shard: each shard poisons
    the deterministically-first entry of its own first wired cache so the
    coherence auditor has something to catch on every shard.
    """
    from repro.faults.chaos import POISON_RID
    from repro.streams.tuples import Row

    reoptimizer = getattr(plan, "reoptimizer", None)
    if reoptimizer is None:
        return False
    wiring = reoptimizer.wiring
    for candidate_id in sorted(wiring.wired):
        wired = wiring.wired[candidate_id]
        for _key, value in wired.cache.store.entries():
            for identity, rows in value.items():
                # Segment tuples are laid out as cache.segment: row 0 is
                # the segment's first relation.
                poisoned = Row(POISON_RID, rows[0].values)
                value[identity] = (poisoned,) + rows[1:]
                return True
    return False


def run_shard(
    spec: ExperimentSpec,
    shard: int,
    shard_count: int,
    scheme: Optional[PartitionScheme] = None,
    recovery=None,
    progress: Optional[Callable[[int], None]] = None,
    kill_after: Optional[int] = None,
    coordination=None,
) -> ShardResult:
    """Execute shard ``shard`` of ``shard_count`` for one experiment.

    This is the module-level worker the process backend maps over; it is
    also what the in-process ``serial-shards`` backend calls directly, so
    the two backends run byte-identical computations.

    With ``spec.collect_obs`` (or ``spec.profile``) the whole shard runs
    under its own enabled :class:`~repro.obs.Observability` session —
    engines built here adopt it via the ExecContext default factory — and
    the worker's registry/tracer/decisions/profiler state comes back as a
    :class:`~repro.obs.merge.TelemetrySnapshot` on the result. The
    observability layer never touches the virtual clock, so telemetry
    collection cannot change outputs or modeled costs.

    With a :class:`~repro.recovery.manager.RecoveryConfig` in
    ``recovery`` the shard journals its routed sub-stream to a WAL and
    checkpoints at batch boundaries — and, before running, *restores*:
    whatever checkpoint + WAL suffix survives in the config's directory
    is loaded and replayed, and processing resumes past it. A fresh
    directory degenerates to a normal full run, so supervised restarts
    just call this function again with the same config.

    ``progress`` is invoked with the shard's processed-update count after
    every update (the supervisor throttles it into heartbeats).
    ``kill_after`` hard-kills the process (``os._exit``) once that count
    is reached — crash injection, only ever passed to worker processes.

    ``coordination`` (with ``spec.adaptivity`` set) joins the shard to
    the global adaptivity plane: an object with
    ``exchange(epoch, shard, snapshot) -> CachePlan`` — a
    :class:`~repro.parallel.adaptivity.ThreadChannel` or
    :class:`~repro.parallel.adaptivity.PipeChannel`. At every epoch
    boundary of the global stream the shard submits its profiler
    snapshot, blocks for the coordinator's merged cache plan, and
    applies it; local re-optimization cycles are disabled.
    """
    if not (spec.collect_obs or spec.profile):
        return _run_shard(
            spec, shard, shard_count, scheme, recovery, progress,
            kill_after, coordination,
        )
    from repro import obs as obs_api

    worker_obs = obs_api.Observability.tracing(profile=spec.profile)
    with obs_api.session(worker_obs):
        return _run_shard(
            spec, shard, shard_count, scheme, recovery, progress,
            kill_after, coordination,
        )


def _run_shard(
    spec: ExperimentSpec,
    shard: int,
    shard_count: int,
    scheme: Optional[PartitionScheme] = None,
    recovery=None,
    progress: Optional[Callable[[int], None]] = None,
    kill_after: Optional[int] = None,
    coordination=None,
) -> ShardResult:
    """The body of :func:`run_shard` (observability session pre-applied)."""
    workload = spec.workload_factory()
    if scheme is None:
        scheme = scheme_for_workload(workload, shard_count)

    restored = None
    recorder = None
    if recovery is not None:
        from repro.recovery.manager import Recorder, RecoveryManager

        manager = RecoveryManager(
            recovery, builder=lambda: spec.engine.build(workload)
        )
        restored = manager.restore()
        plan = restored.plan
    else:
        plan = spec.engine.build(workload)
    ctx = plan.ctx

    coordinate = coordination is not None and spec.adaptivity is not None
    sync_every = spec.adaptivity.sync_every_updates if coordinate else 0
    reoptimizer = getattr(plan, "reoptimizer", None)
    if reoptimizer is not None:
        # Always (re)set: a pickled checkpoint carries the attribute of
        # the run that wrote it, which need not match this run's mode.
        reoptimizer.coordinated = coordinate
    if coordinate:
        from repro.parallel.adaptivity import scale_bloom_windows

        scale_bloom_windows(plan, shard_count)

    def exchange_epoch(epoch: int) -> None:
        """Submit this shard's snapshot; apply the coordinator's plan."""
        from repro.parallel.adaptivity import snapshot_from_plan

        snapshot = snapshot_from_plan(plan, shard, epoch)
        pushed = coordination.exchange(epoch, shard, snapshot)
        if pushed is not None and reoptimizer is not None:
            reoptimizer.apply_plan(pushed)

    if spec.reshard is not None and (
        restored is None
        or (restored.checkpoint_seq < 0 and not restored.replayed)
    ):
        # A rescaled run starting fresh (not restored mid-phase): seed
        # the windows this shard owns under the *new* partitioning.
        _seed_reshard_windows(plan, spec.reshard, scheme, shard)

    updates = workload.updates(spec.arrivals)
    if spec.fault_spec is not None:
        updates = FaultPlan(spec.fault_spec, seed=spec.fault_seed).updates(
            updates
        )

    warmup_arrivals = int(spec.arrivals * spec.warmup_fraction)
    arrivals_seen = 0                  # counted over the *global* stream
    start_updates: Optional[int] = None
    start_time_us = 0.0
    deltas: List[TaggedDelta] = []
    canonical: Optional[Counter] = (
        Counter() if spec.output_mode == "canonical" else None
    )
    processed_here = 0
    poisonings = 0
    resume_seq = -1                    # skip source updates <= this
    checkpoint_seq = -1                # arrivals <= this already counted
    # Per-shard poisoning point: the serial harness poisons after N
    # processed updates; a shard sees roughly 1/n of them.
    poison_after = (
        max(1, spec.poison_at // shard_count)
        if spec.poison_at is not None
        else None
    )

    def record(update_seq: int, outputs) -> None:
        nonlocal processed_here, poisonings
        processed_here += 1
        if spec.output_mode == "deltas":
            for index, delta in enumerate(outputs):
                deltas.append((update_seq, index, delta))
        elif canonical is not None:
            for delta in outputs:
                canonical[canonical_delta(delta)] += 1
        if progress is not None:
            progress(processed_here)
        if kill_after is not None and processed_here >= kill_after:
            # Crash injection: die the way a real fault would — no
            # flush, no atexit, losing every un-fsynced WAL byte.
            os._exit(KILL_EXIT_CODE)
        # Called at a safe point (a replayed update, or one whose batch
        # is fully processed), so a poisoning lands before any checkpoint.
        if (
            poison_after is not None
            and poisonings == 0
            and processed_here >= poison_after
            and _poison_one_entry(plan)
        ):
            poisonings = 1

    def runner_state() -> dict:
        """Shard bookkeeping a checkpoint must carry so a restart's
        ShardResult is complete, not just post-restore."""
        return {
            "deltas": list(deltas),
            "canonical": dict(canonical) if canonical is not None else None,
            "processed_here": processed_here,
            "arrivals_seen": arrivals_seen,
            "poisonings": poisonings,
            "warmup_done": start_updates is not None,
            "start_updates": start_updates if start_updates else 0,
            "start_time_us": start_time_us,
        }

    if restored is not None:
        state = restored.runner_state or {}
        deltas = list(state.get("deltas", ()))
        if canonical is not None and state.get("canonical"):
            canonical.update(state["canonical"])
        processed_here = state.get("processed_here", 0)
        arrivals_seen = state.get("arrivals_seen", 0)
        poisonings = state.get("poisonings", 0)
        if state.get("warmup_done"):
            start_updates = state.get("start_updates", 0)
            start_time_us = state.get("start_time_us", 0.0)
        checkpoint_seq = restored.checkpoint_seq
        resume_seq = restored.last_seq
        # The WAL suffix was already replayed through the plan inside
        # restore(); fold its outputs into the shard's tally.
        for seq, outputs in restored.replayed:
            record(seq, outputs)
        recorder = Recorder(plan, recovery)

    # This shard's routed updates, grouped into consecutive micro-batches
    # (spec.batch_size; 1 = the unbatched per-update path).
    driver = Driver(
        plan,
        lambda update, outputs: record(update.seq, outputs),
        batch_size=spec.batch_size,
        recorder=recorder,
        state=runner_state,
        replayed=len(restored.replayed) if restored is not None else 0,
    )

    # Epoch barriers sit at fixed *positions* of the global stream
    # (``source_seen``); every worker iterates the identical stream, so
    # the barrier set is identical across shards with no communication.
    skip_through = (
        spec.reshard.skip_source_through if spec.reshard is not None else 0
    )
    source_seen = 0

    prof = ctx.obs.profiler
    if prof.enabled:
        prof.begin("run", ctx.clock.now_us)
    for update in updates:
        source_seen += 1
        if source_seen <= skip_through:
            # Reshard skip region: the seeded windows already reflect
            # this prefix. Every worker skips the same prefix, so no
            # epoch barriers are crossed inside it.
            if update.sign is Sign.INSERT:
                arrivals_seen += 1
            continue
        if update.seq <= resume_seq:
            # Restored region: replayed (or checkpoint-covered) already.
            # Arrivals at or before the checkpoint were counted in the
            # restored tally; the replay span's still need counting. No
            # ``continue``: the barrier check below must still run so a
            # restarted worker re-passes decided epochs (answered from
            # the coordinator's plan log without blocking anyone).
            if update.seq > checkpoint_seq and update.sign is Sign.INSERT:
                arrivals_seen += 1
        else:
            if start_updates is None and arrivals_seen >= warmup_arrivals:
                # Drain buffered pre-warmup updates so the measured span
                # starts at a batch boundary.
                driver.flush()
                start_updates = ctx.metrics.updates_processed
                start_time_us = ctx.clock.now_us
            if update.sign is Sign.INSERT:
                arrivals_seen += 1
            if shard in scheme.shards_for(update):
                driver.offer(update)
        if sync_every and source_seen % sync_every == 0:
            driver.flush()
            exchange_epoch(source_seen // sync_every)
        if (
            spec.stop_after_updates is not None
            and source_seen >= spec.stop_after_updates
        ):
            break
    driver.flush()
    if prof.enabled:
        prof.end(ctx.clock.now_us)
    driver.close()  # the closing fsync falls outside the run span

    if start_updates is None:
        start_updates, start_time_us = 0, 0.0
    metrics = ctx.metrics
    resilience = getattr(plan, "resilience", None)
    stats = ShardStats(
        shard=shard,
        shard_count=shard_count,
        updates_processed=metrics.updates_processed,
        outputs_emitted=metrics.outputs_emitted,
        cache_probes=metrics.cache_probes,
        cache_hits=metrics.cache_hits,
        profiled_tuples=metrics.profiled_tuples,
        reoptimizations=metrics.reoptimizations,
        caches_added=metrics.caches_added,
        caches_dropped=metrics.caches_dropped,
        per_cache_hits=dict(metrics.per_cache_hits),
        clock_us=ctx.clock.now_us,
        measured_updates=metrics.updates_processed - start_updates,
        measured_span_us=ctx.clock.now_us - start_time_us,
        used_caches=_used_caches(plan),
        memory_bytes=_memory_in_use(plan),
        shed_updates=resilience.shed_total if resilience else 0,
        quarantined=resilience.quarantined if resilience else 0,
        degraded=bool(resilience and resilience.degraded),
        decision_count=len(ctx.obs.decisions),
        poisonings=poisonings,
    )
    windows = None
    if spec.collect_windows:
        windows = {
            name: sorted(
                ((row.rid, row.values) for row in relation.rows()),
                key=lambda pair: pair[0],
            )
            for name, relation in _relations_of(plan).items()
        }
    summary = resilience.summary() if resilience else None
    dead_letters = (
        list(resilience.guard.dead_letters.entries())
        if resilience is not None and resilience.guard is not None
        else []
    )
    telemetry = None
    if spec.collect_obs or spec.profile:
        from repro.obs.merge import collect_telemetry

        telemetry = collect_telemetry(
            ctx.obs, metrics=metrics, shard=shard
        )
    return ShardResult(
        stats=stats,
        deltas=deltas,
        canonical=canonical,
        windows=windows,
        resilience_summary=summary,
        dead_letters=dead_letters,
        telemetry=telemetry,
    )
