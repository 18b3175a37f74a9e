"""The global adaptivity plane for sharded execution.

Sharding partitions the update stream, and with it the profiler's
evidence: each shard sees only 1/N of the traffic, so no shard alone
accumulates the W samples per statistic (dij, cij, miss probability)
that justify a cache before the run ends — the "sharded hit_rate reads
0.0" blind spot. This module closes it by re-centralizing *selection*
while keeping *execution* sharded:

* at deterministic epoch boundaries (every ``sync_every_updates``
  positions of the *global* stream, identical on every worker because
  all workers replay the full stream) each shard freezes its profiler
  into a picklable :class:`ProfilerSnapshot` and submits it;
* the :class:`EpochCoordinator` merges the snapshots into global
  statistics — δ/τ windows are *pooled* into
  :class:`~repro.core.profiler.PooledProfile`\\ s (so sample counts weight
  shards naturally) and arrival rates are **summed, never averaged** —
  runs the paper's selection (Section 4.5 + the Section 5 memory
  admission) once against the global budget, and answers every shard
  with one :class:`CachePlan`. The decision is the serial re-optimizer's
  own: the estimate, drift gate, problem build, admission and bucket
  functions of :mod:`repro.core.profiler` and
  :mod:`repro.core.reoptimizer`, fed pooled evidence. The coordinator
  charges no clock and keeps its own decision log;
* shards apply the plan via
  :meth:`~repro.core.reoptimizer.Reoptimizer.apply_plan` (the serial
  wiring diff, sized by the plan's bucket counts) and keep
  processing. Plans only change cache wiring, never emitted deltas, so
  coordination preserves the serial ≡ sharded byte-identity property.

The barrier protocol is crash-tolerant: decided epochs are answered
from the plan log immediately, so a supervisor-restarted worker that
re-traverses the stream from its checkpoint passes old barriers without
blocking anyone (every epoch at or before its checkpoint was decided
before the checkpoint could have been written). A shard that degrades
to in-parent execution is :meth:`~EpochCoordinator.retire`\\ d first so
remaining shards' barriers shrink instead of deadlocking.

Why summed rates preserve the serial selection: each shard's virtual
clock advances only for its own ~1/N of the work, so its windowed
``rate(Ri)`` estimate approximates the *global* arrival rate and the
pooled total scales every d-term by ~N uniformly. Benefit, cost, proc,
and operator cost are all linear in the d-terms (:mod:`repro.core.cost_model`)
while ``miss_prob`` and the expected entry count are rate-free, so the
greedy/exhaustive selection order — and hence the chosen cache set — is
invariant under that uniform scaling.

The second half of the module is **elastic resharding** support: the
:class:`RescalePolicy`/:func:`recommend_rescale` trigger that reads the
merged run statistics and recommends scale-up/down, consumed by
:meth:`repro.parallel.engine.ParallelRun.rescale`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.memory import MemoryAllocator
from repro.core.profiler import (
    PooledProfile,
    estimate_candidates,
    expected_entries,
)
from repro.core.reoptimizer import (
    admit,
    bucket_count,
    build_problem,
    candidates_under,
    drifted,
    record_diff,
    signatures,
)
from repro.core.selection import select
from repro.engine.clock import CostModel
from repro.errors import ParallelError
from repro.obs import decisions as decisions_log
from repro.obs.decisions import DecisionLog


@dataclass(frozen=True)
class AdaptivityConfig:
    """How a sharded run coordinates cache selection globally.

    ``sync_every_updates`` is measured in positions of the *global*
    update stream (not per-shard processed counts), which is what makes
    the epoch barriers line up across workers without any communication.
    """

    sync_every_updates: int = 2000

    def __post_init__(self) -> None:
        if self.sync_every_updates < 1:
            raise ParallelError(
                "adaptivity sync_every_updates must be >= 1, got "
                f"{self.sync_every_updates}"
            )


# ---------------------------------------------------------------------------
# what a shard exports
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PipelineSnapshot:
    """One pipeline's windowed δ/τ evidence, frozen for the wire."""

    owner: str
    slots: int
    order: Tuple[str, ...]
    delta_windows: Tuple[Tuple[int, ...], ...]   # slots + 1 windows
    tau_windows: Tuple[Tuple[float, ...], ...]   # slots windows
    rate: float                                  # updates/sec (virtual)
    arrivals: int


@dataclass(frozen=True)
class ProfilerSnapshot:
    """One shard's full statistical state at an epoch boundary."""

    shard: int
    epoch: int
    now_us: float
    updates_processed: int
    pipelines: Tuple[PipelineSnapshot, ...]
    # candidate_id -> recent miss-probability observations
    miss_windows: Tuple[Tuple[str, Tuple[float, ...]], ...]
    used_cache_ids: Tuple[str, ...]


def snapshot_from_plan(plan, shard: int, epoch: int) -> ProfilerSnapshot:
    """Freeze an A-Caching engine's profiler state for the coordinator.

    Used caches are harvested first (their directly observed miss
    probability folds into the miss windows, Appendix A in-use case), so
    the snapshot carries everything the shard knows.
    """
    profiler = plan.profiler
    reoptimizer = plan.reoptimizer
    ctx = plan.ctx
    for candidate_id, wired in reoptimizer.wiring.wired.items():
        profiler.harvest_used_cache(candidate_id, wired.cache)
    orders = plan.executor.orders()
    pipelines = []
    for owner in sorted(profiler.profiles):
        profile = profiler.profiles[owner]
        pipelines.append(
            PipelineSnapshot(
                owner=owner,
                slots=profile.slots,
                order=tuple(orders.get(owner, ())),
                delta_windows=tuple(
                    tuple(window) for window in profile.delta_windows
                ),
                tau_windows=tuple(
                    tuple(window) for window in profile.tau_windows
                ),
                rate=profile.rate(),
                arrivals=len(profile._arrival_times),
            )
        )
    return ProfilerSnapshot(
        shard=shard,
        epoch=epoch,
        now_us=ctx.clock.now_us,
        updates_processed=ctx.metrics.updates_processed,
        pipelines=tuple(pipelines),
        miss_windows=tuple(
            (candidate_id, tuple(window))
            for candidate_id, window in sorted(profiler.miss_windows.items())
        ),
        used_cache_ids=tuple(
            sorted(
                c.candidate_id
                for c in reoptimizer.wiring.used_candidates()
            )
        ),
    )


# ---------------------------------------------------------------------------
# what the coordinator pushes back
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CachePlan:
    """The globally selected cache set for one epoch.

    ``buckets`` carries per-shard bucket estimates (global expected
    entries split across active shards). ``applied=False`` marks a plan
    carried over unchanged because estimates stayed below the change
    threshold — shards still apply it (idempotently).
    """

    epoch: int
    candidate_ids: Tuple[str, ...]
    buckets: Tuple[Tuple[str, int], ...] = ()
    applied: bool = True


class EpochCoordinator:
    """Merges shard snapshots and decides one cache plan per epoch.

    The core is synchronous and transport-free: :meth:`submit` returns
    the deliveries it can make *now* as ``(shard, plan)`` pairs — either
    an immediate answer from the plan log (decided epoch) or, when the
    last awaited shard arrives, one delivery per barrier participant.
    :class:`ThreadChannel` and the process-backend parent loop wrap it
    with their respective transports.
    """

    def __init__(self, spec, shard_count: int):
        engine = spec.engine
        if engine.kind != "acaching":
            raise ParallelError(
                "coordinated adaptivity requires an acaching engine, "
                f"got kind {engine.kind!r}"
            )
        config = engine.config.acaching_config()
        self.profiler_config = config.profiler
        self.reopt_config = config.reoptimizer
        self.graph = spec.workload_factory().graph
        self.shard_count = shard_count
        self.cost_model = CostModel()
        self.allocator = MemoryAllocator(
            self.reopt_config.memory_budget_bytes
        )
        self.decisions = DecisionLog()
        self.plans: Dict[int, CachePlan] = {}
        #: shards still participating in barriers (retire() removes).
        self.active: Set[int] = set(range(shard_count))
        #: shards currently blocked waiting for an undecided epoch — the
        #: supervisor treats these as live even without heartbeats.
        self.waiting: Set[int] = set()
        self._pending: Dict[int, Dict[int, ProfilerSnapshot]] = {}
        self._last_signature: Dict[str, Tuple[float, float]] = {}
        self._last_plan: Optional[CachePlan] = None
        self._reopt_seq = 0

    # ------------------------------------------------------------------
    # the barrier protocol
    # ------------------------------------------------------------------
    def submit(
        self, epoch: int, shard: int, snapshot: ProfilerSnapshot
    ) -> List[Tuple[int, CachePlan]]:
        """Record one shard's snapshot; return deliveries now possible."""
        decided = self.plans.get(epoch)
        if decided is not None:
            # A restarted worker re-traversing an already-decided epoch:
            # answer from the log without disturbing the live barrier.
            return [(shard, decided)]
        pending = self._pending.setdefault(epoch, {})
        pending[shard] = snapshot
        self.waiting.add(shard)
        if self.active and self.active.issubset(pending.keys()):
            return self._complete(epoch)
        return []

    def retire(self, shard: int) -> List[Tuple[int, CachePlan]]:
        """Remove a shard from all future barriers (fallback/failure).

        May complete barriers that were only waiting on the retired
        shard; the freed deliveries are returned for the transport to
        flush.
        """
        was_active = shard in self.active
        self.active.discard(shard)
        self.waiting.discard(shard)
        # A shard that dies between heartbeat and barrier leaves every
        # open epoch stalled on its snapshot. Name the culprit in the
        # decision log so a chaos-matrix cell that kills a worker at a
        # barrier is diagnosable, not just eventually restarted.
        stalled = [
            epoch
            for epoch, pending in self._pending.items()
            if was_active and epoch not in self.plans and shard not in pending
        ]
        if stalled:
            now_us = max(
                snapshot.now_us
                for pending in self._pending.values()
                for snapshot in pending.values()
            )
            self.decisions.record(
                now_us,
                decisions_log.EPOCH_STALL,
                "coordinator",
                reason=(
                    f"shard {shard} retired without submitting epoch"
                    f"{'s' if len(stalled) > 1 else ''} "
                    f"{sorted(stalled)}; completing barriers without it"
                ),
                reopt_seq=self._reopt_seq,
            )
        deliveries: List[Tuple[int, CachePlan]] = []
        for epoch in sorted(self._pending):
            pending = self._pending[epoch]
            pending.pop(shard, None)
            if epoch in self.plans:
                continue
            if (
                pending
                and self.active
                and self.active.issubset(pending.keys())
            ):
                deliveries.extend(self._complete(epoch))
        return deliveries

    def _complete(self, epoch: int) -> List[Tuple[int, CachePlan]]:
        pending = self._pending.pop(epoch)
        plan = self._decide(epoch, pending)
        self.plans[epoch] = plan
        self._last_plan = plan
        for shard in pending:
            self.waiting.discard(shard)
        return [(shard, plan) for shard in sorted(pending)]

    def plans_in_order(self) -> Tuple[CachePlan, ...]:
        """Every decided plan, in epoch order."""
        return tuple(self.plans[epoch] for epoch in sorted(self.plans))

    # ------------------------------------------------------------------
    # the global re-optimization
    # ------------------------------------------------------------------
    def _decide(
        self, epoch: int, snapshots: Dict[int, ProfilerSnapshot]
    ) -> CachePlan:
        ordered = [snapshots[shard] for shard in sorted(snapshots)]
        now_us = max(snapshot.now_us for snapshot in ordered)
        reference = ordered[0]
        orders = {
            pipeline.owner: list(pipeline.order)
            for pipeline in reference.pipelines
            if pipeline.order
        }
        candidates = candidates_under(self.graph, orders, self.reopt_config)
        merged = self._merge_profiles(ordered, reference)
        miss = self._merge_miss(ordered)
        stats = estimate_candidates(candidates, merged, miss.get)
        previous_ids = (
            self._last_plan.candidate_ids if self._last_plan else ()
        )
        if not stats:
            return CachePlan(
                epoch=epoch, candidate_ids=previous_ids, applied=False
            )
        cm = self.cost_model
        signature = signatures(stats, cm)
        if self._last_plan is not None and not drifted(
            signature, self._last_signature, self.reopt_config.change_threshold
        ):
            return CachePlan(
                epoch=epoch,
                candidate_ids=previous_ids,
                buckets=self._last_plan.buckets,
                applied=False,
            )
        self._last_signature = signature
        self._reopt_seq += 1
        selected = select(
            build_problem(candidates, stats, merged, cm),
            method=self.reopt_config.selection_method,
            exhaustive_limit=self.reopt_config.exhaustive_limit,
        )

        def entries_of(candidate) -> float:
            # The unscaled Wd: these are global, not per-shard, entries.
            return expected_entries(
                miss.get(candidate.candidate_id),
                self.profiler_config.bloom_window_tuples,
            )

        admitted, rejected, pages_used = admit(
            selected, stats, cm, self.allocator, entries_of
        )
        for member, demand in rejected:
            self.decisions.record(
                now_us,
                decisions_log.MEMORY_REJECT,
                member.candidate_id,
                reason=(
                    "globally selected but denied pages "
                    f"({pages_used} pages committed)"
                ),
                reopt_seq=self._reopt_seq,
                stats=stats.get(member.candidate_id),
                memory_budget_bytes=self.allocator.budget_bytes,
                expected_bytes=demand.expected_bytes,
            )
        shard_divisor = max(1, len(self.active) or self.shard_count)
        plan = CachePlan(
            epoch=epoch,
            candidate_ids=tuple(
                sorted(c.candidate_id for c in admitted)
            ),
            # Per-shard bucket counts: the global entries split evenly.
            buckets=tuple(
                sorted(
                    (
                        c.candidate_id,
                        bucket_count(
                            entries_of(c) / shard_divisor, self.reopt_config
                        ),
                    )
                    for c in admitted
                )
            ),
        )
        self.decisions.record(
            now_us,
            decisions_log.PLAN_PUSH,
            "coordinator",
            reason=(
                f"epoch {epoch}: merged {len(ordered)} shard "
                f"snapshots, pushed {len(plan.candidate_ids)} caches"
            ),
            reopt_seq=self._reopt_seq,
            memory_budget_bytes=self.allocator.budget_bytes,
        )
        target, previous = set(plan.candidate_ids), set(previous_ids)
        suffix = f"by global re-optimization (epoch {epoch})"
        record_diff(
            self.decisions,
            now_us,
            sorted(target - previous),
            sorted(previous - target),
            (f"selected {suffix}", f"deselected {suffix}"),
            self._reopt_seq,
            stats,
            signature,
            memory_budget_bytes=self.allocator.budget_bytes,
        )
        return plan

    def _merge_profiles(
        self,
        snapshots: Sequence[ProfilerSnapshot],
        reference: ProfilerSnapshot,
    ) -> Dict[str, PooledProfile]:
        """Pool per-pipeline windows across shards.

        Only shards whose pipeline runs the reference ordering are
        pooled for that pipeline — after an independent reorder a
        shard's δ/τ windows describe a different plan and would poison
        the pooled means.
        """
        reference_orders = {
            pipeline.owner: pipeline.order
            for pipeline in reference.pipelines
        }
        merged: Dict[str, PooledProfile] = {}
        for pipeline in reference.pipelines:
            merged[pipeline.owner] = PooledProfile(
                pipeline.owner, pipeline.slots, self.profiler_config.window
            )
        for snapshot in snapshots:
            for pipeline in snapshot.pipelines:
                pooled = merged.get(pipeline.owner)
                if (
                    pooled is None
                    or pipeline.slots != pooled.slots
                    or pipeline.order
                    != reference_orders.get(pipeline.owner)
                ):
                    continue
                pooled.fold(pipeline)
        return merged

    @staticmethod
    def _merge_miss(
        snapshots: Sequence[ProfilerSnapshot],
    ) -> Dict[str, float]:
        """Pooled mean miss probability per candidate."""
        pooled: Dict[str, List[float]] = {}
        for snapshot in snapshots:
            for candidate_id, window in snapshot.miss_windows:
                pooled.setdefault(candidate_id, []).extend(window)
        return {
            candidate_id: sum(window) / len(window)
            for candidate_id, window in pooled.items()
            if window
        }


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------
class ThreadChannel:
    """Barrier transport for shards running as threads in one process."""

    #: seconds a shard waits at a barrier before declaring it wedged.
    BARRIER_TIMEOUT_S = 120.0

    def __init__(self, coordinator: EpochCoordinator):
        self._coordinator = coordinator
        self._cond = threading.Condition()
        self._inbox: Dict[int, CachePlan] = {}

    def exchange(
        self, epoch: int, shard: int, snapshot: ProfilerSnapshot
    ) -> CachePlan:
        with self._cond:
            deliveries = self._coordinator.submit(epoch, shard, snapshot)
            for target, plan in deliveries:
                self._inbox[target] = plan
            if deliveries:
                self._cond.notify_all()
            while shard not in self._inbox:
                if not self._cond.wait(timeout=self.BARRIER_TIMEOUT_S):
                    pending = self._coordinator._pending.get(epoch, {})
                    missing = sorted(self._coordinator.active - set(pending))
                    raise ParallelError(
                        f"shard {shard} timed out waiting for the "
                        f"epoch {epoch} cache plan; still missing "
                        f"snapshots from shard(s) {missing}"
                    )
            return self._inbox.pop(shard)

    def retire(self, shard: int) -> None:
        with self._cond:
            for target, plan in self._coordinator.retire(shard):
                self._inbox[target] = plan
            self._cond.notify_all()


class PipeChannel:
    """Worker-side barrier transport over a duplex multiprocessing pipe.

    The parent (the process backend's Supervisor loop) owns the
    :class:`EpochCoordinator`; the worker just
    sends ``("snap", epoch, shard, snapshot)`` and blocks until the
    matching ``("plan", CachePlan)`` arrives. Plans for stale epochs
    (possible after a restart raced a delivery) are discarded.
    """

    def __init__(self, conn):
        self._conn = conn

    def exchange(
        self, epoch: int, shard: int, snapshot: ProfilerSnapshot
    ) -> CachePlan:
        self._conn.send(("snap", epoch, shard, snapshot))
        while True:
            message = self._conn.recv()
            if (
                isinstance(message, tuple)
                and message
                and message[0] == "plan"
            ):
                plan = message[1]
                if plan.epoch >= epoch:
                    return plan

    def retire(self, shard: int) -> None:
        """The parent retires workers on its side; nothing to do here."""


def scale_bloom_windows(plan, shard_count: int) -> None:
    """Make per-shard bloom windows span the serial probe-stream distance.

    The miss-probability estimator emits one observation per ``Wd``
    probes (Appendix A), but a shard only probes its ~1/N partition of
    the stream — with the unscaled window a sharded run needs N× the
    stream length per observation, so short runs never estimate
    ``miss_prob`` at all and the coordinator can never admit a cache.
    Dividing the per-shard window by the shard count restores the
    serial observation cadence, and with hash partitioning the local
    ``distinct/window`` ratio estimates the same global quantity.

    The profiler gets its own config copy (the spec's instance is
    shared across shards and runs) and the installed estimators are
    rebuilt at the new width. Idempotent: an engine restored from a
    checkpoint was scaled before the checkpoint was written, so the
    replayed state — estimator fill included — is left untouched. The
    coordinator itself keeps the unscaled ``Wd`` for its global
    expected-entry estimates.
    """
    if shard_count <= 1:
        return
    profiler = getattr(plan, "profiler", None)
    reoptimizer = getattr(plan, "reoptimizer", None)
    if profiler is None or reoptimizer is None:
        return
    from dataclasses import replace as _replace

    config = profiler.config
    scaled = max(1, config.bloom_window_tuples // shard_count)
    if config.bloom_window_tuples == scaled:
        return
    profiler.config = _replace(config, bloom_window_tuples=scaled)
    for candidate_id in list(profiler._installed_blooms):
        candidate = reoptimizer.candidates.get(candidate_id)
        if candidate is None:
            continue
        profiler.remove_bloom(candidate_id)
        profiler.install_bloom(candidate)


# ---------------------------------------------------------------------------
# elastic resharding: the rate-aware trigger
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RescalePolicy:
    """When to recommend changing the shard count.

    ``target_shard_rate`` is the per-shard sustainable update rate in
    updates per second of virtual time; ``headroom`` scales the demand
    before dividing so the recommendation leads saturation instead of
    chasing it. ``hysteresis`` suppresses one-shard oscillation.
    """

    target_shard_rate: float = 40_000.0
    headroom: float = 1.25
    min_shards: int = 1
    max_shards: int = 16
    hysteresis: int = 0

    def __post_init__(self) -> None:
        if self.target_shard_rate <= 0:
            raise ParallelError(
                "rescale target_shard_rate must be positive"
            )
        if self.min_shards < 1 or self.max_shards < self.min_shards:
            raise ParallelError(
                "rescale policy needs 1 <= min_shards <= max_shards"
            )


@dataclass(frozen=True)
class RescaleAdvice:
    """The trigger's verdict, with the evidence it used."""

    current_shards: int
    recommended_shards: int
    observed_rate: float     # summed per-shard update rates (virtual)
    reason: str

    @property
    def action(self) -> str:
        if self.recommended_shards > self.current_shards:
            return "scale-up"
        if self.recommended_shards < self.current_shards:
            return "scale-down"
        return "hold"

    @property
    def should_rescale(self) -> bool:
        return self.recommended_shards != self.current_shards


def recommend_rescale(stats, policy: Optional[RescalePolicy] = None):
    """Rate-aware resharding advice from merged run statistics.

    ``stats`` is a :class:`~repro.parallel.stats.MergedStats`. The
    observed demand is the **sum** of per-shard processing rates (each
    shard's virtual clock only advances for its own work, so the sum
    approximates the global arrival rate the run must sustain).
    """
    policy = policy if policy is not None else RescalePolicy()
    rates = []
    for updates, span_us in zip(
        stats.per_shard_updates, stats.per_shard_clock_us
    ):
        if span_us > 0:
            rates.append(updates / (span_us / 1e6))
    observed = sum(rates)
    current = stats.shard_count
    wanted = max(1, math.ceil(observed * policy.headroom / policy.target_shard_rate))
    recommended = min(policy.max_shards, max(policy.min_shards, wanted))
    if abs(recommended - current) <= policy.hysteresis:
        recommended = current
    reason = (
        f"observed {observed:.0f} updates/s across {current} shards; "
        f"target {policy.target_shard_rate:.0f}/shard with "
        f"{policy.headroom:.2f}x headroom wants {recommended}"
    )
    return RescaleAdvice(
        current_shards=current,
        recommended_shards=recommended,
        observed_rate=observed,
        reason=reason,
    )
