"""The Re-optimizer of Figure 4: adaptive cache selection (Section 4.5).

Candidate caches cycle through three states:

* **used** — wired into the pipelines (lookup + maintenance taps);
* **profiled** — not probed, but a Bloom lookup estimates ``miss_prob``
  and the shared Profiler supplies ``d``/``c`` statistics;
* **unused** — neither.

Against the simplified algorithm the paper lists three refinements, all
implemented here:

a. **immediate drop** — ``benefit − cost`` of every used cache is
   monitored continuously (cheap: observed miss probability plus existing
   profile statistics) and a cache whose net goes negative is unwired at
   once, while newly *useful* caches wait for the next re-optimization;
b. **keep warm while profiling** — a used cache is moved to the profiled
   state only when an unused subset candidate needs its probe stream; its
   maintenance taps stay attached so the store remains consistent and
   resuming costs nothing;
c. **change threshold** — the offline algorithm runs only when some
   benefit or cost drifted by ≥ ``p`` (default 20%) since the last
   selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import cost_model
from repro.obs import decisions as decisions_log
from repro.core.candidates import (
    CandidateCache,
    enumerate_candidates,
    shared_groups,
)
from repro.core.memory import CacheDemand, MemoryAllocator
from repro.core.profiler import Profiler
from repro.core.selection import SelectionProblem, select
from repro.core.wiring import CacheWiring
from repro.mjoin.executor import MJoinExecutor


class CandidateState(Enum):
    """The three candidate states of Section 4.5."""
    USED = "used"
    PROFILED = "profiled"
    UNUSED = "unused"


@dataclass
class ReoptimizerConfig:
    """Section 7.1 defaults: I = 2 s, W = 10 (in the Profiler), p = 20%."""

    reopt_interval_seconds: float = 2.0
    reopt_interval_updates: Optional[int] = None  # overrides seconds if set
    change_threshold: float = 0.20
    global_quota: int = 6            # m of Section 6
    selection_method: str = "auto"
    exhaustive_limit: int = 16
    monitor_every_updates: int = 200
    profiling_phase_updates: int = 640  # ≈ W × Wd probe-stream tuples
    min_bucket_count: int = 64
    max_bucket_count: int = 65536
    memory_budget_bytes: Optional[int] = None
    entry_horizon_seconds: float = 1.0


class Reoptimizer:
    """Keeps the optimal nonoverlapping cache subset wired as stats drift."""

    # A class-level default keeps engines restored from pre-coordination
    # checkpoints valid (see the ``coordinated`` property).
    _coordinated = False
    # Called when ``coordinated`` is assigned: the owning ACaching's due
    # point for the per-update hooks (next_due) must be recomputed.
    on_schedule_change: Optional[Callable[[], None]] = None

    def __init__(
        self,
        executor: MJoinExecutor,
        profiler: Profiler,
        config: Optional[ReoptimizerConfig] = None,
        wiring: Optional[CacheWiring] = None,
        allocator: Optional[MemoryAllocator] = None,
    ):
        self.executor = executor
        self.profiler = profiler
        self.config = config if config is not None else ReoptimizerConfig()
        # Injectable for multi-query engines: a wiring that consults the
        # inter-query cache directory and an allocator that routes through
        # the global memory arbiter.
        self.wiring = wiring if wiring is not None else CacheWiring(executor)
        self.allocator = (
            allocator
            if allocator is not None
            else MemoryAllocator(self.config.memory_budget_bytes)
        )
        self.candidates: Dict[str, CandidateCache] = {}
        self.states: Dict[str, CandidateState] = {}
        self._last_signature: Dict[str, Tuple[float, float]] = {}
        self._last_reopt_at: float = 0.0
        self._last_reopt_updates: int = 0
        self._last_monitor_updates: int = 0
        self._profiling_until_updates: Optional[int] = None
        self.bootstrap()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def bootstrap(self) -> None:
        """Step 1: enumerate candidates; everything starts out profiled."""
        self.candidates = {
            c.candidate_id: c
            for c in enumerate_candidates(
                self.executor.graph,
                self.executor.orders(),
                global_quota=self.config.global_quota,
            )
        }
        self.states = {
            cid: CandidateState.PROFILED for cid in self.candidates
        }
        for candidate in self.candidates.values():
            self.profiler.install_bloom(candidate)

    def on_reorder(self, owner: str) -> None:
        """Step 5: a pipeline was reordered — drop affected caches and
        recompute candidates (the executor already swapped the pipeline)."""
        self.wiring.drop_touching(owner)
        self.profiler.rebuild_profiles(owner)
        previous = self.candidates
        self.candidates = {
            c.candidate_id: c
            for c in enumerate_candidates(
                self.executor.graph,
                self.executor.orders(),
                global_quota=self.config.global_quota,
            )
        }
        # Keep profiling history for candidates unaffected by the reorder;
        # candidates touching the reordered pipeline start over.
        for candidate_id in list(self.states):
            candidate = previous.get(candidate_id)
            stale = (
                candidate_id not in self.candidates
                or candidate is None
                or candidate.owner == owner
                or owner in candidate.maintenance_set
            )
            if stale:
                self.states.pop(candidate_id, None)
                self.profiler.miss_windows.pop(candidate_id, None)
                self.profiler.remove_bloom(candidate_id)
                self._last_signature.pop(candidate_id, None)
        for candidate_id, candidate in self.candidates.items():
            if candidate_id in self.wiring.wired:
                self.states[candidate_id] = CandidateState.USED
                self.profiler.remove_bloom(candidate_id)
            elif candidate_id not in self.states:
                self.states[candidate_id] = CandidateState.PROFILED
                self.profiler.install_bloom(candidate)

    # ------------------------------------------------------------------
    # coherence-auditor coordination (repro.faults.auditor)
    # ------------------------------------------------------------------
    def on_cache_quarantined(self, candidate_id: str) -> None:
        """The auditor detached a poisoned cache behind our back: return
        the candidate to the profiled pool (bloom reinstalled) so a later
        selection cycle may legitimately rebuild it."""
        candidate = self.candidates.get(candidate_id)
        if candidate is None:
            return
        if self.states.get(candidate_id) is CandidateState.USED:
            self.states[candidate_id] = CandidateState.PROFILED
            self.profiler.install_bloom(candidate)

    def on_cache_rebuilt(self, candidate_id: str) -> None:
        """The auditor re-attached a quarantined candidate: mirror the
        selection bookkeeping so states stay consistent with the wiring."""
        if candidate_id not in self.candidates:
            return
        if self.states.get(candidate_id) is not CandidateState.USED:
            self.states[candidate_id] = CandidateState.USED
            self.profiler.remove_bloom(candidate_id)

    @property
    def coordinated(self) -> bool:
        """Set at runtime by the sharded worker (repro.parallel.shard) when
        a run is coordinated: selection authority moves to the cross-shard
        EpochCoordinator and local cycles are disabled — the shard only
        profiles, snapshots, and applies pushed plans."""
        return self._coordinated

    @coordinated.setter
    def coordinated(self, value: bool) -> None:
        self._coordinated = value
        if self.on_schedule_change is not None:
            self.on_schedule_change()

    # ------------------------------------------------------------------
    # per-update hook
    # ------------------------------------------------------------------
    def next_due(self) -> Tuple[float, float]:
        """The earliest (updates processed, clock µs) at which
        :meth:`after_update` can act; ``inf`` where nothing is due.

        The monitor cadence, then the end of the profiling phase or the
        re-optimization interval. The seconds interval is compared in
        ``now_seconds``; its deadline is 1 µs early so float rounding in
        that conversion can never let the interval elapse before the
        clock reaches it. A coordinated re-optimizer never acts.
        """
        if self.coordinated:
            return math.inf, math.inf
        config = self.config
        due = self._last_monitor_updates + config.monitor_every_updates
        if self._profiling_until_updates is not None:
            return min(due, self._profiling_until_updates), math.inf
        if config.reopt_interval_updates is not None:
            interval_due = (
                self._last_reopt_updates + config.reopt_interval_updates
            )
            return min(due, interval_due), math.inf
        return due, (
            (self._last_reopt_at + config.reopt_interval_seconds) * 1e6 - 1.0
        )

    def after_update(self) -> None:
        """Drives monitoring and phases; a no-op until :meth:`next_due`
        (the owning ACaching calls it only from then on)."""
        if self.coordinated:
            # Under global coordination every selection decision — adds,
            # drops, memory admission — comes from the coordinator's plan
            # pushes; running local cycles here would fight them.
            return
        metrics = self.executor.ctx.metrics
        updates = metrics.updates_processed
        if (
            updates - self._last_monitor_updates
            >= self.config.monitor_every_updates
        ):
            self._last_monitor_updates = updates
            self._monitor_used()
        if self._profiling_until_updates is not None:
            if updates >= self._profiling_until_updates:
                self._profiling_until_updates = None
                self.reoptimize()
            return
        if self._interval_elapsed():
            self._begin_cycle()

    def _interval_elapsed(self) -> bool:
        if self.config.reopt_interval_updates is not None:
            return (
                self.executor.ctx.metrics.updates_processed
                - self._last_reopt_updates
                >= self.config.reopt_interval_updates
            )
        return (
            self.executor.ctx.clock.now_seconds - self._last_reopt_at
            >= self.config.reopt_interval_seconds
        )

    def _begin_cycle(self) -> None:
        """Start a re-optimization cycle, with a profiling phase first when
        some used cache shadows a candidate's probe stream (improvement b).
        """
        self._last_reopt_at = self.executor.ctx.clock.now_seconds
        self._last_reopt_updates = (
            self.executor.ctx.metrics.updates_processed
        )
        self.profiler.reactivate_blooms()
        # Step 4 of the simplified algorithm: every candidate returns to
        # the profiled state at each interval, so caches dropped by the
        # continuous monitor are reconsidered once conditions change.
        for candidate_id, state in self.states.items():
            if state is CandidateState.UNUSED:
                self.states[candidate_id] = CandidateState.PROFILED
                candidate = self.candidates.get(candidate_id)
                if candidate is not None:
                    self.profiler.install_bloom(candidate)
        shadowing = self._shadowing_used_caches()
        if shadowing:
            for candidate_id in shadowing:
                self.wiring.suspend_lookup(candidate_id)
            self._profiling_until_updates = (
                self.executor.ctx.metrics.updates_processed
                + self.config.profiling_phase_updates
            )
        else:
            self.reoptimize()

    def _shadowing_used_caches(self) -> List[str]:
        """Used caches whose bypass hides a profiled candidate's bloom."""
        shadowing = []
        for candidate_id, wired in self.wiring.wired.items():
            if not wired.lookup_attached:
                continue
            used = wired.candidate
            for other_id, state in self.states.items():
                if state is not CandidateState.PROFILED:
                    continue
                other = self.candidates.get(other_id)
                if other is None or other.owner != used.owner:
                    continue
                if used.start < other.start <= used.end:
                    shadowing.append(candidate_id)
                    break
        return shadowing

    # ------------------------------------------------------------------
    # improvement (a): continuous monitoring of used caches
    # ------------------------------------------------------------------
    def _monitor_used(self) -> None:
        ctx = self.executor.ctx
        for candidate_id, wired in list(self.wiring.wired.items()):
            if not wired.lookup_attached:
                continue
            self.profiler.harvest_used_cache(candidate_id, wired.cache)
            stats = self.profiler.statistics_for(wired.candidate)
            if stats is None:
                continue
            net = cost_model.net_benefit(stats, ctx.cost_model)
            if net < 0:
                ctx.obs.decisions.record(
                    ctx.clock.now_us,
                    decisions_log.MONITOR_DROP,
                    candidate_id,
                    reason="continuous monitor: benefit - cost went negative",
                    reopt_seq=ctx.metrics.reoptimizations,
                    stats=stats,
                    benefit=cost_model.benefit(stats, ctx.cost_model),
                    cost=cost_model.cost(stats, ctx.cost_model),
                    memory_used_bytes=self.wiring.memory_bytes(),
                    memory_budget_bytes=self.allocator.budget_bytes,
                )
                self.wiring.detach(candidate_id)
                self.states[candidate_id] = CandidateState.UNUSED

    # ------------------------------------------------------------------
    # the re-optimization step itself
    # ------------------------------------------------------------------
    def reoptimize(self, force: bool = False) -> List[CandidateCache]:
        """Run offline selection on current estimates and apply the diff."""
        ctx = self.executor.ctx
        cm = ctx.cost_model
        metrics = ctx.metrics
        obs = ctx.obs
        stats: Dict[str, cost_model.CacheStatistics] = {}
        for candidate_id, wired in self.wiring.wired.items():
            self.profiler.harvest_used_cache(candidate_id, wired.cache)
        for candidate_id, candidate in self.candidates.items():
            estimate = self.profiler.statistics_for(candidate)
            if estimate is not None:
                stats[candidate_id] = estimate
        if not stats:
            self._resume_all_suspended()
            return self._currently_used()
        signature = {
            cid: (
                cost_model.benefit(s, cm),
                cost_model.cost(s, cm),
            )
            for cid, s in stats.items()
        }
        if not force and not self._changed_significantly(signature):
            if obs.enabled:
                obs.tracer.emit(
                    "reoptimize",
                    ctx.clock.now_us,
                    applied=False,
                    reason="below change threshold",
                    candidates_estimated=len(stats),
                    used=sorted(
                        c.candidate_id for c in self._currently_used()
                    ),
                )
            self._resume_all_suspended()
            return self._currently_used()
        self._last_signature = signature
        metrics.reoptimizations += 1
        reopt_seq = metrics.reoptimizations
        ctx.clock.charge(
            cm.reoptimize_base + cm.reoptimize_candidate * len(stats)
        )
        problem = self._build_problem(stats, cm)
        selected = select(
            problem,
            method=self.config.selection_method,
            exhaustive_limit=self.config.exhaustive_limit,
        )
        admitted = self._allocate_memory(selected, stats, cm, reopt_seq)
        previously_used = {
            c.candidate_id for c in self.wiring.used_candidates()
        }
        self._apply(admitted)
        self._record_selection(
            stats, signature, admitted, previously_used, reopt_seq
        )
        return admitted

    def _record_selection(
        self,
        stats: Dict[str, cost_model.CacheStatistics],
        signature: Dict[str, Tuple[float, float]],
        admitted: List[CandidateCache],
        previously_used: set,
        reopt_seq: int,
    ) -> None:
        """Log one re-optimization's add/drop decisions and trace event."""
        ctx = self.executor.ctx
        now_us = ctx.clock.now_us
        memory_used = self.wiring.memory_bytes()
        budget = self.allocator.budget_bytes
        target = {c.candidate_id for c in admitted}
        added = sorted(target - previously_used)
        dropped = sorted(previously_used - target)
        for candidate_id in added:
            benefit, cost = signature.get(candidate_id, (None, None))
            ctx.obs.decisions.record(
                now_us,
                decisions_log.ATTACH,
                candidate_id,
                reason="selected by re-optimization",
                reopt_seq=reopt_seq,
                stats=stats.get(candidate_id),
                benefit=benefit,
                cost=cost,
                memory_used_bytes=memory_used,
                memory_budget_bytes=budget,
            )
        for candidate_id in dropped:
            benefit, cost = signature.get(candidate_id, (None, None))
            ctx.obs.decisions.record(
                now_us,
                decisions_log.DETACH,
                candidate_id,
                reason="deselected by re-optimization",
                reopt_seq=reopt_seq,
                stats=stats.get(candidate_id),
                benefit=benefit,
                cost=cost,
                memory_used_bytes=memory_used,
                memory_budget_bytes=budget,
            )
        if ctx.obs.enabled:
            ctx.obs.tracer.emit(
                "reoptimize",
                now_us,
                applied=True,
                reopt_seq=reopt_seq,
                candidates_estimated=len(stats),
                used=sorted(target),
                added=added,
                dropped=dropped,
                memory_used_bytes=memory_used,
                memory_budget_bytes=budget,
            )

    def _changed_significantly(
        self, signature: Dict[str, Tuple[float, float]]
    ) -> bool:
        """Improvement (c): did any benefit/cost drift ≥ p since last time?"""
        if not self._last_signature:
            return True
        threshold = self.config.change_threshold
        for candidate_id, (new_benefit, new_cost) in signature.items():
            state = self.states.get(candidate_id)
            if state is CandidateState.UNUSED:
                continue
            old = self._last_signature.get(candidate_id)
            if old is None:
                return True
            for new, previous in ((new_benefit, old[0]), (new_cost, old[1])):
                scale = max(abs(previous), 1e-9)
                if abs(new - previous) / scale > threshold:
                    return True
        return False

    def _build_problem(
        self, stats: Dict[str, cost_model.CacheStatistics], cm
    ) -> SelectionProblem:
        live = [
            self.candidates[cid] for cid in stats if cid in self.candidates
        ]
        benefit = {
            cid: cost_model.benefit(stats[cid], cm) for cid in stats
        }
        proc = {cid: cost_model.proc(stats[cid], cm) for cid in stats}
        group_cost: Dict[Tuple, float] = {}
        for token, members in shared_groups(live).items():
            # All members of a group share one maintenance stream; any
            # member's estimate identifies it.
            group_cost[token] = cost_model.cost(
                stats[members[0].candidate_id], cm
            )
        operator_cost = {}
        for owner, profile in self.profiler.profiles.items():
            for slot in range(profile.slots):
                operator_cost[(owner, slot)] = profile.d(slot) * profile.c(
                    slot
                )
        return SelectionProblem(
            candidates=live,
            benefit=benefit,
            proc=proc,
            group_cost=group_cost,
            operator_cost=operator_cost,
        )

    def _allocate_memory(
        self,
        selected: List[CandidateCache],
        stats: Dict[str, cost_model.CacheStatistics],
        cm,
        reopt_seq: int = 0,
    ) -> List[CandidateCache]:
        """Section 5: admit the selection greedily by net benefit per byte."""
        if self.allocator.budget_bytes is None:
            return selected
        groups = shared_groups(selected)
        demands = []
        members_of: Dict[Tuple, List[CandidateCache]] = {}
        for token, members in groups.items():
            net = sum(
                cost_model.benefit(stats[c.candidate_id], cm)
                for c in members
            ) - cost_model.cost(stats[members[0].candidate_id], cm)
            expected = self._expected_bytes(members[0], stats, cm)
            demands.append(
                CacheDemand(
                    candidate=members[0],
                    net_benefit=net,
                    expected_bytes=expected,
                )
            )
            members_of[token] = members
        result = self.allocator.admit(demands)
        ctx = self.executor.ctx
        for verdict, demand in result.audit:
            if verdict != "reject":
                continue
            for member in members_of[demand.candidate.share_token]:
                candidate_id = member.candidate_id
                member_stats = stats.get(candidate_id)
                ctx.obs.decisions.record(
                    ctx.clock.now_us,
                    decisions_log.MEMORY_REJECT,
                    candidate_id,
                    reason=(
                        "selected but denied pages "
                        f"({result.pages_used} pages already committed)"
                    ),
                    reopt_seq=reopt_seq,
                    stats=member_stats,
                    benefit=(
                        cost_model.benefit(member_stats, cm)
                        if member_stats is not None else None
                    ),
                    cost=(
                        cost_model.cost(member_stats, cm)
                        if member_stats is not None else None
                    ),
                    memory_used_bytes=self.wiring.memory_bytes(),
                    memory_budget_bytes=self.allocator.budget_bytes,
                    expected_bytes=demand.expected_bytes,
                )
        admitted: List[CandidateCache] = []
        for representative in result.admitted:
            admitted.extend(members_of[representative.share_token])
        return admitted

    def _expected_bytes(self, candidate, stats, cm) -> float:
        entries = self.profiler.expected_entries(
            candidate, self.config.entry_horizon_seconds
        )
        return cost_model.expected_memory_bytes(
            stats[candidate.candidate_id],
            cm,
            expected_entries=entries,
            segment_size=len(candidate.segment),
        )

    def _apply(self, selected: List[CandidateCache]) -> None:
        target = {c.candidate_id for c in selected}
        for candidate_id in list(self.wiring.wired):
            if candidate_id not in target:
                self.wiring.detach(candidate_id)
                self.states[candidate_id] = CandidateState.PROFILED
                candidate = self.candidates.get(candidate_id)
                if candidate is not None:
                    self.profiler.install_bloom(candidate)
        for candidate in selected:
            if candidate.candidate_id in self.wiring.wired:
                self.wiring.resume_lookup(candidate.candidate_id)
            else:
                self.wiring.attach(
                    candidate, buckets=self._bucket_estimate(candidate)
                )
                self.profiler.remove_bloom(candidate.candidate_id)
            self.states[candidate.candidate_id] = CandidateState.USED

    def apply_plan(self, plan) -> None:
        """Apply a coordinator-pushed :class:`~repro.parallel.adaptivity.
        CachePlan`: wire exactly the plan's candidate set.

        The cross-shard twin of :meth:`_apply`, driven by the merged
        global statistics instead of local estimates. Candidates the
        plan names that this shard does not know (its ordering diverged)
        are skipped; bucket counts come from the plan's global entry
        estimate, falling back to the local one. Idempotent — carried-
        over plans re-apply as no-ops on the wiring.
        """
        ctx = self.executor.ctx
        cm = ctx.cost_model
        buckets = dict(plan.buckets)
        target_ids = [
            cid for cid in plan.candidate_ids if cid in self.candidates
        ]
        target = set(target_ids)
        previously_used = {
            c.candidate_id for c in self.wiring.used_candidates()
        }
        ctx.metrics.reoptimizations += 1
        reopt_seq = ctx.metrics.reoptimizations
        ctx.clock.charge(cm.reoptimize_base)
        self.profiler.reactivate_blooms()
        for candidate_id in list(self.wiring.wired):
            if candidate_id not in target:
                self.wiring.detach(candidate_id)
                self.states[candidate_id] = CandidateState.PROFILED
                candidate = self.candidates.get(candidate_id)
                if candidate is not None:
                    self.profiler.install_bloom(candidate)
        for candidate_id in target_ids:
            candidate = self.candidates[candidate_id]
            if candidate_id in self.wiring.wired:
                self.wiring.resume_lookup(candidate_id)
            else:
                self.wiring.attach(
                    candidate,
                    buckets=buckets.get(
                        candidate_id, self._bucket_estimate(candidate)
                    ),
                )
                self.profiler.remove_bloom(candidate_id)
            self.states[candidate_id] = CandidateState.USED
        now_us = ctx.clock.now_us
        memory_used = self.wiring.memory_bytes()
        for candidate_id in sorted(target - previously_used):
            ctx.obs.decisions.record(
                now_us,
                decisions_log.ATTACH,
                candidate_id,
                reason=f"coordinator plan push (epoch {plan.epoch})",
                reopt_seq=reopt_seq,
                memory_used_bytes=memory_used,
                memory_budget_bytes=self.allocator.budget_bytes,
            )
        for candidate_id in sorted(previously_used - target):
            ctx.obs.decisions.record(
                now_us,
                decisions_log.DETACH,
                candidate_id,
                reason=f"coordinator plan push (epoch {plan.epoch})",
                reopt_seq=reopt_seq,
                memory_used_bytes=memory_used,
                memory_budget_bytes=self.allocator.budget_bytes,
            )
        if ctx.obs.enabled:
            ctx.obs.tracer.emit(
                "plan_push",
                now_us,
                epoch=plan.epoch,
                applied=plan.applied,
                used=sorted(target),
                added=sorted(target - previously_used),
                dropped=sorted(previously_used - target),
            )

    def _bucket_estimate(self, candidate: CandidateCache) -> int:
        """Section 3.3: bucket count from the expected entry count."""
        entries = self.profiler.expected_entries(
            candidate, self.config.entry_horizon_seconds
        )
        wanted = max(self.config.min_bucket_count, int(entries * 2))
        return min(self.config.max_bucket_count, 1 << (wanted - 1).bit_length())

    def _resume_all_suspended(self) -> None:
        for candidate_id, wired in self.wiring.wired.items():
            if not wired.lookup_attached:
                self.wiring.resume_lookup(candidate_id)

    def _currently_used(self) -> List[CandidateCache]:
        return self.wiring.used_candidates()

    # ------------------------------------------------------------------
    # runtime memory enforcement (Section 5 / Figure 13)
    # ------------------------------------------------------------------
    def drop_candidate(self, candidate_id: str, reason: str) -> bool:
        """Evict one wired cache on an external arbiter's verdict.

        The multi-query engine's global enforcement pass picks victims
        across *all* tenants; each victim is unwired through its own
        query's re-optimizer so candidate states, blooms, and the decision
        log stay consistent. Returns False when the candidate is not
        currently wired.
        """
        wired = self.wiring.wired.get(candidate_id)
        if wired is None:
            return False
        ctx = self.executor.ctx
        cm = ctx.cost_model
        stats = self.profiler.statistics_for(wired.candidate)
        ctx.obs.decisions.record(
            ctx.clock.now_us,
            decisions_log.MEMORY_EVICT,
            candidate_id,
            reason=reason,
            reopt_seq=ctx.metrics.reoptimizations,
            stats=stats,
            benefit=(
                cost_model.benefit(stats, cm) if stats is not None else None
            ),
            cost=(
                cost_model.cost(stats, cm) if stats is not None else None
            ),
            memory_used_bytes=self.wiring.memory_bytes(),
            memory_budget_bytes=self.allocator.budget_bytes,
            expected_bytes=float(wired.cache.memory_bytes),
        )
        self.wiring.detach(candidate_id)
        self.states[candidate_id] = CandidateState.PROFILED
        candidate = self.candidates.get(candidate_id)
        if candidate is not None:
            self.profiler.install_bloom(candidate)
        return True

    def enforce_memory(self) -> List[str]:
        """Drop lowest-priority caches while actual usage exceeds budget."""
        used_bytes = self.wiring.memory_bytes()
        if not self.allocator.over_budget(used_bytes):
            return []
        ctx = self.executor.ctx
        cm = ctx.cost_model
        priorities: Dict[str, float] = {}
        usage: Dict[str, int] = {}
        victim_stats: Dict[str, Optional[cost_model.CacheStatistics]] = {}
        for candidate_id, wired in self.wiring.wired.items():
            stats = self.profiler.statistics_for(wired.candidate)
            victim_stats[candidate_id] = stats
            memory = max(1, wired.cache.memory_bytes)
            usage[candidate_id] = wired.cache.memory_bytes
            if stats is None:
                priorities[candidate_id] = 0.0
            else:
                priorities[candidate_id] = (
                    cost_model.net_benefit(stats, cm) / memory
                )
        victims = self.allocator.victims(priorities, usage, used_bytes)
        if victims and ctx.obs.enabled:
            ctx.obs.tracer.emit(
                "memory_pressure",
                ctx.clock.now_us,
                used_bytes=used_bytes,
                budget_bytes=self.allocator.budget_bytes,
                victims=list(victims),
            )
        for candidate_id in victims:
            stats = victim_stats.get(candidate_id)
            ctx.obs.decisions.record(
                ctx.clock.now_us,
                decisions_log.MEMORY_EVICT,
                candidate_id,
                reason=(
                    f"memory pressure: {used_bytes} bytes in use over "
                    f"budget {self.allocator.budget_bytes}"
                ),
                reopt_seq=ctx.metrics.reoptimizations,
                stats=stats,
                benefit=(
                    cost_model.benefit(stats, cm)
                    if stats is not None else None
                ),
                cost=(
                    cost_model.cost(stats, cm)
                    if stats is not None else None
                ),
                memory_used_bytes=used_bytes,
                memory_budget_bytes=self.allocator.budget_bytes,
                expected_bytes=float(usage.get(candidate_id, 0)),
            )
            self.wiring.detach(candidate_id)
            self.states[candidate_id] = CandidateState.PROFILED
            candidate = self.candidates.get(candidate_id)
            if candidate is not None:
                self.profiler.install_bloom(candidate)
        return victims
