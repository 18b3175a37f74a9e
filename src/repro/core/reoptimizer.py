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

The decision itself — drift gate, selection problem, §5 admission and
bucket sizing — is the module-level functions below; together with
:func:`repro.core.profiler.estimate_candidates` they are shared by
:class:`Reoptimizer`, the §8 :class:`~repro.core.incremental.
IncrementalReoptimizer` and the shard coordinator
(:class:`repro.parallel.adaptivity.EpochCoordinator`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.core import cost_model
from repro.obs import decisions as decisions_log
from repro.core.candidates import (
    CandidateCache,
    enumerate_candidates,
    shared_groups,
)
from repro.core.memory import CacheDemand, MemoryAllocator
from repro.core.profiler import Profiler, estimate_candidates
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


# ---------------------------------------------------------------------------
# the §4.5/§5 decision
# ---------------------------------------------------------------------------
#: candidate_id -> (benefit, cost), what the drift gate compares.
Signature = Dict[str, Tuple[float, float]]


def candidates_under(
    graph, orders, config: ReoptimizerConfig
) -> Dict[str, CandidateCache]:
    """Step 1: the candidate caches of pipelines ordered as ``orders``."""
    return {
        c.candidate_id: c
        for c in enumerate_candidates(
            graph, orders, global_quota=config.global_quota
        )
    }


def estimate_fields(
    stats: Optional[cost_model.CacheStatistics], cm
) -> Dict[str, object]:
    """A decision record's ``stats``/``benefit``/``cost`` fields."""
    if stats is None:
        return {"stats": None, "benefit": None, "cost": None}
    return {
        "stats": stats,
        "benefit": cost_model.benefit(stats, cm),
        "cost": cost_model.cost(stats, cm),
    }


def signatures(
    stats: Mapping[str, cost_model.CacheStatistics], cm
) -> Signature:
    """Each estimated candidate's (benefit, cost)."""
    return {
        cid: (cost_model.benefit(s, cm), cost_model.cost(s, cm))
        for cid, s in stats.items()
    }


def drifted(
    signature: Signature,
    last: Signature,
    threshold: Union[float, Callable[[str], float]],
) -> List[str]:
    """Improvement (c): the candidates whose benefit or cost moved by
    more than ``threshold`` (a float, or a per-candidate callable)
    relative to ``last``; a candidate with no history in ``last`` counts
    as drifted."""
    threshold_for = (
        threshold if callable(threshold) else (lambda _cid: threshold)
    )
    moved = []
    for candidate_id, (new_benefit, new_cost) in signature.items():
        old = last.get(candidate_id)
        if old is None:
            moved.append(candidate_id)
            continue
        limit = threshold_for(candidate_id)
        for new, previous in ((new_benefit, old[0]), (new_cost, old[1])):
            scale = max(abs(previous), 1e-9)
            if abs(new - previous) / scale > limit:
                moved.append(candidate_id)
                break
    return moved


def build_problem(
    candidates: Mapping[str, CandidateCache],
    stats: Mapping[str, cost_model.CacheStatistics],
    profiles: Mapping,
    cm,
) -> SelectionProblem:
    """The §4.4 selection problem over the estimated candidates, with
    every pipeline operator's ``d·c`` from ``profiles``."""
    live = [candidates[cid] for cid in stats]
    return SelectionProblem(
        candidates=live,
        benefit={cid: cost_model.benefit(stats[cid], cm) for cid in stats},
        proc={cid: cost_model.proc(stats[cid], cm) for cid in stats},
        # All members of a group share one maintenance stream; any
        # member's estimate identifies it.
        group_cost={
            token: cost_model.cost(stats[members[0].candidate_id], cm)
            for token, members in shared_groups(live).items()
        },
        operator_cost={
            (owner, slot): profile.d(slot) * profile.c(slot)
            for owner, profile in profiles.items()
            for slot in range(profile.slots)
        },
    )


def admit(
    selected: List[CandidateCache],
    stats: Mapping[str, cost_model.CacheStatistics],
    cm,
    allocator: MemoryAllocator,
    entries_of: Callable[[CandidateCache], float],
) -> Tuple[
    List[CandidateCache], List[Tuple[CandidateCache, CacheDemand]], int
]:
    """Section 5: admit the selection greedily by net benefit per byte.

    One demand per share group (the members' summed benefit less one
    maintenance cost, one store's expected bytes at ``entries_of`` its
    representative). Returns the admitted candidates, every member of a
    rejected group with that group's demand, and the pages committed.
    """
    if allocator.budget_bytes is None:
        return selected, [], 0
    demands = []
    members_of: Dict[Tuple, List[CandidateCache]] = {}
    for token, members in shared_groups(selected).items():
        representative = members[0]
        representative_stats = stats[representative.candidate_id]
        net = sum(
            cost_model.benefit(stats[c.candidate_id], cm) for c in members
        ) - cost_model.cost(representative_stats, cm)
        expected = cost_model.expected_memory_bytes(
            representative_stats,
            cm,
            expected_entries=entries_of(representative),
            segment_size=len(representative.segment),
        )
        demands.append(
            CacheDemand(
                candidate=representative,
                net_benefit=net,
                expected_bytes=expected,
            )
        )
        members_of[token] = members
    result = allocator.admit(demands)
    rejected = [
        (member, demand)
        for verdict, demand in result.audit
        if verdict == "reject"
        for member in members_of[demand.candidate.share_token]
    ]
    admitted = [
        member
        for representative in result.admitted
        for member in members_of[representative.share_token]
    ]
    return admitted, rejected, result.pages_used


def bucket_count(entries: float, config: ReoptimizerConfig) -> int:
    """Section 3.3: the power-of-two bucket count for a store expected
    to hold ``entries`` entries, within the configured bounds."""
    wanted = max(config.min_bucket_count, int(entries * 2))
    return min(config.max_bucket_count, 1 << (wanted - 1).bit_length())


def record_diff(
    log,
    now_us: float,
    added: List[str],
    dropped: List[str],
    reasons: Tuple[str, str],
    reopt_seq: int,
    stats: Mapping[str, cost_model.CacheStatistics],
    signature: Signature,
    **fields,
) -> None:
    """Log an ATTACH per added and a DETACH per dropped candidate, with
    ``reasons`` (attach, detach) and the candidate's estimates where
    ``stats``/``signature`` have them."""
    for action, reason, candidate_ids in (
        (decisions_log.ATTACH, reasons[0], added),
        (decisions_log.DETACH, reasons[1], dropped),
    ):
        for candidate_id in candidate_ids:
            benefit, cost = signature.get(candidate_id, (None, None))
            log.record(
                now_us,
                action,
                candidate_id,
                reason=reason,
                reopt_seq=reopt_seq,
                stats=stats.get(candidate_id),
                benefit=benefit,
                cost=cost,
                **fields,
            )


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
        self.candidates = candidates_under(
            self.executor.graph, self.executor.orders(), self.config
        )
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
        self.candidates = candidates_under(
            self.executor.graph, self.executor.orders(), self.config
        )
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
        if (
            candidate_id in self.candidates
            and self.states.get(candidate_id) is CandidateState.USED
        ):
            self._profile(candidate_id)

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
                self._profile(candidate_id)
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
                    **estimate_fields(stats, ctx.cost_model),
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
        stats = self._estimate()
        if not stats:
            return self._keep_plan()
        signature = signatures(stats, cm)
        if not force and not self._changed_significantly(signature):
            if obs.enabled:
                obs.tracer.emit(
                    "reoptimize",
                    ctx.clock.now_us,
                    applied=False,
                    reason="below change threshold",
                    candidates_estimated=len(stats),
                    used=sorted(
                        c.candidate_id
                        for c in self.wiring.used_candidates()
                    ),
                )
            return self._keep_plan()
        self._last_signature = signature
        metrics.reoptimizations += 1
        reopt_seq = metrics.reoptimizations
        ctx.clock.charge(
            cm.reoptimize_base + cm.reoptimize_candidate * len(stats)
        )
        selected = select(
            build_problem(self.candidates, stats, self.profiler.profiles, cm),
            method=self.config.selection_method,
            exhaustive_limit=self.config.exhaustive_limit,
        )
        admitted = self._allocate_memory(selected, stats, cm, reopt_seq)
        added, dropped = self._apply(admitted)
        self._record_selection(
            stats, signature, admitted, added, dropped, reopt_seq
        )
        return admitted

    def _estimate(self) -> Dict[str, cost_model.CacheStatistics]:
        """Fold used caches' observed miss rates in, then estimate every
        candidate that has the data."""
        for candidate_id, wired in self.wiring.wired.items():
            self.profiler.harvest_used_cache(candidate_id, wired.cache)
        return estimate_candidates(
            self.candidates, self.profiler.profiles, self.profiler.miss_prob
        )

    def _record_selection(
        self,
        stats: Dict[str, cost_model.CacheStatistics],
        signature: Signature,
        admitted: List[CandidateCache],
        added: List[str],
        dropped: List[str],
        reopt_seq: int,
    ) -> None:
        """Log one re-optimization's add/drop decisions and trace event."""
        ctx = self.executor.ctx
        now_us = ctx.clock.now_us
        memory_used = self.wiring.memory_bytes()
        budget = self.allocator.budget_bytes
        record_diff(
            ctx.obs.decisions,
            now_us,
            added,
            dropped,
            ("selected by re-optimization", "deselected by re-optimization"),
            reopt_seq,
            stats,
            signature,
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
                used=sorted(c.candidate_id for c in admitted),
                added=added,
                dropped=dropped,
                memory_used_bytes=memory_used,
                memory_budget_bytes=budget,
            )

    def _changed_significantly(self, signature: Signature) -> bool:
        """Improvement (c): did any benefit/cost drift ≥ p since last time?
        Candidates the continuous monitor dropped (unused) do not count."""
        if not self._last_signature:
            return True
        return any(
            self.states.get(candidate_id) is not CandidateState.UNUSED
            for candidate_id in drifted(
                signature, self._last_signature, self.config.change_threshold
            )
        )

    def _allocate_memory(
        self,
        selected: List[CandidateCache],
        stats: Dict[str, cost_model.CacheStatistics],
        cm,
        reopt_seq: int = 0,
    ) -> List[CandidateCache]:
        """Section 5 admission (:func:`admit`), logging each rejection."""
        admitted, rejected, pages_used = admit(
            selected, stats, cm, self.allocator, self.profiler.expected_entries
        )
        ctx = self.executor.ctx
        for member, demand in rejected:
            ctx.obs.decisions.record(
                ctx.clock.now_us,
                decisions_log.MEMORY_REJECT,
                member.candidate_id,
                reason=(
                    "selected but denied pages "
                    f"({pages_used} pages already committed)"
                ),
                reopt_seq=reopt_seq,
                **estimate_fields(stats.get(member.candidate_id), cm),
                memory_used_bytes=self.wiring.memory_bytes(),
                memory_budget_bytes=self.allocator.budget_bytes,
                expected_bytes=demand.expected_bytes,
            )
        return admitted

    def _apply(
        self,
        selected: List[CandidateCache],
        buckets: Optional[Mapping[str, int]] = None,
    ) -> Tuple[List[str], List[str]]:
        """Wire exactly ``selected``; returns the candidate ids added and
        dropped, sorted. A newly attached store takes its bucket count
        from ``buckets`` where that names it, else from the local
        estimate."""
        sizes = buckets or {}
        target = {c.candidate_id for c in selected}
        previously_used = {
            c.candidate_id for c in self.wiring.used_candidates()
        }
        for candidate_id in list(self.wiring.wired):
            if candidate_id not in target:
                self._unwire(candidate_id)
        for candidate in selected:
            candidate_id = candidate.candidate_id
            if candidate_id in self.wiring.wired:
                self.wiring.resume_lookup(candidate_id)
            else:
                self.wiring.attach(
                    candidate,
                    buckets=sizes.get(
                        candidate_id, self._bucket_estimate(candidate)
                    ),
                )
                self.profiler.remove_bloom(candidate_id)
            self.states[candidate_id] = CandidateState.USED
        return (
            sorted(target - previously_used),
            sorted(previously_used - target),
        )

    def _unwire(self, candidate_id: str) -> None:
        """Detach a wired cache and return its candidate to profiling."""
        self.wiring.detach(candidate_id)
        self._profile(candidate_id)

    def _profile(self, candidate_id: str) -> None:
        """Mark a candidate profiled and install its Bloom lookup."""
        self.states[candidate_id] = CandidateState.PROFILED
        candidate = self.candidates.get(candidate_id)
        if candidate is not None:
            self.profiler.install_bloom(candidate)

    def apply_plan(self, plan) -> None:
        """Apply a coordinator-pushed :class:`~repro.parallel.adaptivity.
        CachePlan`: :meth:`_apply` the plan's candidate set, sized by the
        plan's per-shard bucket counts.

        Candidates the plan names that this shard does not know (its
        ordering diverged) are skipped. Idempotent — carried-over plans
        re-apply as no-ops on the wiring.
        """
        ctx = self.executor.ctx
        target = [
            self.candidates[cid]
            for cid in plan.candidate_ids
            if cid in self.candidates
        ]
        ctx.metrics.reoptimizations += 1
        reopt_seq = ctx.metrics.reoptimizations
        ctx.clock.charge(ctx.cost_model.reoptimize_base)
        self.profiler.reactivate_blooms()
        added, dropped = self._apply(target, dict(plan.buckets))
        now_us = ctx.clock.now_us
        reason = f"coordinator plan push (epoch {plan.epoch})"
        record_diff(
            ctx.obs.decisions,
            now_us,
            added,
            dropped,
            (reason, reason),
            reopt_seq,
            {},
            {},
            memory_used_bytes=self.wiring.memory_bytes(),
            memory_budget_bytes=self.allocator.budget_bytes,
        )
        if ctx.obs.enabled:
            ctx.obs.tracer.emit(
                "plan_push",
                now_us,
                epoch=plan.epoch,
                applied=plan.applied,
                used=sorted(c.candidate_id for c in target),
                added=added,
                dropped=dropped,
            )

    def _bucket_estimate(self, candidate: CandidateCache) -> int:
        """Section 3.3: bucket count from the expected entry count."""
        return bucket_count(
            self.profiler.expected_entries(candidate), self.config
        )

    def _keep_plan(self) -> List[CandidateCache]:
        """No new selection: resume suspended lookups, keep the wiring."""
        for candidate_id, wired in self.wiring.wired.items():
            if not wired.lookup_attached:
                self.wiring.resume_lookup(candidate_id)
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
            **estimate_fields(stats, cm),
            memory_used_bytes=self.wiring.memory_bytes(),
            memory_budget_bytes=self.allocator.budget_bytes,
            expected_bytes=float(wired.cache.memory_bytes),
        )
        self._unwire(candidate_id)
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
                **estimate_fields(stats, cm),
                memory_used_bytes=used_bytes,
                memory_budget_bytes=self.allocator.budget_bytes,
                expected_bytes=float(usage.get(candidate_id, 0)),
            )
            self._unwire(candidate_id)
        return victims
