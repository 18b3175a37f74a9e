"""Incremental re-optimization — the paper's Section 8 future work.

The baseline Re-optimizer runs offline selection from scratch whenever any
statistic drifts past the change threshold. Section 8 sketches two
improvements, both implemented here:

1. **Incremental re-selection** (§8.2.i): add or drop caches based solely
   on the candidates whose statistics changed, instead of re-solving the
   whole selection problem. A full from-scratch selection still runs every
   ``full_reselect_every`` cycles as a safety net, because local swaps can
   drift from the global optimum under shared-cache interactions.

2. **Unimportant-statistic tracking** (§8.2.ii): a candidate whose
   significant changes repeatedly fail to alter the selection gets an
   exponentially widened personal change threshold, so its noise stops
   triggering optimizer work; one change that *does* alter the selection
   resets it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.candidates import CandidateCache
from repro.core.profiler import Profiler
from repro.core.reoptimizer import (
    Reoptimizer,
    ReoptimizerConfig,
    drifted,
    signatures,
)
from repro.mjoin.executor import MJoinExecutor


@dataclass
class ImportanceTracker:
    """Widens per-candidate change thresholds for ineffective statistics."""

    base_threshold: float
    widen_factor: float = 2.0
    max_widenings: int = 3
    _ineffective: Dict[str, int] = field(default_factory=dict)

    def threshold_for(self, candidate_id: str) -> float:
        """The candidate's personal change threshold, widened if ineffective."""
        widenings = min(
            self._ineffective.get(candidate_id, 0), self.max_widenings
        )
        return self.base_threshold * (self.widen_factor ** widenings)

    def record(self, triggering: Set[str], selection_changed: bool) -> None:
        """Update importance after a re-optimization round.

        ``triggering`` is the set of candidates whose drift exceeded their
        threshold this round.
        """
        for candidate_id in triggering:
            if selection_changed:
                self._ineffective[candidate_id] = 0
            else:
                self._ineffective[candidate_id] = (
                    self._ineffective.get(candidate_id, 0) + 1
                )

    def widenings(self, candidate_id: str) -> int:
        """How many consecutive ineffective changes the candidate has had."""
        return self._ineffective.get(candidate_id, 0)


class IncrementalReoptimizer(Reoptimizer):
    """A Re-optimizer that prefers local add/drop/swap moves."""

    def __init__(
        self,
        executor: MJoinExecutor,
        profiler: Profiler,
        config: Optional[ReoptimizerConfig] = None,
        full_reselect_every: int = 5,
    ):
        super().__init__(executor, profiler, config)
        self.full_reselect_every = full_reselect_every
        self.importance = ImportanceTracker(
            base_threshold=self.config.change_threshold
        )
        self._cycles = 0
        self.incremental_rounds = 0
        self.full_rounds = 0

    # ------------------------------------------------------------------
    def reoptimize(self, force: bool = False) -> List[CandidateCache]:
        """Local add/drop/swap moves; full re-selection every few cycles."""
        self._cycles += 1
        if force or self._cycles % self.full_reselect_every == 0:
            self.full_rounds += 1
            return super().reoptimize(force=True)

        cm = self.executor.ctx.cost_model
        stats = self._estimate()
        if not stats:
            return self._keep_plan()

        signature = signatures(stats, cm)
        # Candidates whose drift exceeds their personal threshold.
        triggering = set(
            drifted(
                signature, self._last_signature, self.importance.threshold_for
            )
        )
        if not triggering:
            return self._keep_plan()
        self._last_signature = signature
        self.executor.ctx.metrics.reoptimizations += 1
        self.executor.ctx.clock.charge(
            cm.reoptimize_base / 4
            + cm.reoptimize_candidate * len(triggering)
        )
        self.incremental_rounds += 1

        nets = {
            cid: benefit - cost for cid, (benefit, cost) in signature.items()
        }
        previous = {c.candidate_id for c in self.wiring.used_candidates()}
        target = self._local_moves(previous, triggering, nets)
        admitted = self._allocate_memory(
            [self.candidates[cid] for cid in target if cid in self.candidates],
            stats,
            cm,
        )
        added, dropped = self._apply(admitted)
        self.importance.record(triggering, bool(added or dropped))
        return admitted

    # ------------------------------------------------------------------
    def _local_moves(
        self,
        current: Set[str],
        triggering: Set[str],
        nets: Dict[str, float],
    ) -> Set[str]:
        """Drop negative used caches; add/swap positive changed ones."""
        target = set(current)
        # Drops: any used cache whose net went negative.
        for candidate_id in list(target):
            if nets.get(candidate_id, 0.0) < 0:
                target.discard(candidate_id)
        # Adds/swaps: changed candidates with positive net, best first.
        additions = sorted(
            (
                cid
                for cid in triggering
                if cid not in target and nets.get(cid, 0.0) > 0
            ),
            key=lambda cid: nets[cid],
            reverse=True,
        )
        for candidate_id in additions:
            candidate = self.candidates.get(candidate_id)
            if candidate is None:
                continue
            conflicting = [
                other
                for other in target
                if other in self.candidates
                and candidate.conflicts_with(self.candidates[other])
            ]
            conflict_net = sum(nets.get(o, 0.0) for o in conflicting)
            if nets[candidate_id] > conflict_net:
                target.difference_update(conflicting)
                target.add(candidate_id)
        return target
