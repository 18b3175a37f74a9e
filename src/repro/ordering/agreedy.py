"""Adaptive greedy join ordering — the A-Greedy baseline dependency [5].

A-Caching is modular (Section 4): join orderings come from an adaptive
ordering algorithm and cache selection runs on top of whatever ordering is
current. The paper uses A-Greedy from Babu et al. (SIGMOD 2004), designed
for pipelined *filters*; this module is its natural adaptation to MJoin
pipelines, as used by the paper's implementation:

* the greedy invariant becomes: at every pipeline position, the next
  relation is the connected one with the smallest expected match rate
  (fan-out) given the already-joined prefix;
* match rates are estimated online by probing each relation's index with a
  small sample of live values from the joined prefix (charged to the cost
  clock as profiling overhead);
* periodically the greedy order is recomputed from fresh estimates and the
  pipeline is reordered when the invariant is violated, with hysteresis so
  estimation noise does not thrash plans.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.mjoin.executor import MJoinExecutor
from repro.relations.predicates import EquiPredicate, JoinGraph
from repro.relations.relation import Relation


@dataclass
class OrderingConfig:
    """A-Greedy tunables (cadence, sampling, hysteresis, cooldown)."""
    interval_updates: int = 1000   # recompute cadence
    sample_size: int = 24          # prefix values sampled per estimate
    hysteresis: float = 0.18       # required relative cost improvement
    probe_charge: float = 0.5      # µs charged per sampled index count
    cooldown_intervals: int = 3    # min intervals between reorders of a pipeline
    smoothing: float = 0.3         # EWMA weight of a fresh sample batch
    plumbing_penalty: float = 2.0  # extra hysteresis when caches are wired


class MatchRateEstimator:
    """Estimates the expected fan-out of joining ``target`` to a prefix."""

    def __init__(
        self,
        graph: JoinGraph,
        relations: Dict[str, Relation],
        config: OrderingConfig,
        charge: Optional[Callable[[float], None]] = None,
    ):
        self.graph = graph
        self.relations = relations
        self.config = config
        self._charge = charge if charge is not None else (lambda cost: None)
        self._memo: Dict[Tuple[frozenset, str], float] = {}
        self._smoothed: Dict[Tuple[frozenset, str], float] = {}
        # (predicate, target) -> (rows sampled, sampled mean), per batch.
        self._sampled: Dict[Tuple[EquiPredicate, str], Tuple[int, float]] = {}

    def begin_batch(self) -> None:
        """Start a fresh estimation batch.

        Within one batch, repeated queries for the same (prefix set,
        target) return the same estimate, so comparing the current order
        against the proposed one is noise-free. Across batches, estimates
        are EWMA-smoothed — raw per-batch sampling jitter compounds
        multiplicatively along a pipeline and makes A-Greedy thrash
        between equivalent plans, and every reorder drops that pipeline's
        caches (Section 4.5, step 5).

        Each ``(predicate, target)`` is sampled once per batch too: the
        sampled mean depends only on the first ``sample_size`` rows of the
        predicate's source window, and no check mutates a window. A reuse
        still charges ``probe_charge`` once per sampled row, so the clock
        sees the same charges at the same points.
        """
        self._memo.clear()
        self._sampled.clear()

    def match_rate(self, prefix: Sequence[str], target: str) -> float:
        """Expected matches in ``target`` per prefix tuple (memoized per batch)."""
        token = (frozenset(prefix), target)
        cached = self._memo.get(token)
        if cached is None:
            fresh = self._sampled_match_rate(prefix, target)
            previous = self._smoothed.get(token)
            alpha = self.config.smoothing
            if previous is None:
                cached = fresh
            else:
                cached = alpha * fresh + (1.0 - alpha) * previous
            self._smoothed[token] = cached
            self._memo[token] = cached
        return cached

    def _sampled_match_rate(self, prefix: Sequence[str], target: str) -> float:
        """Expected matches in ``target`` per prefix tuple.

        Sampled: for each predicate joining the prefix to the target, take
        up to ``sample_size`` live values from the prefix side and average
        the target's index match counts; multiple predicates conjoin, so
        the smallest per-predicate estimate bounds the conjunction.
        """
        predicates = self.graph.predicates_between(prefix, target)
        if not predicates:
            # Cross product: every target row matches.
            return float(len(self.relations[target]))
        estimates: List[float] = []
        for predicate in predicates:
            sampled = self._sampled.get((predicate, target))
            if sampled is None:
                sampled = self._sample_predicate(predicate, target)
                self._sampled[(predicate, target)] = sampled
            else:
                for _ in range(sampled[0]):
                    self._charge(self.config.probe_charge)
            estimates.append(sampled[1])
        return min(estimates)

    def _sample_predicate(
        self, predicate: EquiPredicate, target: str
    ) -> Tuple[int, float]:
        """(rows sampled, mean target matches per sampled source row)."""
        target_ref = predicate.side_for(target)
        source_ref = predicate.other_side(target)
        source = self.relations[source_ref.relation]
        target_relation = self.relations[target_ref.relation]
        sample = list(itertools.islice(source.rows(), self.config.sample_size))
        if not sample:
            # No prefix data yet: fall back to |R| / distinct values.
            return 0, self._structural_estimate(target, target_ref)
        position = self.graph.attr_position(source_ref)
        total = 0
        for row in sample:
            self._charge(self.config.probe_charge)
            total += target_relation.match_count(
                target_ref.attribute, row.values[position]
            )
        return len(sample), total / len(sample)

    def _structural_estimate(self, target: str, target_ref) -> float:
        relation = self.relations[target]
        if len(relation) == 0:
            return 0.0
        if relation.has_index(target_ref.attribute):
            distinct = relation.index(target_ref.attribute).distinct_values()
            return len(relation) / max(1, distinct)
        return float(len(relation))


def greedy_order(
    owner: str,
    graph: JoinGraph,
    estimator: MatchRateEstimator,
) -> Tuple[str, ...]:
    """Greedy MJoin ordering: repeatedly append the connected relation
    with the smallest estimated match rate."""
    remaining = [r for r in graph.relations if r != owner]
    prefix: List[str] = [owner]
    order: List[str] = []
    while remaining:
        connected = [
            r for r in remaining if graph.predicates_between(prefix, r)
        ] or remaining
        best = min(
            connected, key=lambda r: (estimator.match_rate(prefix, r), r)
        )
        order.append(best)
        prefix.append(best)
        remaining.remove(best)
    return tuple(order)


def order_cost(
    owner: str,
    order: Sequence[str],
    graph: JoinGraph,
    estimator: MatchRateEstimator,
    probe_cost: float = 4.0,
    per_match: float = 1.5,
) -> float:
    """Expected per-update cost of one pipeline ordering.

    Intermediate cardinalities are products of match rates; each operator
    costs one probe plus its emitted matches per input tuple.
    """
    prefix: List[str] = [owner]
    entering = 1.0
    total = 0.0
    for target in order:
        rate = estimator.match_rate(prefix, target)
        total += entering * (probe_cost + per_match * rate)
        entering *= rate
        prefix.append(target)
    return total


class AGreedyOrderer:
    """Keeps every pipeline greedily ordered as statistics drift."""

    def __init__(
        self,
        executor: MJoinExecutor,
        config: Optional[OrderingConfig] = None,
    ):
        self.executor = executor
        self.config = config if config is not None else OrderingConfig()
        self.estimator = MatchRateEstimator(
            executor.graph,
            executor.relations,
            self.config,
            charge=executor.ctx.clock.charge,
        )
        self._last_check_updates = 0
        self._last_reorder_at: Dict[str, int] = {}
        self._pending: Dict[str, Tuple[str, ...]] = {}
        self.reorders = 0

    def next_due(self) -> int:
        """The update count at which :meth:`maybe_reorder` next checks."""
        return self._last_check_updates + self.config.interval_updates

    def maybe_reorder(self) -> List[str]:
        """Recompute greedy orders if the cadence elapsed; returns the
        owners whose pipelines changed (the re-optimizer must react)."""
        updates = self.executor.ctx.metrics.updates_processed
        if updates - self._last_check_updates < self.config.interval_updates:
            return []
        self._last_check_updates = updates
        self.estimator.begin_batch()
        cooldown = (
            self.config.cooldown_intervals * self.config.interval_updates
        )
        changed: List[str] = []
        for owner in self.executor.graph.relations:
            # Cooldown: a reorder drops that pipeline's caches and resets
            # its profiling (Section 4.5 step 5), so back-to-back reorders
            # of one pipeline cost more than a briefly suboptimal order.
            if updates - self._last_reorder_at.get(owner, -cooldown) < cooldown:
                continue
            current = self.executor.order_of(owner)
            proposed = greedy_order(owner, self.executor.graph, self.estimator)
            if proposed == current:
                continue
            current_cost = order_cost(
                owner, current, self.executor.graph, self.estimator
            )
            proposed_cost = order_cost(
                owner, proposed, self.executor.graph, self.estimator
            )
            required = self.config.hysteresis
            pipeline = self.executor.pipelines[owner]
            if pipeline.active_lookups() or pipeline._updates:
                # Plan-switching costs (Section 1): reordering this
                # pipeline drops wired caches and restarts their
                # profiling, so demand a larger estimated win.
                required = min(0.9, required * self.config.plumbing_penalty)
            if proposed_cost < current_cost * (1.0 - required):
                # Confirmation: the same proposal must win two consecutive
                # checks. Independent sampling noise rarely repeats, while
                # a genuine workload shift persists, so this converts a
                # per-check false-reorder probability p into p².
                if self._pending.get(owner) == proposed:
                    self.executor.reorder_pipeline(owner, proposed)
                    self.reorders += 1
                    self._last_reorder_at[owner] = updates
                    self._pending.pop(owner, None)
                    changed.append(owner)
                else:
                    self._pending[owner] = proposed
            else:
                self._pending.pop(owner, None)
        return changed
