"""The MJoin executor (Section 3.1 + Figure 4's Executor component).

Owns the relation states and one :class:`Pipeline` per update stream, and
processes the globally ordered update sequence one update at a time: the
join computation through the updated relation's pipeline, followed by the
window update itself.

The executor is deliberately policy-free: join orderings come from an
ordering algorithm, cache plumbing from the re-optimizer. It exposes the
plumbing hooks both need.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import PlanError
from repro.operators.base import BatchProbeMemo, ExecContext
from repro.operators.join_op import JoinOperator
from repro.operators.pipeline import Pipeline, ProfileSample
from repro.relations.predicates import JoinGraph
from repro.relations.relation import Relation
from repro.streams.events import (
    DeltaBatch,
    OutputDelta,
    Sign,
    Update,
    output_deltas,
)

# (relation, global seq) -> profile this update? The seq enables the
# deterministic cross-shard gate (ProfilerConfig.deterministic_gate).
ProfileGate = Callable[[str, int], bool]
SampleSink = Callable[[str, ProfileSample], None]


def default_orders(graph: JoinGraph) -> Dict[str, Tuple[str, ...]]:
    """A connected left-to-right default ordering for every pipeline."""
    orders = {}
    relations = list(graph.relations)
    for owner in relations:
        rest = [r for r in relations if r != owner]
        order: List[str] = []
        remaining = list(rest)
        current = [owner]
        while remaining:
            # Prefer a relation connected to what is already joined.
            chosen = next(
                (r for r in remaining if graph.predicates_between(current, r)),
                remaining[0],
            )
            order.append(chosen)
            current.append(chosen)
            remaining.remove(chosen)
        orders[owner] = tuple(order)
    return orders


class MJoinExecutor:
    """Executes an n-way stream join as n cache-augmentable pipelines."""

    def __init__(
        self,
        graph: JoinGraph,
        orders: Optional[Dict[str, Sequence[str]]] = None,
        indexed_attributes: Optional[Dict[str, Iterable[str]]] = None,
        ctx: Optional[ExecContext] = None,
        relations: Optional[Dict[str, Relation]] = None,
    ):
        self.graph = graph
        self.ctx = ctx if ctx is not None else ExecContext()
        self.relations: Dict[str, Relation] = {}
        for name, schema in graph.schemas.items():
            attrs = self._default_indexed(name)
            if indexed_attributes and name in indexed_attributes:
                attrs = tuple(indexed_attributes[name])
            if relations is not None and name in relations:
                # Multi-query mode: bind a shared window state instead of
                # owning one. Missing indexes are added (backfilled from
                # the live rows), so a query joining a warm stream probes
                # the same contents an isolated engine would have built.
                shared = relations[name]
                if tuple(shared.schema.attributes) != tuple(schema.attributes):
                    raise PlanError(
                        f"shared relation {name!r} has schema "
                        f"{tuple(shared.schema.attributes)}, query expects "
                        f"{tuple(schema.attributes)}"
                    )
                for attr in attrs:
                    if not shared.has_index(attr):
                        shared.add_index(attr)
                self.relations[name] = shared
                continue
            self.relations[name] = Relation(schema, attrs)
        self.pipelines: Dict[str, Pipeline] = {}
        resolved = dict(default_orders(graph))
        if orders:
            resolved.update({k: tuple(v) for k, v in orders.items()})
        for owner, order in resolved.items():
            self._build_pipeline(owner, order)
        # Per-update latency histograms, bound once per pipeline owner.
        self._update_histograms = {
            owner: self.ctx.obs.registry.histogram(
                "repro_pipeline_update_us", {"pipeline": owner}
            )
            for owner in (resolved if self.ctx.obs.enabled else ())
        }
        self.profile_gate: Optional[ProfileGate] = None
        self.sample_sink: Optional[SampleSink] = None
        # Optional ResilienceController (repro.faults): gates ingress and
        # runs degradation machinery. None keeps the hot path unchanged.
        self.resilience = None

    def _default_indexed(self, relation: str) -> Tuple[str, ...]:
        """Index every attribute that participates in a join predicate."""
        attrs = set()
        for pred in self.graph.predicates:
            for ref in (pred.left, pred.right):
                if ref.relation == relation:
                    attrs.add(ref.attribute)
        return tuple(sorted(attrs))

    # ------------------------------------------------------------------
    # plan management
    # ------------------------------------------------------------------
    def _build_pipeline(self, owner: str, order: Sequence[str]) -> Pipeline:
        expected = set(self.graph.relations) - {owner}
        if set(order) != expected:
            raise PlanError(
                f"∆{owner} pipeline must join exactly {sorted(expected)}, "
                f"got {list(order)}"
            )
        operators = []
        prior: List[str] = [owner]
        for target in order:
            op = JoinOperator(self.graph, prior, target)
            op.bind(self.relations[target])
            operators.append(op)
            prior.append(target)
        pipeline = Pipeline(owner, operators, obs=self.ctx.obs)
        self.pipelines[owner] = pipeline
        return pipeline

    def reorder_pipeline(self, owner: str, order: Sequence[str]) -> Pipeline:
        """Install a new join order for ``∆owner`` (drops its plumbing).

        Mirrors Section 4.5 step 5: changing an ordering removes the caches
        used in that pipeline; the re-optimizer recomputes candidates.
        """
        return self._build_pipeline(owner, order)

    def order_of(self, owner: str) -> Tuple[str, ...]:
        """The current join order of ``∆owner``'s pipeline."""
        return self.pipelines[owner].order

    def orders(self) -> Dict[str, Tuple[str, ...]]:
        """Owner -> current join order, for every pipeline."""
        return {owner: p.order for owner, p in self.pipelines.items()}

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def process(
        self, update: Update, apply_window: bool = True
    ) -> List[OutputDelta]:
        """Process one update to completion; returns the result deltas.

        ``apply_window=False`` runs the full join computation and charges
        the modeled window-maintenance cost but leaves the window mutation
        to the caller — the multi-query engine routes one update through
        every interested query's pipelines first and applies the shared
        window change exactly once afterwards. The guards (admission, the
        sampled timing span and trace event) wrap :meth:`_step`.
        """
        resilience = self.resilience
        if resilience is not None and not resilience.admit(update):
            return []
        ctx = self.ctx
        clock = ctx.clock
        obs = ctx.obs
        # Instrumented engines time one update in obs.sample_every; every
        # site below reads the decision back from obs.timing.
        timed = obs.instrumented and obs.sample_update()
        relation, sign = update.relation, update.sign
        if timed:
            prof = obs.profiler
            started_us = clock.now_us
            prof.begin("update:" + relation, started_us)
        try:
            deltas, profile = self._step(update, apply_window)
        finally:
            # The span must close even when the pipeline raises (a poison
            # update must not leave the profiler stack unbalanced).
            if timed:
                prof.end(clock.now_us)
        if timed and obs.enabled:
            now_us = clock.now_us
            self._update_histograms[relation].observe(now_us - started_us)
            obs.tracer.emit(
                "update_processed",
                now_us,
                pipeline=relation,
                sign=sign.name,
                outputs=len(deltas),
                profiled=profile,
            )
        if resilience is not None:
            resilience.after_update()
        return deltas

    def _step(
        self, update: Update, apply_window: bool = True
    ) -> Tuple[List[OutputDelta], bool]:
        """One update's join, window write, charges and metrics; returns
        the output deltas and whether the update was profiled."""
        ctx = self.ctx
        relation = update.relation
        pipeline = self.pipelines[relation]
        profile = (
            self.profile_gate is not None
            and self.profile_gate(relation, update.seq)
        )
        memo = ctx.probe_memo
        if profile and memo is not None:
            # Profiled tuples measure the true cache-free operator costs
            # (Appendix A); the batch memo must not shortcut them.
            ctx.probe_memo = None
        try:
            composites, sample = pipeline.process(
                update.row, update.sign, ctx, profile=profile
            )
        finally:
            if profile and memo is not None:
                ctx.probe_memo = memo
        if sample is not None and self.sample_sink is not None:
            ctx.metrics.profiled_tuples += 1
            self.sample_sink(relation, sample)
        self._apply_window_update(update, apply=apply_window)
        if memo is not None:
            # The window just changed: every memoized probe of this
            # relation is now stale.
            memo.invalidate(relation)
        ctx.clock.charge(ctx.cost_model.output_emit * len(composites))
        metrics = ctx.metrics
        metrics.updates_processed += 1
        metrics.outputs_emitted += len(composites)
        return output_deltas(composites, pipeline.layout, update.sign), profile

    def process_batch(self, batch: DeltaBatch) -> List[List[OutputDelta]]:
        """Process one micro-batch; returns per-update delta lists.

        Updates are processed strictly in order — a batch changes *how
        much modeled work* execution charges (probe results with the same
        constraint signature are shared until the probed window changes),
        never *what* it computes, so the returned deltas and the window
        contents are identical to per-update execution. A batch of size 1
        runs the unmodified per-update path, charge for charge. With no
        resilience controller and no instrumentation, :meth:`process`
        would only wrap :meth:`_step`, so the step is called directly.
        """
        if len(batch) == 1:
            return [self.process(batch[0])]
        prof = self.ctx.obs.profiler
        if prof.enabled:
            prof.begin("batch", self.ctx.clock.now_us)
        installed = self.ctx.probe_memo is None
        if installed:
            self.ctx.probe_memo = BatchProbeMemo()
        try:
            if self.resilience is not None or self.ctx.obs.instrumented:
                return [self.process(update) for update in batch]
            step = self._step
            return [step(update)[0] for update in batch]
        finally:
            if installed:
                self.ctx.probe_memo = None
            if prof.enabled:
                prof.end(self.ctx.clock.now_us)

    def _apply_window_update(self, update: Update, apply: bool = True) -> None:
        relation = self.relations[update.relation]
        cm = self.ctx.cost_model
        self.ctx.clock.charge(
            cm.relation_update + cm.index_update * relation.index_count
        )
        if not apply:
            return
        if update.sign is Sign.INSERT:
            relation.insert(update.row)
        else:
            relation.delete(update.row)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        plans = "; ".join(repr(p) for p in self.pipelines.values())
        return f"MJoinExecutor({plans})"
