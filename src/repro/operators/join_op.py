"""The pipeline join operator ``./ij`` (Section 3.1).

Each operator joins incoming (possibly composite) tuples with one target
relation, enforcing every predicate between the target and the relations
already present in the composite. It uses a hash index on the target side
of one such predicate when available and verifies the rest as residuals;
with no usable index it degrades to a nested-loop scan, which is the
configuration Figure 10 studies.

Composites are positional: a ``tuple`` of rows laid out as the
operator's ``prior`` relations, and a join step is ``composite +
(row,)``. What is constant between two changes of the target's index set
— which index to probe, which row of the composite the probe value comes
from, which residuals can still reject a row — is resolved once into a
:class:`ProbePlan`, not per composite (DESIGN.md, "Hot path: what is
resolved when").
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import PlanError
from repro.operators.base import BatchProbeMemo, ExecContext
from repro.relations.predicates import JoinGraph, independent_checks
from repro.relations.relation import Relation
from repro.streams.tuples import Row


class _BoundPredicate(NamedTuple):
    """A predicate with attribute positions resolved at plan-build time;
    ``prior_index`` is the prior relation's row in the composite."""

    prior_relation: str
    prior_index: int
    prior_position: int
    target_attribute: str
    target_position: int


class ProbePlan(NamedTuple):
    """How one operator finds its matches; plain data, so it pickles.

    ``charged`` is the number of predicates the cost model bills per
    examined row — every bound predicate the index does not serve — while
    ``residuals`` are the ``(target_position, prior_index,
    prior_position)`` checks that are actually evaluated: the ones the
    composite invariant (see :class:`JoinOperator`) does not already imply.
    ``slots`` are the prior ``(index, position)`` slots the match set
    depends on: the probe slot (index plans), then each residual's. An
    ``index`` is a row of the composite, a ``position`` an attribute of it.
    """

    epoch: int                      # Relation.index_epoch this was resolved at
    index_attribute: Optional[str]  # None: nested-loop scan
    probe_index: Optional[int]      # the row the index probe value is read from
    probe_position: Optional[int]
    charged: int
    residuals: Tuple[Tuple[int, int, int], ...]
    slots: Tuple[Tuple[int, int], ...]


class JoinOperator:
    """Joins composites with ``target`` using predicates to prior relations.

    **Composite invariant.** A composite that reaches an operator satisfies
    every closure predicate of the join graph among the relations it binds:
    each upstream operator enforced all predicates between its target and
    its prefix, and cache hits splice in segment composites whose key
    carries the crossing predicates. The transitive closure hands the
    operator one predicate per prior attribute of an equivalence class, all
    on the same attribute of the target; when those prior attributes belong
    to two or more relations the invariant makes their values equal, so one
    check per target attribute decides them all. Which checks that leaves
    is :func:`~repro.relations.predicates.independent_checks`, the rule
    ``CacheKey`` dedupes its components by as well.
    """

    def __init__(
        self,
        graph: JoinGraph,
        prior: Sequence[str],
        target: str,
        relation: Optional[Relation] = None,
    ):
        self.target = target
        self.prior = tuple(prior)
        predicates = graph.predicates_between(prior, target)
        self._bound: List[_BoundPredicate] = []
        for pred in predicates:
            target_ref = pred.side_for(target)
            prior_ref = pred.other_side(target)
            self._bound.append(
                _BoundPredicate(
                    prior_relation=prior_ref.relation,
                    prior_index=self.prior.index(prior_ref.relation),
                    prior_position=graph.attr_position(prior_ref),
                    target_attribute=target_ref.attribute,
                    target_position=graph.attr_position(target_ref),
                )
            )
        self.relation = relation
        self._plan: Optional[ProbePlan] = None
        # The batch-memo signature's (target_position, prior slot) pairs,
        # in the order ``sorted`` would put them. Pairs that share a target
        # position carry equal values by the composite invariant, so their
        # order cannot matter — unless two of them read attributes of one
        # prior relation (never compared upstream), where only sorting the
        # values reproduces the canonical tuple.
        self._memo_slots: Tuple[Tuple[int, int, int], ...] = tuple(sorted(
            (b.target_position, b.prior_index, b.prior_position)
            for b in self._bound
        ))
        pairs = [(b.target_position, b.prior_relation) for b in self._bound]
        self._memo_sorted = len(set(pairs)) < len(pairs)

    def bind(self, relation: Relation) -> "JoinOperator":
        """Attach the live relation state this operator joins against."""
        if relation.schema.relation != self.target:
            raise PlanError(
                f"operator targets {self.target!r} but was bound to "
                f"{relation.schema.relation!r}"
            )
        self.relation = relation
        self._plan = None
        return self

    @property
    def predicate_count(self) -> int:
        """Number of predicates this operator enforces."""
        return len(self._bound)

    def is_cross_product(self) -> bool:
        """True when no predicate links the target to the prefix."""
        return not self._bound

    def probe_plan(self) -> ProbePlan:
        """The plan for the target's current index set (resolved lazily)."""
        relation = self.relation
        if relation is None:
            raise PlanError(f"operator for {self.target!r} is unbound")
        plan = self._plan
        if plan is None or plan.epoch != relation.index_epoch:
            plan = self._plan = self._resolve_plan(relation)
        return plan

    def apply(
        self, composites: Sequence[tuple], ctx: ExecContext
    ) -> List[tuple]:
        """Join every input composite with the target relation; each
        output is the input plus its matching row, one concatenation.

        Composites of one call that agree on the plan's probe value and
        residual values share one match set, read once; each is still
        charged as if it had probed alone.

        Inside a micro-batch (``ctx.probe_memo`` set) the match set for a
        given constraint signature is computed once and reused — across
        composites, updates, and pipelines — until the target's window
        changes. The match set depends only on the target window and the
        ``(target_position, value)`` constraint pairs, so a memo hit is
        exact; reuse charges ``batch_memo_hit`` instead of the probe and
        residual-verification costs.
        """
        plan = self._plan
        if plan is None or plan.epoch != self.relation.index_epoch:
            plan = self.probe_plan()
        memo = ctx.probe_memo
        if len(composites) != 1:
            if memo is None:
                return self._apply_grouped(composites, plan, ctx)
            return self._apply_memo_grouped(composites, plan, memo, ctx)
        # One composite has nothing to share a read with, and most calls
        # carry one where updates fan out little: grouping would only add
        # its bookkeeping.
        composite = composites[0]
        cm, charge = ctx.cost_model, ctx.clock.charge
        if memo is None:
            matches = self._matches(composite, plan, cm, charge)
        else:
            matches = self._memo_matches(composite, plan, memo, cm, charge)
        charge(cm.per_match * len(matches))
        return list(map(composite.__add__, zip(matches)))

    def memo_signature(self, composite: tuple) -> tuple:
        """The ``BatchProbeMemo`` key: the sorted ``(target_position,
        value)`` constraint pairs the bound predicates impose."""
        signature = tuple([
            (position, composite[index].values[prior_position])
            for position, index, prior_position in self._memo_slots
        ])
        return tuple(sorted(signature)) if self._memo_sorted else signature

    def match_rows(self, composite: tuple, ctx: ExecContext) -> List[Row]:
        """Rows of the target joining ``composite`` (no extension).

        Used by witness counting for globally-consistent caches.
        """
        return self._matches(
            composite, self.probe_plan(), ctx.cost_model, ctx.clock.charge
        )

    # ------------------------------------------------------------------
    # matching
    # ------------------------------------------------------------------
    def _resolve_plan(self, relation: Relation) -> ProbePlan:
        bound = self._bound
        index_pred = next(
            (b for b in bound if relation.has_index(b.target_attribute)), None
        )
        checks = independent_checks([
            (b.target_position, (b.prior_relation, b.prior_position))
            for b in bound
        ])
        # The index probe decides its own check; every other distinct
        # check is evaluated once, by the first predicate that carries it.
        decided = {
            check for b, check in zip(bound, checks) if b is index_pred
        }
        residuals = []
        for b, check in zip(bound, checks):
            if check not in decided:
                decided.add(check)
                residuals.append(
                    (b.target_position, b.prior_index, b.prior_position)
                )
        slots = tuple((i, p) for _, i, p in residuals)
        if index_pred is None:
            return ProbePlan(
                relation.index_epoch, None, None, None,
                len(bound), tuple(residuals), slots,
            )
        return ProbePlan(
            relation.index_epoch,
            index_pred.target_attribute,
            index_pred.prior_index,
            index_pred.prior_position,
            len(bound) - 1,
            tuple(residuals),
            ((index_pred.prior_index, index_pred.prior_position),) + slots,
        )

    def _apply_grouped(
        self,
        composites: Sequence[tuple],
        plan: ProbePlan,
        ctx: ExecContext,
    ) -> List[tuple]:
        """:meth:`apply` outside a micro-batch: one read per signature.

        A composite's match set depends only on the target window and the
        values at ``plan.slots``, and nothing changes the window inside
        one call. So :meth:`_matches` runs once per distinct signature,
        its charges recorded, and every composite is billed those charges
        and its per-match charge, in order, as if it had probed alone.
        """
        cm = ctx.cost_model
        charge = ctx.clock.charge
        slots = plan.slots
        # A one-slot signature is the value itself, not a 1-tuple.
        index, position = slots[0] if len(slots) == 1 else (None, None)
        # signature -> (the charges one composite pays, its match set)
        groups: dict = {}
        outputs: List[tuple] = []
        for composite in composites:
            if index is None:
                signature = tuple([composite[i].values[p] for i, p in slots])
            else:
                signature = composite[index].values[position]
            group = groups.get(signature)
            if group is None:
                billed: List[float] = []
                rows = self._matches(composite, plan, cm, billed.append)
                billed.append(cm.per_match * len(rows))
                group = groups[signature] = (billed, rows)
            for amount in group[0]:
                charge(amount)
            outputs += map(composite.__add__, zip(group[1]))
        return outputs

    def _apply_memo_grouped(
        self,
        composites: Sequence[tuple],
        plan: ProbePlan,
        memo: BatchProbeMemo,
        ctx: ExecContext,
    ) -> List[tuple]:
        """:meth:`apply` inside a micro-batch: one memo read per signature.

        Equal ``plan.slots`` values give equal memo signatures by the
        composite invariant, and the memo changes only between pipeline
        runs, so every composite after a group's first would find the
        first's entry: it is charged ``batch_memo_hit`` and counted in
        ``memo.hits`` without a read.
        """
        cm = ctx.cost_model
        charge = ctx.clock.charge
        slots = plan.slots
        index, position = slots[0] if len(slots) == 1 else (None, None)
        groups: dict = {}   # plan-slot signature -> match set
        outputs: List[tuple] = []
        for composite in composites:
            if index is None:
                key = tuple([composite[i].values[p] for i, p in slots])
            else:
                key = composite[index].values[position]
            matches = groups.get(key)
            if matches is None:
                matches = groups[key] = self._memo_matches(
                    composite, plan, memo, cm, charge
                )
            else:
                memo.hits += 1
                charge(cm.batch_memo_hit)
            charge(cm.per_match * len(matches))
            outputs += map(composite.__add__, zip(matches))
        return outputs

    def _memo_matches(
        self, composite: tuple, plan: ProbePlan,
        memo: BatchProbeMemo, cm, charge,
    ) -> List[Row]:
        """The memoized match set (charged ``batch_memo_hit``), or
        :meth:`_matches`'s, which is then memoized."""
        signature = self.memo_signature(composite)
        matches = memo.get(self.target, signature)
        if matches is not None:
            charge(cm.batch_memo_hit)
            return matches
        matches = self._matches(composite, plan, cm, charge)
        memo.put(self.target, signature, matches)
        return matches

    def _matches(
        self, composite: tuple, plan: ProbePlan, cm, charge
    ) -> List[Row]:
        """Index probe (or nested-loop scan), then the residual filters;
        ``charge`` is called with what they cost."""
        if plan.index_attribute is None:
            rows = list(self.relation.rows())
            charge(cm.scan_tuple * len(rows))
        else:
            charge(cm.index_probe)
            rows = self.relation.matching(
                plan.index_attribute,
                composite[plan.probe_index].values[plan.probe_position],
            )
        if plan.charged:
            charge(cm.predicate_eval * len(rows) * plan.charged)
            for position, index, prior_position in plan.residuals:
                wanted = composite[index].values[prior_position]
                rows = [row for row in rows if row.values[position] == wanted]
        return rows

    def __repr__(self) -> str:
        preds = ", ".join(
            f"{b.prior_relation}[{b.prior_position}]="
            f"{self.target}.{b.target_attribute}"
            for b in self._bound
        )
        return f"Join({self.target}; {preds or 'cross'})"

