"""XJoin executor: a tree of two-way joins with materialized subresults.

The comparison baseline ``X`` of Section 7.3. Each non-root inner node
maintains its join subresult incrementally, hash-indexed on the attributes
its parent joins through; an update climbs from its leaf to the root,
joining the running delta against the sibling subtree's *current*
materialization at every level. Unlike caches, subresults are complete:
a probe that finds nothing proves nothing joins (the paper's note on why
``X`` can edge out ``P``/``G`` even with identical state).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import PlanError
from repro.operators.base import ExecContext
from repro.relations.predicates import EquiPredicate, JoinGraph
from repro.relations.relation import Relation
from repro.streams.events import OutputDelta, Sign, Update
from repro.streams.tuples import CompositeTuple
from repro.xjoin.tree import Inner, JoinTree, Leaf, inner_nodes, leaves

REFERENCE_BYTES = 8


class SubresultStore:
    """The materialized contents of one inner node."""

    def __init__(self, relations: Iterable[str], indexed_slots):
        self.order = tuple(sorted(relations))
        self._composites: Dict[tuple, CompositeTuple] = {}
        # indexed_slots: iterable of (relation, attr position)
        self._indexes: Dict[Tuple[str, int], Dict[Any, Dict[tuple, CompositeTuple]]] = {
            slot: defaultdict(dict) for slot in indexed_slots
        }

    def add(self, composite: CompositeTuple) -> None:
        """Materialize one composite (and index it)."""
        identity = composite.identity(self.order)
        self._composites[identity] = composite
        for (relation, position), index in self._indexes.items():
            index[composite.value(relation, position)][identity] = composite

    def remove(self, composite: CompositeTuple) -> None:
        """Unmaterialize one composite by identity."""
        identity = composite.identity(self.order)
        if self._composites.pop(identity, None) is None:
            return
        for (relation, position), index in self._indexes.items():
            value = composite.value(relation, position)
            bucket = index.get(value)
            if bucket is not None:
                bucket.pop(identity, None)
                if not bucket:
                    del index[value]

    def lookup(
        self, relation: str, position: int, value: Any
    ) -> Optional[List[CompositeTuple]]:
        """Index lookup; None when (relation, position) is not indexed."""
        index = self._indexes.get((relation, position))
        if index is None:
            return None
        bucket = index.get(value)
        return list(bucket.values()) if bucket else []

    def scan(self) -> List[CompositeTuple]:
        """All materialized composites (the unindexed fallback)."""
        return list(self._composites.values())

    def __len__(self) -> int:
        return len(self._composites)

    @property
    def memory_bytes(self) -> int:
        """Reference-based accounting, matching the cache convention."""
        return len(self._composites) * REFERENCE_BYTES * len(self.order)


class XJoinExecutor:
    """Executes the stream join as one binary tree with subresults."""

    def __init__(
        self,
        graph: JoinGraph,
        tree: JoinTree,
        indexed_attributes: Optional[Dict[str, Iterable[str]]] = None,
        ctx: Optional[ExecContext] = None,
    ):
        if {leaf.relation for leaf in leaves(tree)} != set(graph.relations):
            raise PlanError("join tree must cover exactly the query relations")
        self.graph = graph
        self.tree = tree
        self.ctx = ctx if ctx is not None else ExecContext()
        self.relations: Dict[str, Relation] = {}
        for name, schema in graph.schemas.items():
            attrs = self._default_indexed(name)
            if indexed_attributes and name in indexed_attributes:
                attrs = tuple(indexed_attributes[name])
            self.relations[name] = Relation(schema, attrs)
        self.root = tree
        # parent/sibling maps keyed by subtree (frozen dataclasses).
        self._parent: Dict[JoinTree, Inner] = {}
        self._sibling: Dict[JoinTree, JoinTree] = {}
        for node in inner_nodes(tree):
            for child, other in ((node.left, node.right), (node.right, node.left)):
                self._parent[child] = node
                self._sibling[child] = other
        # Materialize every non-root inner node, indexed on the attributes
        # its parent joins through.
        self.stores: Dict[Inner, SubresultStore] = {}
        for node in inner_nodes(tree):
            if node is tree or node == tree:
                continue
            sibling = self._sibling[node]
            slots = set()
            for pred in graph.crossing_predicates(
                node.relations, sibling.relations
            ):
                ref = (
                    pred.left
                    if pred.left.relation in node.relations
                    else pred.right
                )
                slots.add((ref.relation, graph.attr_position(ref)))
            self.stores[node] = SubresultStore(node.relations, slots)
        self.peak_memory_bytes = 0
        # Optional ResilienceController (repro.faults): same ingress gate
        # as the MJoin executor (no auditor — subresults are not caches).
        self.resilience = None

    def _default_indexed(self, relation: str) -> Tuple[str, ...]:
        attrs = set()
        for pred in self.graph.predicates:
            for ref in (pred.left, pred.right):
                if ref.relation == relation:
                    attrs.add(ref.attribute)
        return tuple(sorted(attrs))

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def process(self, update: Update) -> List[OutputDelta]:
        """Propagate one update from its leaf to the root; returns deltas."""
        if self.resilience is not None and not self.resilience.admit(update):
            return []
        clock, cm = self.ctx.clock, self.ctx.cost_model
        obs = self.ctx.obs
        prof = obs.profiler
        started_us = clock.now_us if obs.enabled else 0.0
        if prof.enabled:
            prof.begin("update:" + update.relation, clock.now_us)
        try:
            leaf: JoinTree = Leaf(update.relation)
            delta: List[CompositeTuple] = [
                CompositeTuple.of(update.relation, update.row)
            ]
            child = leaf
            node = self._parent.get(leaf)
            while node is not None and delta:
                sibling = self._sibling[child]
                joined: List[CompositeTuple] = []
                predicates = self.graph.crossing_predicates(
                    child.relations, sibling.relations
                )
                for composite in delta:
                    for match in self._matches(composite, sibling, predicates):
                        joined.append(composite.merge(match))
                delta = joined
                store = self.stores.get(node)
                if store is not None and delta:
                    clock.charge(
                        (cm.relation_update + cm.index_update) * len(delta)
                    )
                    if update.sign is Sign.INSERT:
                        for composite in delta:
                            store.add(composite)
                    else:
                        for composite in delta:
                            store.remove(composite)
                child = node
                node = self._parent.get(node)
            self._apply_window_update(update)
            clock.charge(cm.output_emit * len(delta))
            self.ctx.metrics.updates_processed += 1
            self.ctx.metrics.outputs_emitted += len(delta)
            current = self.memory_in_use()
            if current > self.peak_memory_bytes:
                self.peak_memory_bytes = current
        finally:
            # The span must close even when propagation raises, or the
            # profiler stack stays unbalanced for the rest of the run.
            if prof.enabled:
                prof.end(clock.now_us)
        if obs.enabled:
            now_us = clock.now_us
            obs.registry.histogram(
                "repro_xjoin_update_us", {"leaf": update.relation}
            ).observe(now_us - started_us)
            obs.registry.gauge("repro_xjoin_memory_bytes").set(current)
            obs.tracer.emit(
                "update_processed",
                now_us,
                leaf=update.relation,
                sign=update.sign.name,
                outputs=len(delta),
            )
        if self.resilience is not None:
            self.resilience.after_update()
        sign = update.sign
        return [OutputDelta(c.rows, c.layout, sign) for c in delta]

    def process_batch(self, batch) -> List[List[OutputDelta]]:
        """Process one micro-batch; returns per-update delta lists.

        XJoin keeps no probe memo (its subresult stores already amortize
        recomputation), so this is a plain in-order loop — provided for
        interface parity with the MJoin/A-Caching engines so batched
        drivers can run any engine kind.
        """
        return [self.process(update) for update in batch]

    def _matches(
        self,
        composite: CompositeTuple,
        sibling: JoinTree,
        predicates: List[EquiPredicate],
    ) -> List[CompositeTuple]:
        clock, cm = self.ctx.clock, self.ctx.cost_model
        if not predicates:
            raise PlanError("cross-product tree node; trees must be connected")
        bound = []
        for pred in predicates:
            if pred.left.relation in sibling.relations:
                sib_ref, probe_ref = pred.left, pred.right
            else:
                sib_ref, probe_ref = pred.right, pred.left
            bound.append(
                (
                    sib_ref.relation,
                    self.graph.attr_position(sib_ref),
                    sib_ref.attribute,
                    probe_ref.relation,
                    self.graph.attr_position(probe_ref),
                )
            )
        if isinstance(sibling, Leaf):
            relation = self.relations[sibling.relation]
            index_pred = next(
                (b for b in bound if relation.has_index(b[2])), None
            )
            if index_pred is not None:
                clock.charge(cm.index_probe)
                rows = relation.matching(
                    index_pred[2], composite.value(index_pred[3], index_pred[4])
                )
            else:
                clock.charge(cm.scan_tuple * len(relation))
                rows = list(relation.rows())
                index_pred = None
            residuals = [b for b in bound if b is not index_pred]
            matches = []
            if residuals:
                clock.charge(cm.predicate_eval * len(rows) * len(residuals))
            for row in rows:
                if all(
                    row.values[b[1]] == composite.value(b[3], b[4])
                    for b in residuals
                ):
                    matches.append(CompositeTuple.of(sibling.relation, row))
            clock.charge(cm.per_match * len(matches))
            return matches
        store = self.stores[sibling]
        found: Optional[List[CompositeTuple]] = None
        index_pred = None
        for b in bound:
            probe_value = composite.value(b[3], b[4])
            clock.charge(cm.index_probe)
            found = store.lookup(b[0], b[1], probe_value)
            if found is not None:
                index_pred = b
                break
        if found is None:
            clock.charge(cm.scan_tuple * len(store))
            found = store.scan()
        residuals = [b for b in bound if b is not index_pred]
        if residuals:
            clock.charge(cm.predicate_eval * len(found) * len(residuals))
        matches = [
            c
            for c in found
            if all(
                c.value(b[0], b[1]) == composite.value(b[3], b[4])
                for b in residuals
            )
        ]
        clock.charge(cm.per_match * len(matches))
        return matches

    def _apply_window_update(self, update: Update) -> None:
        relation = self.relations[update.relation]
        cm = self.ctx.cost_model
        index_count = sum(
            1
            for attr in relation.schema.attributes
            if relation.has_index(attr)
        )
        self.ctx.clock.charge(
            cm.relation_update + cm.index_update * index_count
        )
        if update.sign is Sign.INSERT:
            relation.insert(update.row)
        else:
            relation.delete(update.row)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def memory_in_use(self) -> int:
        """Bytes held by all materialized subresults."""
        return sum(store.memory_bytes for store in self.stores.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"XJoinExecutor({self.tree!r})"
