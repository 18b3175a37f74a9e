"""Cache keys ``Kijk``.

Section 3.2: the cache key of ``Cijk`` is the set of join attributes
between the relations of the pipeline *prefix* (those joined before the
cached segment, including the pipeline's own update relation) and the
relations of the cached *segment*.

We canonicalize the key as the ordered tuple of crossing predicates. Probe
values are extracted from the prefix side of each predicate, entry keys
from the segment side; because the predicates are equijoins, a probe value
equals the entry key of exactly the segment tuples that join with the
probing composite, so a hit needs no residual predicate checks. A probe
is a row tuple laid out as ``prefix_relations``, a segment tuple one laid
out as ``segment_relations``; slots are compiled to positions up front.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import PlanError
from repro.relations.predicates import (
    EquiPredicate,
    JoinGraph,
    independent_checks,
)


class CacheKey:
    """The resolved key of one cache: paired (prefix, segment) attr slots."""

    __slots__ = (
        "predicates", "_prefix_slots", "_segment_slots", "_width",
        "_probe_at", "_entry_at", "_probe_slot", "_entry_slot",
    )

    def __init__(
        self,
        graph: JoinGraph,
        prefix_relations: Tuple[str, ...],
        segment_relations: Tuple[str, ...],
    ):
        crossing = graph.crossing_predicates(prefix_relations, segment_relations)
        if not crossing:
            raise PlanError(
                "cache key would be empty: no predicates connect prefix "
                f"{prefix_relations} to segment {segment_relations}"
            )
        prefix_set = set(prefix_relations)
        resolved = []
        for pred in crossing:
            if pred.left.relation in prefix_set:
                prefix_ref, segment_ref = pred.left, pred.right
            else:
                prefix_ref, segment_ref = pred.right, pred.left
            resolved.append(
                (
                    (segment_ref.relation, graph.attr_position(segment_ref)),
                    (prefix_ref.relation, graph.attr_position(prefix_ref)),
                    pred,
                )
            )
        # Canonical component order: sorted by segment-side slot, so two
        # shared caches (Definition 4.1) in different pipelines build
        # identical entry keys and can back one physical store. The
        # transitive closure can equate one segment attribute to several
        # prefix attributes; components that the composite invariant makes
        # redundant are dropped (see ``independent_checks``).
        resolved.sort(key=lambda item: item[0])
        deduped = []
        seen = set()
        for item, check in zip(
            resolved, independent_checks([item[:2] for item in resolved])
        ):
            if check not in seen:
                seen.add(check)
                deduped.append(item)
        self._segment_slots = tuple(item[0] for item in deduped)
        self._prefix_slots = tuple(item[1] for item in deduped)
        self.predicates: Tuple[EquiPredicate, ...] = tuple(
            item[2] for item in deduped
        )
        self._width = len(deduped)
        prefix, segment = tuple(prefix_relations), tuple(segment_relations)
        self._probe_at = tuple(
            (prefix.index(r), p) for r, p in self._prefix_slots
        )
        self._entry_at = tuple(
            (segment.index(r), p) for r, p in self._segment_slots
        )
        # Single-class keys: when every component holds the same value,
        # the key is ``(v,) * width`` read from one slot — the same tuple
        # reading every slot builds, so the same hash and the same bucket.
        # The probe side qualifies when all components read one slot; the
        # entry side when the segment's own predicates equate its slots
        # (every composite a key is read from satisfies them). The Fig 9
        # star is the common case: R6's probe key reads R6.A five times.
        self._probe_slot = (
            self._probe_at[0] if len(set(self._prefix_slots)) == 1 else None
        )
        self._entry_slot = (
            self._entry_at[0]
            if _one_class(graph, segment_relations, self._segment_slots)
            else None
        )

    def probe_value(self, composite: tuple) -> tuple:
        """Key extracted from a probing tuple, laid out as the prefix."""
        slot = self._probe_slot
        if slot is None:
            return tuple([composite[i].values[p] for i, p in self._probe_at])
        return (composite[slot[0]].values[slot[1]],) * self._width

    def entry_key(self, composite: tuple) -> tuple:
        """Key extracted from a segment tuple, laid out as the segment (a
        cached value, or a maintenance delta projected onto it)."""
        slot = self._entry_slot
        if slot is None:
            return tuple([composite[i].values[p] for i, p in self._entry_at])
        return (composite[slot[0]].values[slot[1]],) * self._width

    @property
    def prefix_slots(self) -> Tuple[Tuple[str, int], ...]:
        """(relation, position) of each key component on the prefix side."""
        return self._prefix_slots

    @property
    def width(self) -> int:
        """Number of key components (constant per cache, Section 3.3)."""
        return self._width

    def signature(self) -> tuple:
        """A hashable identity used to detect shared caches (Def. 4.1).

        Two caches share iff they cache the same relation set with the same
        key; the key part of that identity is the *segment-side* slots,
        which are pipeline-independent.
        """
        return self._segment_slots  # already canonically sorted

    def __repr__(self) -> str:
        parts = ", ".join(repr(p) for p in self.predicates)
        return f"CacheKey({parts})"


def _one_class(
    graph: JoinGraph,
    segment: Tuple[str, ...],
    slots: Tuple[Tuple[str, int], ...],
) -> bool:
    """True when the predicates among ``segment``'s own relations put all
    of ``slots`` in one equivalence class (union-find over attr slots)."""
    parent: dict = {}

    def find(slot):
        while parent.get(slot, slot) != slot:
            slot = parent[slot]
        return slot

    for pred in graph.internal_predicates(segment):
        left = find((pred.left.relation, graph.attr_position(pred.left)))
        right = find((pred.right.relation, graph.attr_position(pred.right)))
        if left != right:
            parent[left] = right
    return len({find(slot) for slot in slots}) == 1


def segment_predicate_signature(
    graph: JoinGraph, segment: Tuple[str, ...]
) -> tuple:
    """Canonical identity of the join predicates *inside* a segment.

    Two caches over the same relation set with the same key signature can
    still disagree on their cached contents if the predicates linking the
    segment's members differ — the segment join itself differs. Cross-query
    sharing therefore matches on this signature in addition to the key:
    every predicate with both endpoints in the segment, each endpoint
    canonicalized to its (relation, attribute position) slot and the pair
    ordered, the whole set sorted.
    """
    members = set(segment)
    signature = []
    for pred in graph.predicates:
        if pred.left.relation in members and pred.right.relation in members:
            left = (pred.left.relation, graph.attr_position(pred.left))
            right = (pred.right.relation, graph.attr_position(pred.right))
            signature.append((min(left, right), max(left, right)))
    return tuple(sorted(set(signature)))
