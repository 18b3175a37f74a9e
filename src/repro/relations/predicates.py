"""Equijoin predicates and the join graph of a stream join.

All joins in the paper are equijoins ``Ri.attrj = Rk.attrl`` (Section 3.1).
The :class:`JoinGraph` owns the full predicate set of a query and answers
the structural questions the rest of the system needs:

* which predicates connect a new relation to a set of already-joined ones
  (pipeline construction),
* which predicates cross a pipeline prefix and a cached segment — these
  define the cache key ``Kijk`` (Section 3.2),
* whether two relations are connected at all (cross-product detection).
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    NamedTuple,
    Sequence,
    Tuple,
)

from repro.errors import PlanError, SchemaError
from repro.streams.tuples import Schema


class AttrRef(NamedTuple):
    """A fully qualified attribute reference, e.g. ``R.A``."""

    relation: str
    attribute: str

    def __repr__(self) -> str:
        return f"{self.relation}.{self.attribute}"


class EquiPredicate(NamedTuple):
    """An equijoin predicate ``left = right`` between two relations."""

    left: AttrRef
    right: AttrRef

    def relations(self) -> FrozenSet[str]:
        """The (one or two) relation names this object touches."""
        return frozenset((self.left.relation, self.right.relation))

    def side_for(self, relation: str) -> AttrRef:
        """The attribute reference on ``relation``'s side of the predicate."""
        if self.left.relation == relation:
            return self.left
        if self.right.relation == relation:
            return self.right
        raise PlanError(f"predicate {self} does not touch relation {relation!r}")

    def other_side(self, relation: str) -> AttrRef:
        """The attribute reference on the side opposite ``relation``."""
        if self.left.relation == relation:
            return self.right
        if self.right.relation == relation:
            return self.left
        raise PlanError(f"predicate {self} does not touch relation {relation!r}")

    def __repr__(self) -> str:
        return f"{self.left!r}={self.right!r}"


def parse_predicate(text: str) -> EquiPredicate:
    """Parse ``"R.A = S.B"`` into an :class:`EquiPredicate`.

    >>> parse_predicate("R.A = S.A")
    R.A=S.A
    """
    try:
        left_text, right_text = text.split("=")
        lrel, lattr = left_text.strip().split(".")
        rrel, rattr = right_text.strip().split(".")
    except ValueError:
        raise PlanError(f"cannot parse equijoin predicate {text!r}") from None
    return EquiPredicate(AttrRef(lrel, lattr), AttrRef(rrel, rattr))


def independent_checks(
    pairs: Sequence[Tuple[Hashable, Tuple[str, int]]]
) -> List[tuple]:
    """Group equality checks that the composite invariant makes redundant.

    Each pair is ``(checked, source)``: some attribute slot ``checked`` must
    equal the value at ``source = (relation, position)`` of a composite
    that satisfies every closure predicate among the relations it binds
    (the invariant stated on ``JoinOperator``). The transitive closure
    yields one pair per source attribute of an equivalence class, all on
    the same ``checked`` slot. When those sources belong to two or more
    relations the invariant already made their values equal, so any one
    of the pairs decides them all; sources within a *single* relation
    were never compared with each other — closure predicates only link
    distinct relations — and each stays a check of its own.

    Returns one hashable id per pair, equal for pairs that decide each
    other. Join operators (residual predicates) and cache keys (key
    components) both keep one pair per id.
    """
    relations_at: Dict[Hashable, set] = {}
    for checked, (relation, _position) in pairs:
        relations_at.setdefault(checked, set()).add(relation)
    return [
        (checked, None) if len(relations_at[checked]) > 1
        else (checked, source)
        for checked, source in pairs
    ]


class JoinGraph:
    """The schemas and equijoin predicates of one n-way stream join.

    Predicates are closed under transitivity: ``R1.A = R2.A`` and
    ``R2.A = R3.A`` imply ``R1.A = R3.A``, and the implied predicate is
    materialized so that plan enumeration (pipeline orders, join trees,
    cache keys) sees every legal connection — exactly what the paper's
    star queries ``R1(A) ⋈A … ⋈A Rn(A)`` rely on. ``base_predicates``
    keeps the predicates as written.
    """

    def __init__(self, schemas: Sequence[Schema], predicates: Iterable[EquiPredicate]):
        self.schemas: Dict[str, Schema] = {s.relation: s for s in schemas}
        if len(self.schemas) != len(schemas):
            raise SchemaError("duplicate relation names in join graph")
        self.base_predicates: Tuple[EquiPredicate, ...] = tuple(predicates)
        for pred in self.base_predicates:
            for ref in (pred.left, pred.right):
                if ref.relation not in self.schemas:
                    raise SchemaError(
                        f"predicate {pred} references unknown relation "
                        f"{ref.relation!r}"
                    )
                # Resolving eagerly surfaces typos at construction time.
                self.schemas[ref.relation].index_of(ref.attribute)
            if pred.left.relation == pred.right.relation:
                raise PlanError(f"self-join predicate not supported: {pred}")
        self.predicates: Tuple[EquiPredicate, ...] = self._transitive_closure()

    def _transitive_closure(self) -> Tuple[EquiPredicate, ...]:
        """All implied cross-relation equalities via union-find on attrs."""
        parent: Dict[AttrRef, AttrRef] = {}

        def find(ref: AttrRef) -> AttrRef:
            parent.setdefault(ref, ref)
            while parent[ref] != ref:
                parent[ref] = parent[parent[ref]]
                ref = parent[ref]
            return ref

        for pred in self.base_predicates:
            left_root, right_root = find(pred.left), find(pred.right)
            if left_root != right_root:
                parent[left_root] = right_root
        classes: Dict[AttrRef, List[AttrRef]] = {}
        for ref in parent:
            classes.setdefault(find(ref), []).append(ref)
        closed: List[EquiPredicate] = []
        seen = set()
        for members in classes.values():
            members.sort()
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    if a.relation == b.relation:
                        continue  # intra-relation equalities stay implicit
                    token = (a, b)
                    if token not in seen:
                        seen.add(token)
                        closed.append(EquiPredicate(a, b))
        return tuple(closed)

    @classmethod
    def parse(
        cls, schemas: Sequence[Schema], predicate_texts: Iterable[str]
    ) -> "JoinGraph":
        """Build a graph from ``"R.A = S.B"``-style predicate strings."""
        return cls(schemas, [parse_predicate(t) for t in predicate_texts])

    @property
    def relations(self) -> Tuple[str, ...]:
        """The (one or two) relation names this object touches."""
        return tuple(self.schemas)

    def attr_position(self, ref: AttrRef) -> int:
        """Column position of ``ref`` within its relation's schema."""
        return self.schemas[ref.relation].index_of(ref.attribute)

    def predicates_between(
        self, prior: Iterable[str], target: str
    ) -> List[EquiPredicate]:
        """Predicates linking ``target`` to any relation in ``prior``.

        These are exactly the predicates a pipeline join operator for
        ``target`` must enforce given that ``prior`` is already joined.
        """
        prior_set = set(prior)
        found = []
        for pred in self.predicates:
            rels = pred.relations()
            if target in rels and (rels - {target}) & prior_set:
                found.append(pred)
        return found

    def crossing_predicates(
        self, prefix: Iterable[str], segment: Iterable[str]
    ) -> List[EquiPredicate]:
        """Predicates with one side in ``prefix`` and the other in ``segment``.

        The cache key ``Kijk`` of a segment cache is built from these
        (Section 3.2): probe values come from the prefix side, entry keys
        from the segment side.
        """
        prefix_set, segment_set = set(prefix), set(segment)
        found = []
        for pred in self.predicates:
            a, b = pred.left.relation, pred.right.relation
            if (a in prefix_set and b in segment_set) or (
                b in prefix_set and a in segment_set
            ):
                found.append(pred)
        return found

    def internal_predicates(self, relations: Iterable[str]) -> List[EquiPredicate]:
        """Predicates entirely contained within ``relations``."""
        rel_set = set(relations)
        return [p for p in self.predicates if p.relations() <= rel_set]

    def are_connected(self, group_a: Iterable[str], group_b: Iterable[str]) -> bool:
        """True if any predicate crosses the two relation groups."""
        return bool(self.crossing_predicates(group_a, group_b))

    def connected_order(self, order: Sequence[str]) -> bool:
        """True if every relation in ``order`` (after the first) connects
        to at least one earlier relation — i.e. the pipeline never forms a
        cross product."""
        for i in range(1, len(order)):
            if not self.predicates_between(order[:i], order[i]):
                return False
        return True

    def __repr__(self) -> str:
        rels = ", ".join(self.relations)
        preds = ", ".join(repr(p) for p in self.predicates)
        return f"JoinGraph([{rels}]; {preds})"
