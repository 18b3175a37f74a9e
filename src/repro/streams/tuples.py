"""Tuples, schemas, and composite (joined) tuples.

The data model mirrors Section 3.1 of the paper: each relation ``Ri`` has a
flat schema of named attributes; base tuples are immutable rows; composite
tuples are the concatenation of one row per relation produced while an
update travels down an MJoin pipeline.

Rows carry a engine-assigned ``rid`` (row identity) so that the deletion of a
specific window tuple — as emitted by a sliding-window operator — removes
exactly that row even when attribute values repeat, and so that caches can
evict composites containing a deleted row in O(1) per composite.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Mapping, Tuple

from repro.errors import SchemaError


class Schema:
    """An ordered set of attribute names for one relation.

    >>> s = Schema("R", ("A", "B"))
    >>> s.index_of("B")
    1
    """

    __slots__ = ("relation", "attributes", "_positions")

    def __init__(self, relation: str, attributes: Iterable[str]):
        self.relation = relation
        self.attributes = tuple(attributes)
        if len(set(self.attributes)) != len(self.attributes):
            raise SchemaError(
                f"duplicate attribute names in schema for {relation!r}: "
                f"{self.attributes}"
            )
        self._positions = {name: i for i, name in enumerate(self.attributes)}

    def index_of(self, attribute: str) -> int:
        """Return the position of ``attribute``, raising SchemaError if absent."""
        try:
            return self._positions[attribute]
        except KeyError:
            raise SchemaError(
                f"relation {self.relation!r} has no attribute {attribute!r}; "
                f"known attributes: {self.attributes}"
            ) from None

    def __contains__(self, attribute: str) -> bool:
        return attribute in self._positions

    def __len__(self) -> int:
        return len(self.attributes)

    def __repr__(self) -> str:
        cols = ", ".join(self.attributes)
        return f"{self.relation}({cols})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return (
            self.relation == other.relation
            and self.attributes == other.attributes
        )

    def __hash__(self) -> int:
        return hash((self.relation, self.attributes))


class Row:
    """One immutable base tuple with an identity.

    Equality and hashing are *by identity* (``rid``): two rows with equal
    values but different identities are distinct window entries, and the
    sliding-window operator deletes a specific one.
    """

    __slots__ = ("rid", "values")

    def __init__(self, rid: int, values: tuple):
        self.rid = rid
        self.values = values

    def __getitem__(self, position: int) -> Any:
        return self.values[position]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Row):
            return NotImplemented
        return self.rid == other.rid

    def __hash__(self) -> int:
        return self.rid

    def __repr__(self) -> str:
        return f"Row#{self.rid}{self.values}"


class CompositeTuple:
    """A joined tuple: a mapping from relation name to one :class:`Row`.

    Composites are immutable: ``extended`` / ``merge`` / ``project`` return
    a new composite. A single input row fans out into many composites
    inside a pipeline, so each of them builds its mapping exactly once and
    hands it to :func:`_adopt` rather than through the copying public
    constructor.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Mapping[str, Row]):
        self._rows = dict(rows)

    @classmethod
    def of(cls, relation: str, row: Row) -> "CompositeTuple":
        """Build a single-relation composite (pipeline entry point)."""
        return _adopt({relation: row})

    def extended(self, relation: str, row: Row) -> "CompositeTuple":
        """Return a new composite that also binds ``relation`` to ``row``."""
        rows = self._rows.copy()
        rows[relation] = row
        return _adopt(rows)

    def extended_each(
        self, relation: str, rows: Iterable[Row]
    ) -> List["CompositeTuple"]:
        """One :meth:`extended` composite per row of ``rows`` — a join
        step's fan-out, built without a Python call per output."""
        base = self._rows
        outputs = []
        for row in rows:
            bound = base.copy()
            bound[relation] = row
            composite = _new_composite(CompositeTuple)
            composite._rows = bound
            outputs.append(composite)
        return outputs

    def merged_each(
        self, others: Iterable["CompositeTuple"]
    ) -> List["CompositeTuple"]:
        """One :meth:`merge` composite per composite of ``others`` — a
        cache hit's splice, built without a Python call per output."""
        base = self._rows
        outputs = []
        for other in others:
            bound = base.copy()
            bound.update(other._rows)
            composite = _new_composite(CompositeTuple)
            composite._rows = bound
            outputs.append(composite)
        return outputs

    def row(self, relation: str) -> Row:
        """Return the row bound for ``relation`` (KeyError if unbound)."""
        return self._rows[relation]

    def value(self, relation: str, position: int) -> Any:
        """Return attribute ``position`` of the row bound for ``relation``."""
        return self._rows[relation].values[position]

    def values_at(self, slots: Iterable[Tuple[str, int]]) -> tuple:
        """The values at several ``(relation, position)`` slots, in order.

        One call per composite for a whole cache key, instead of one
        :meth:`value` call per key component.
        """
        rows = self._rows
        return tuple([rows[rel].values[pos] for rel, pos in slots])

    def relations(self) -> frozenset:
        """The set of relation names bound in this composite."""
        return frozenset(self._rows)

    def project(self, relations: Iterable[str]) -> "CompositeTuple":
        """Return a composite restricted to ``relations``."""
        rows = self._rows
        return _adopt({r: rows[r] for r in relations})

    def merge(self, other: "CompositeTuple") -> "CompositeTuple":
        """Concatenate two composites over disjoint relation sets."""
        rows = self._rows.copy()
        rows.update(other._rows)
        return _adopt(rows)

    def identity(self, order: Iterable[str]) -> tuple:
        """A hashable identity: the rids of the bound rows, in ``order``."""
        rows = self._rows
        return tuple([rows[r].rid for r in order])

    def __contains__(self, relation: str) -> bool:
        return relation in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[str]:
        return iter(self._rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompositeTuple):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(frozenset(self._rows.items()))

    def __repr__(self) -> str:
        parts = ", ".join(f"{r}={row!r}" for r, row in sorted(self._rows.items()))
        return f"Composite({parts})"


_new_composite = object.__new__


def _adopt(rows: dict) -> CompositeTuple:
    """The no-copy constructor: wrap a mapping the caller just built.

    The caller gives ``rows`` up — nothing else may hold a reference to
    it, or the composite would stop being immutable.
    """
    composite = _new_composite(CompositeTuple)
    composite._rows = rows
    return composite


class RowFactory:
    """Allocates monotonically increasing row identities.

    One factory is shared by all streams of a query so rids are globally
    unique, which lets caches key composite identity on rid tuples alone.
    """

    __slots__ = ("_next",)

    def __init__(self, start: int = 0):
        self._next = start

    def make(self, values: tuple) -> Row:
        """Allocate a row with the next identity."""
        row = Row(self._next, values)
        self._next += 1
        return row

    @property
    def allocated(self) -> int:
        """Number of rows allocated so far."""
        return self._next
