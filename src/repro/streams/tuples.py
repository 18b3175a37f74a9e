"""Tuples, schemas, and composite (joined) tuples.

The data model mirrors Section 3.1 of the paper: each relation ``Ri`` has a
flat schema of named attributes; base tuples are immutable rows; composite
tuples are the concatenation of one row per relation produced while an
update travels down an MJoin pipeline: a ``tuple`` of rows laid out in
the pipeline's order (a :class:`Layout`), read by name as a
:class:`CompositeTuple`.

Rows carry a engine-assigned ``rid`` (row identity) so that the deletion of a
specific window tuple — as emitted by a sliding-window operator — removes
exactly that row even when attribute values repeat, and so that caches can
evict composites containing a deleted row in O(1) per composite.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    Any, Callable, Dict, Iterable, Iterator, Optional, Sequence, Tuple,
)

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


class Layout:
    """Which relation each row of a positional composite belongs to.

    Layouts are interned by their names — equal layouts are one object,
    before and after a pickle — so a layout compares by identity.
    """

    __slots__ = ("names", "index")

    def __init__(self, names: Tuple[str, ...]):
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}

    def __reduce__(self):
        return layout_of, (self.names,)

    def __repr__(self) -> str:
        return f"Layout{self.names}"


_LAYOUTS: Dict[Tuple[str, ...], Layout] = {}


def layout_of(names: Iterable[str]) -> Layout:
    """The one :class:`Layout` for ``names``, in that order."""
    names = tuple(names)
    layout = _LAYOUTS.get(names)
    if layout is None:
        layout = _LAYOUTS[names] = Layout(names)
    return layout


def layout_map(
    source: Sequence[str], target: Sequence[str]
) -> Optional[Callable[[tuple], tuple]]:
    """The row tuple laid out as ``target``, read from one laid out as
    ``source`` (which binds every relation of ``target``): an
    ``operator.itemgetter``, or None when the two are the same layout."""
    source, target = tuple(source), tuple(target)
    if source == target:
        return None
    picks = [source.index(name) for name in target]
    if len(picks) == 1:
        return itemgetter(slice(picks[0], picks[0] + 1))
    return itemgetter(*picks)


class CompositeTuple:
    """A joined tuple read by relation name: rows plus their layout.

    The name-keyed view of a positional composite, and the value type of
    the public surface (an :class:`~repro.streams.events.OutputDelta`
    builds one when ``delta.composite`` is read). Immutable: ``extended``
    / ``merge`` / ``project`` return a new composite. Equality and
    hashing go by the relation→row bindings (rows compare by rid),
    whatever the order of the layouts.
    """

    __slots__ = ("layout", "rows")

    def __init__(self, layout: Layout, rows: tuple):
        self.layout = layout
        self.rows = rows

    @classmethod
    def of(cls, relation: str, row: Row) -> "CompositeTuple":
        """Build a single-relation composite (pipeline entry point)."""
        return cls(layout_of((relation,)), (row,))

    def extended(self, relation: str, row: Row) -> "CompositeTuple":
        """Return a new composite that also binds ``relation`` to ``row``."""
        return CompositeTuple(
            layout_of(self.layout.names + (relation,)), self.rows + (row,)
        )

    def row(self, relation: str) -> Row:
        """Return the row bound for ``relation`` (KeyError if unbound)."""
        return self.rows[self.layout.index[relation]]

    def value(self, relation: str, position: int) -> Any:
        """Return attribute ``position`` of the row bound for ``relation``."""
        return self.rows[self.layout.index[relation]].values[position]

    def relations(self) -> frozenset:
        """The set of relation names bound in this composite."""
        return frozenset(self.layout.names)

    def project(self, relations: Iterable[str]) -> "CompositeTuple":
        """Return a composite restricted to ``relations``, in that order."""
        names = tuple(relations)
        index, rows = self.layout.index, self.rows
        return CompositeTuple(
            layout_of(names), tuple([rows[index[r]] for r in names])
        )

    def merge(self, other: "CompositeTuple") -> "CompositeTuple":
        """Concatenate two composites over disjoint relation sets."""
        return CompositeTuple(
            layout_of(self.layout.names + other.layout.names),
            self.rows + other.rows,
        )

    def identity(self, order: Iterable[str]) -> tuple:
        """A hashable identity: the rids of the bound rows, in ``order``."""
        index, rows = self.layout.index, self.rows
        return tuple([rows[index[r]].rid for r in order])

    def __contains__(self, relation: str) -> bool:
        return relation in self.layout.index

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[str]:
        return iter(self.layout.names)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompositeTuple):
            return NotImplemented
        if self.layout is other.layout:
            return self.rows == other.rows
        return dict(zip(self.layout.names, self.rows)) == dict(
            zip(other.layout.names, other.rows)
        )

    def __hash__(self) -> int:
        return hash(frozenset(zip(self.layout.names, self.rows)))

    def __repr__(self) -> str:
        pairs = sorted(zip(self.layout.names, self.rows))
        parts = ", ".join(f"{r}={row!r}" for r, row in pairs)
        return f"Composite({parts})"


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
