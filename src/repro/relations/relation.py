"""Windowed relation storage.

A :class:`Relation` holds the current contents of one sliding window — the
relation state ``Ri`` that pipelines join against. It maintains hash
indexes on whichever attributes the query plan requested; lookups on a
non-indexed attribute fall back to a scan (the Figure 10 nested-loop
configuration).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.errors import SchemaError
from repro.relations.index import HashIndex
from repro.streams.events import TUPLE_BYTES
from repro.streams.tuples import Row, Schema


class Relation:
    """The live contents of one windowed relation plus its indexes."""

    def __init__(self, schema: Schema, indexed_attributes: Iterable[str] = ()):
        self.schema = schema
        self._rows: Dict[int, Row] = {}
        self._indexes: Dict[str, HashIndex] = {}
        # Bumped whenever the index set changes: whatever was resolved
        # against the index set (a join operator's probe plan) records the
        # epoch it saw and re-resolves when it moves.
        self.index_epoch = 0
        for attribute in indexed_attributes:
            self.add_index(attribute)

    # ------------------------------------------------------------------
    # index management
    # ------------------------------------------------------------------
    def add_index(self, attribute: str) -> HashIndex:
        """Create (or return) a hash index on ``attribute``."""
        if attribute in self._indexes:
            return self._indexes[attribute]
        position = self.schema.index_of(attribute)
        index = HashIndex(position)
        for row in self._rows.values():
            index.add(row)
        self._indexes[attribute] = index
        self.index_epoch += 1
        return index

    def drop_index(self, attribute: str) -> None:
        """Remove the index on ``attribute`` (forcing scans), if present."""
        if self._indexes.pop(attribute, None) is not None:
            self.index_epoch += 1

    @property
    def index_count(self) -> int:
        """Number of hash indexes a window update has to maintain."""
        return len(self._indexes)

    def has_index(self, attribute: str) -> bool:
        """True if ``attribute`` has a hash index."""
        return attribute in self._indexes

    def index(self, attribute: str) -> HashIndex:
        """The hash index on ``attribute`` (SchemaError if absent)."""
        try:
            return self._indexes[attribute]
        except KeyError:
            raise SchemaError(
                f"no index on {self.schema.relation}.{attribute}"
            ) from None

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def insert(self, row: Row) -> None:
        """Add a row to the window and all indexes (idempotent by rid).

        Re-delivery of a live row is a no-op; a live rid arriving with
        *different* values is treated as a replacement, removing the stale
        index postings first so no bucket keeps a dangling reference.
        """
        existing = self._rows.get(row.rid)
        if existing is not None:
            if existing.values == row.values:
                return
            self.delete(existing)
        self._rows[row.rid] = row
        for index in self._indexes.values():
            index.add(row)

    def delete(self, row: Row) -> None:
        """Remove a row by identity from the window and all indexes."""
        existing = self._rows.pop(row.rid, None)
        if existing is None:
            return
        for index in self._indexes.values():
            index.remove(existing)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def live_row(self, rid: int) -> Optional[Row]:
        """The live row with identity ``rid``, or None.

        The ingress guard uses this to recognize duplicate inserts and
        orphaned deletes; the coherence auditor uses it to check that a
        cached composite still references live window tuples.
        """
        return self._rows.get(rid)

    def matching(self, attribute: str, value: Any) -> List[Row]:
        """Rows whose ``attribute`` equals ``value``.

        Uses the hash index when one exists; otherwise scans — callers that
        account costs distinguish the two via :meth:`has_index`.
        """
        index = self._indexes.get(attribute)
        if index is not None:
            return index.lookup(value)
        position = self.schema.index_of(attribute)
        return [r for r in self._rows.values() if r.values[position] == value]

    def match_count(self, attribute: str, value: Any) -> int:
        """Number of rows matching, without materializing them."""
        index = self._indexes.get(attribute)
        if index is not None:
            return index.count(value)
        position = self.schema.index_of(attribute)
        return sum(1 for r in self._rows.values() if r.values[position] == value)

    def rows(self) -> Iterator[Row]:
        """Iterate over the live rows."""
        return iter(self._rows.values())

    def value_of(self, row: Row, attribute: str) -> Any:
        """The row's value for ``attribute`` (resolved via the schema)."""
        return row.values[self.schema.index_of(attribute)]

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, row: Row) -> bool:
        return row.rid in self._rows

    @property
    def memory_bytes(self) -> int:
        """Window footprint under the paper's 32-byte-tuple accounting."""
        return len(self._rows) * TUPLE_BYTES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation({self.schema!r}, n={len(self)})"
