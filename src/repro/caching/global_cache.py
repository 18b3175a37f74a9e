"""Globally-consistent caches ``X ⋉ Y`` (Section 6).

A globally-consistent cache stores composites of the relation set ``X``
(a contiguous pipeline segment that does *not* satisfy the prefix
invariant) and is maintained through the pipelines of ``X ∪ Y``, the
smallest enclosing set that does. Its entries obey the relaxed invariant
of Definition 6.1: a present key's value set lies between the
``Y``-semijoin-filtered segment join and the full segment join.

**Maintenance scheme.** Maintenance deltas arrive as full ``X ∪ Y``
composites; projecting them onto ``X`` loses derivation multiplicity, so
per-composite delete counting is unsound without witness counts, and
witness *counts* are themselves unsound when the anchor contains the
cache's own probing relation (a count that drops to zero evicts a
composite that a future probing tuple still needs — and that probe runs
before its own maintenance, so the loss is unrecoverable). We therefore
use a counting-free scheme that is sound for every anchor position:

* **segment (X) insert/delete** — add/remove the projected composite
  (the tap projects its ``X ∪ Y`` composite onto ``X``'s layout);
  a derivation *is* the composite here, so set semantics are exact;
* **anchor (Y) insert** — set-insert the projected composite; this also
  repairs composites that were skipped earlier for lack of a witness;
* **anchor (Y) delete** — drop the *whole entry*; the next probe misses
  and recomputes, which is always consistent.

Soundness sketch (full argument in DESIGN.md): an entry is created
complete by a probing miss, and while it exists every prefix-side witness
(owner or upstream anchors) for its key is guaranteed live — the probing
tuple that created it is inserted right after creation, and any delete of
such a witness invalidates the entry. Hence composites absent from a live
entry lack only *downstream* anchor witnesses, and those composites
produce no outputs downstream anyway, so a hit never loses results.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.caching.cache import Cache
from repro.caching.key import CacheKey


class GlobalCache(Cache):
    """A cache of ``X`` maintained through ``X ∪ Y`` pipelines."""

    # A globally-consistent store holds a semijoin-filtered *subset* of the
    # segment join (Definition 6.1), filtered by this query's own anchor
    # windows and repaired through this query's pipelines — it can never
    # back another query's exact-consistency (or differently-anchored)
    # lookups, so inter-query shared-cache groups exclude it.
    inter_query_shareable = False

    def __init__(
        self,
        name: str,
        owner_pipeline: str,
        segment: Tuple[str, ...],
        key: CacheKey,
        anchor: Tuple[str, ...],
        buckets: int = 256,
        store=None,
    ):
        super().__init__(name, owner_pipeline, segment, key, buckets, store)
        self.anchor = tuple(anchor)
        if set(self.anchor) & set(self.segment):
            raise ValueError("anchor relations must be disjoint from segment")
        self.invalidations = 0  # entries dropped by anchor deletes

    @property
    def maintenance_relations(self) -> Tuple[str, ...]:
        """Relations whose pipelines carry maintenance for this cache."""
        return tuple(self.segment) + tuple(self.anchor)

    # ------------------------------------------------------------------
    # maintenance path (CacheUpdate taps pass the updated relation)
    # ------------------------------------------------------------------
    # Both go through maintain_each below. They are bound on this class
    # as well so that per-class method instrumentation sees GlobalCache
    # maintenance apart from plain Cache maintenance.
    maintain_insert = Cache.maintain_insert
    maintain_delete = Cache.maintain_delete

    def maintain_each(
        self,
        composites: Sequence[tuple],
        updated_relation: str,
        insert: bool,
    ) -> List[bool]:
        """As :meth:`Cache.maintain_each`, for the Section 6 scheme.

        Inserts (segment or anchor) set-insert the projected composite,
        and a segment delete removes it. An anchor delete invalidates the
        whole entry: the affected composites may keep other witnesses
        that are not counted. Each composite then re-reads the entry, so
        later composites of the same key find none.
        """
        if insert or updated_relation not in self.anchor:
            return super().maintain_each(composites, updated_relation, insert)
        entry_key = self.key.entry_key
        present: List[bool] = []
        for composite in composites:
            invalidated = self.invalidate(entry_key(composite))
            self.invalidations += invalidated
            present.append(invalidated)
        return present

    def __repr__(self) -> str:
        seg = "⋈".join(self.segment)
        anchor = "⋈".join(self.anchor) if self.anchor else "∅"
        return (
            f"GlobalCache[{self.name}: ({seg})⋉({anchor}) in "
            f"∆{self.owner_pipeline}, entries={self.entry_count}]"
        )
