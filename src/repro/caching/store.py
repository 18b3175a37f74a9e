"""Direct-mapped hash store backing each cache.

Section 3.3: each cache is a hash table probed on the cache key, with a
*direct-mapped* replacement scheme — if a new key hashes to a bucket that
already holds a different key, the existing entry is simply replaced. This
keeps run-time overhead low and never violates consistency (dropping an
entry is always safe because caches make no completeness guarantee).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Tuple

# Memory accounting constants (bytes). Cached values are sets of references
# to window tuples (Section 3.3), so an entry costs its bucket slot plus one
# reference per relation per cached composite.
ENTRY_OVERHEAD_BYTES = 24
REFERENCE_BYTES = 8
KEY_COMPONENT_BYTES = 8


class DirectMappedStore:
    """A fixed-bucket-count, one-entry-per-bucket associative store."""

    __slots__ = ("buckets", "_table", "replacements")

    def __init__(self, buckets: int):
        if buckets < 1:
            raise ValueError("store needs at least one bucket")
        self.buckets = buckets
        self._table: Dict[int, Tuple[tuple, Any]] = {}
        self.replacements = 0  # collisions that evicted an entry

    def _slot(self, key: tuple) -> int:
        return hash(key) % self.buckets

    def get(self, key: tuple) -> Optional[Any]:
        """Return the value stored under ``key`` or None."""
        entry = self._table.get(self._slot(key))
        if entry is None or entry[0] != key:
            return None
        return entry[1]

    def put(self, key: tuple, value: Any) -> Optional[Tuple[tuple, Any]]:
        """Store ``(key, value)``; return the displaced entry, if any.

        The displaced entry is returned both for a direct-mapped collision
        (different key, counted in ``replacements``) and for a same-key
        overwrite, so callers can keep memory accounting exact.
        """
        slot = self._slot(key)
        evicted = self._table.get(slot)
        if evicted is not None and evicted[0] != key:
            self.replacements += 1
        self._table[slot] = (key, value)
        return evicted

    def remove(self, key: tuple) -> bool:
        """Drop the entry for ``key``; True if something was removed."""
        slot = self._slot(key)
        entry = self._table.get(slot)
        if entry is None or entry[0] != key:
            return False
        del self._table[slot]
        return True

    def clear(self) -> None:
        """Drop every entry."""
        self._table.clear()

    def entries(self) -> Iterator[Tuple[tuple, Any]]:
        """Iterate over the live (key, value) pairs."""
        return iter(self._table.values())

    @property
    def occupancy(self) -> float:
        """Live-entry fraction of the bucket table (0.0–1.0).

        Cross-query shared stores concentrate several probe streams on one
        table; this shows whether sharing thrashes the direct-mapped
        replacement.
        """
        return len(self._table) / self.buckets

    def __len__(self) -> int:
        return len(self._table)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DirectMappedStore({len(self)}/{self.buckets})"


class LRUStore:
    """An LRU-evicting alternative used only by the replacement ablation.

    The paper (Section 3.3) deliberately picks direct-mapped replacement
    for its low constant cost and notes other schemes as future work; this
    store bounds the *entry count* and evicts the least recently probed
    entry on overflow, giving the ablation benchmark its comparison point.
    """

    __slots__ = ("capacity", "_table")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("store needs capacity >= 1")
        self.capacity = capacity
        self._table: Dict[tuple, Any] = {}

    def get(self, key: tuple) -> Optional[Any]:
        """Return the value stored under ``key`` or None."""
        value = self._table.get(key)
        if value is not None:
            # Refresh recency.
            del self._table[key]
            self._table[key] = value
        return value

    def put(self, key: tuple, value: Any) -> Optional[Tuple[tuple, Any]]:
        """Store ``(key, value)``; return the displaced entry, if any."""
        if key in self._table:
            evicted = (key, self._table.pop(key))
        elif len(self._table) >= self.capacity:
            oldest_key = next(iter(self._table))
            evicted = (oldest_key, self._table.pop(oldest_key))
        else:
            evicted = None
        self._table[key] = value
        return evicted

    def remove(self, key: tuple) -> bool:
        """Drop the entry for ``key``; True if something was removed."""
        return self._table.pop(key, None) is not None

    def clear(self) -> None:
        """Drop every entry."""
        self._table.clear()

    def entries(self) -> Iterator[Tuple[tuple, Any]]:
        """Iterate over the live (key, value) pairs."""
        return iter(self._table.items())

    @property
    def occupancy(self) -> float:
        """Live-entry fraction of the capacity (0.0–1.0)."""
        return len(self._table) / self.capacity

    def __len__(self) -> int:
        return len(self._table)
