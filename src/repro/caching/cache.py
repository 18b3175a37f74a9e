"""Join-subresult caches ``Cijk`` (Sections 3.2-3.3).

A cache lives in one pipeline (its *owner*), covers a contiguous segment of
join operators, and maps a key ``u`` (projection on ``Kijk``) to the set of
segment-join composites ``σ_{Kijk=u}(Rij ⋈ … ⋈ Rik)``.

The consistency invariant (Definition 3.1) is equality with the true
segment join for every *present* key; completeness across keys is never
guaranteed, so entries may be dropped at any time (direct-mapped
replacement, memory reclamation, plan switches) without affecting
correctness.

Every method speaks positional composites in the cache's own layout, the
order of ``segment`` (the owner pipeline's, for the pipeline that built
the store): an entry's values are segment row tuples that a hit splices
onto its prefix with one concatenation. Lookups and taps in pipelines
laid out differently permute with a map compiled when they are attached.
Values are stored keyed by their rid identity, so a maintenance delete
removes exactly the right derivation: for prefix-invariant caches a
derivation *is* a full segment composite and appears exactly once, which is
why no multiplicity counting is needed here (contrast with
:mod:`repro.caching.global_cache`).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.caching.key import CacheKey
from repro.caching.store import (
    DirectMappedStore,
    ENTRY_OVERHEAD_BYTES,
    KEY_COMPONENT_BYTES,
    REFERENCE_BYTES,
)
DEFAULT_BUCKETS = 256

_RID = attrgetter("rid")

# Equal to no entry key: starts maintain_each's first run.
_NO_KEY = object()


class Cache:
    """One cache: key, direct-mapped store, and consistency operations."""

    # Exact-consistency stores (Definition 3.1) may back lookups from other
    # queries whose segment join is provably identical — the inter-query
    # extension of Definition 4.1. GlobalCache overrides this to False.
    inter_query_shareable = True

    def __init__(
        self,
        name: str,
        owner_pipeline: str,
        segment: Tuple[str, ...],
        key: CacheKey,
        buckets: int = DEFAULT_BUCKETS,
        store=None,
    ):
        self.name = name
        self.owner_pipeline = owner_pipeline
        self.segment = tuple(segment)
        self.key = key
        self.store = store if store is not None else DirectMappedStore(buckets)
        self.probes = 0
        self.hits = 0
        # Lifetime totals: unlike probes/hits these survive the periodic
        # reset_counters() of a profiler harvest, so exporters see the
        # whole run's activity.
        self.total_probes = 0
        self.total_hits = 0
        self._memory_bytes = 0
        self._entry_base = (
            ENTRY_OVERHEAD_BYTES + key.width * KEY_COMPONENT_BYTES
        )
        self._composite_bytes = REFERENCE_BYTES * len(self.segment)

    # ------------------------------------------------------------------
    # probe path (CacheLookup)
    # ------------------------------------------------------------------
    def probe(
        self, composite: tuple, key: Optional[CacheKey] = None
    ) -> Tuple[tuple, Optional[Sequence[tuple]]]:
        """Probe with a prefix-side composite.

        Returns ``(key, values)`` where values is a live view of the
        entry's segment tuples on a hit — read it before the cache changes
        again — or None on a miss (an empty view is a *hit* on a key known
        to join nothing). The key is returned so the pipeline can group
        misses and call :meth:`create` once per key.

        ``key`` overrides the cache's own key extractor: a shared cache
        (Definition 4.1) is probed from several pipelines whose prefix
        slots differ even though entry keys coincide.
        """
        self.probes += 1
        self.total_probes += 1
        probe_key = (key or self.key).probe_value(composite)
        value = self.store.get(probe_key)
        if value is None:
            return probe_key, None
        self.hits += 1
        self.total_hits += 1
        return probe_key, value.values()

    def create(self, probe_key: tuple, composites: List[tuple]) -> int:
        """Add an entry computed on a miss (the ``create(u, v)`` of §3.2).

        Returns the net change in stored composite count (for cost
        accounting); handles direct-mapped eviction bookkeeping.
        """
        value: Dict[tuple, tuple] = {
            tuple(map(_RID, c)): c for c in composites
        }
        evicted = self.store.put(probe_key, value)
        self._memory_bytes += self._entry_base + len(value) * self._composite_bytes
        if evicted is not None:
            self._memory_bytes -= (
                self._entry_base + len(evicted[1]) * self._composite_bytes
            )
        return len(value)

    # ------------------------------------------------------------------
    # maintenance path (CacheUpdate operators in segment pipelines)
    # ------------------------------------------------------------------
    # A maintenance tap's input composite binds every segment slot (the
    # prefix invariant of the maintained set); the tap projects it onto
    # the cache's layout, and that segment tuple is what is keyed, stored
    # or removed here. ``updated_relation`` matters only to GlobalCache;
    # taking it here lets a tap call either kind alike.
    def maintain_insert(
        self, composite: tuple, updated_relation: str = ""
    ) -> bool:
        """Apply ``insert(u, r)``: ignored unless key ``u`` is present."""
        return self.maintain_each((composite,), updated_relation, True)[0]

    def maintain_delete(
        self, composite: tuple, updated_relation: str = ""
    ) -> bool:
        """Apply ``delete(u, r)``: ignored unless key ``u`` is present."""
        return self.maintain_each((composite,), updated_relation, False)[0]

    def maintain_each(
        self,
        composites: Sequence[tuple],
        updated_relation: str,
        insert: bool,
    ) -> List[bool]:
        """Apply ``insert(u, r)`` (or ``delete``) for every segment tuple,
        in order; each result is True when its key ``u`` was present.

        The entry is read once per run of equal entry keys: inserting or
        deleting one composite never adds or removes the entry, so the
        next composite with the same key would find the same value.
        """
        entry_key = self.key.entry_key
        get = self.store.get
        present: List[bool] = []
        last_key = _NO_KEY
        value = None
        for composite in composites:
            key = entry_key(composite)
            if key != last_key:
                last_key = key
                value = get(key)
            if value is None:
                present.append(False)
                continue
            identity = tuple(map(_RID, composite))
            if insert:
                if identity not in value:
                    value[identity] = composite
                    self._memory_bytes += self._composite_bytes
            elif value.pop(identity, None) is not None:
                self._memory_bytes -= self._composite_bytes
            present.append(True)
        return present

    def invalidate(self, probe_key: tuple) -> bool:
        """Drop one entry wholesale (always consistent); True if present."""
        value = self.store.get(probe_key)
        if value is None:
            return False
        self.store.remove(probe_key)
        self._memory_bytes -= (
            self._entry_base + len(value) * self._composite_bytes
        )
        return True

    # ------------------------------------------------------------------
    # lifecycle / accounting
    # ------------------------------------------------------------------
    def drop_all(self) -> None:
        """Empty the cache (plan switch / memory reclamation); always safe."""
        self.store.clear()
        self._memory_bytes = 0

    @property
    def memory_bytes(self) -> int:
        """Reference-based footprint of all entries (Section 3.3)."""
        return max(0, self._memory_bytes)

    @property
    def entry_count(self) -> int:
        """Number of keys currently cached."""
        return len(self.store)

    @property
    def observed_miss_prob(self) -> float:
        """Directly observed miss probability (Appendix A, in-use case)."""
        if self.probes == 0:
            return 1.0
        return 1.0 - self.hits / self.probes

    def reset_counters(self) -> None:
        """Zero the windowed probe/hit counters (after a profiler
        harvest); the lifetime totals keep accumulating."""
        self.probes = 0
        self.hits = 0

    def stats_snapshot(self) -> Dict[str, object]:
        """Point-in-time stats for exporters and the metrics registry."""
        return {
            "name": self.name,
            "owner_pipeline": self.owner_pipeline,
            "segment": list(self.segment),
            "entries": self.entry_count,
            "memory_bytes": self.memory_bytes,
            "probes": self.total_probes,
            "hits": self.total_hits,
            "hit_rate": (
                self.total_hits / self.total_probes
                if self.total_probes else 0.0
            ),
        }

    def __repr__(self) -> str:
        seg = "⋈".join(self.segment)
        return (
            f"Cache[{self.name}: {seg} in ∆{self.owner_pipeline}, "
            f"entries={self.entry_count}]"
        )
