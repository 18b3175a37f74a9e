"""CacheLookup and CacheUpdate operators (Section 3.2).

``CacheLookup`` is placed just before the first operator of a cached
segment; on a hit it bypasses the segment's join operators. ``CacheUpdate``
appears in two roles:

* just after the segment in the *owner* pipeline, creating entries for
  missed keys (handled inline by the pipeline's miss path);
* just before the ``(k-j+1)``-st operator of every *segment member's*
  pipeline, applying maintenance inserts/deletes — modeled here as a
  :class:`CacheUpdate` tap pinned to that position.

``BloomLookup`` is the profile-mode CacheLookup of Appendix A: it observes
the full probe stream of a candidate cache that is not in use and feeds a
windowed Bloom filter to estimate ``miss_prob``.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.caching.bloom import MissProbEstimator
from repro.caching.cache import Cache
from repro.operators.base import ExecContext
from repro.streams.events import Sign
from repro.streams.tuples import layout_map


class CacheLookup:
    """Binds a cache to the segment ``[start..end]`` of one pipeline.

    ``key`` is this pipeline's probe-key extractor; for a shared cache it
    differs from ``cache.key`` (whose prefix slots belong to the pipeline
    the cache object was first built for) while agreeing on entry keys.

    ``owner_witness_count`` is set for globally-consistent caches whose
    anchor contains this pipeline's relation: given a probe key, it
    returns how many live owner rows match the key's owner components. A
    deletion consumes the probed entry only when the dying row is the last
    such witness — otherwise the entry's maintenance guarantee still holds
    (see the GlobalCache module docstring).

    ``counters`` is the lookup's bound registry instruments — (probe
    batches, composites probed, hits, entry creations) — set by the
    pipeline when it compiles its plumbing under an enabled
    observability; None otherwise.

    ``to_store`` / ``from_store`` map this pipeline's segment tuples to
    the cache's layout and back; both are None when the two agree.
    """

    __slots__ = (
        "cache", "start", "end", "key", "owner_witness_count", "counters",
        "to_store", "from_store",
    )

    def __init__(
        self, cache: Cache, start: int, end: int, key=None,
        owner_witness_count=None,
    ):
        if end < start:
            raise ValueError("cache segment must cover at least one operator")
        self.cache = cache
        self.start = start
        self.end = end
        self.key = key if key is not None else cache.key
        self.owner_witness_count = owner_witness_count
        self.counters = None
        self.to_store = self.from_store = None

    def bind_layout(self, segment: Sequence[str]) -> None:
        """Compile the maps between the bypassed relations, in this
        pipeline's order, and the cache's (a shared store may have been
        built in another order); called by ``Pipeline.attach_lookup``."""
        self.to_store = layout_map(segment, self.cache.segment)
        self.from_store = layout_map(self.cache.segment, segment)

    @property
    def width(self) -> int:
        """Number of join operators the cache bypasses on a hit."""
        return self.end - self.start + 1

    def __repr__(self) -> str:
        return f"CacheLookup({self.cache.name}@[{self.start}..{self.end}])"


class CacheUpdate:
    """A maintenance tap: updates a cache with segment-join deltas.

    ``position`` is the pipeline slot whose *input* composites are exactly
    the updates to the cache's maintained join (guaranteed by the prefix
    invariant of the maintained relation set). ``counters`` is the tap's
    bound (calls, applied) registry counters, set like
    :attr:`CacheLookup.counters`. ``segment_of`` projects an input
    composite onto the cache's layout (None: it is laid out so already).
    """

    __slots__ = ("cache", "position", "owner", "counters", "segment_of")

    def __init__(self, cache: Cache, position: int, owner: str):
        self.cache = cache
        self.position = position
        self.owner = owner  # the updated relation whose pipeline we sit in
        self.counters = None
        self.segment_of = None

    def bind_layout(self, names: Sequence[str]) -> None:
        """Compile the projection from this tap's input layout onto the
        cache's; called by ``Pipeline.attach_update``."""
        self.segment_of = layout_map(names, self.cache.segment)

    def apply(
        self,
        composites: Sequence[tuple],
        sign: Sign,
        ctx: ExecContext,
    ) -> None:
        """Run the maintenance calls for a batch of delta composites.

        :meth:`Cache.maintain_each` applies the deltas, projected onto the
        cache's layout, reading each run of equal entry keys once. Each
        delta is then charged a check (a call on an absent key is only a
        hash + bucket check, ignored per Section 3.2), then the apply cost
        if its entry was present.
        """
        cm = ctx.cost_model
        charge = ctx.clock.charge
        check, apply_cost = cm.cache_maintain_check, cm.cache_maintain
        cache = self.cache
        ctx.metrics.cache_maintenance_calls += len(composites)
        if self.segment_of is not None:
            composites = list(map(self.segment_of, composites))
        present = cache.maintain_each(
            composites, self.owner, sign is Sign.INSERT
        )
        applied_count = 0
        if ctx.probe_memo is None or len(composites) == 1:
            for applied in present:
                charge(check)
                if applied:
                    applied_count += 1
                    charge(apply_cost)
        else:
            # Micro-batch mode: same-key deltas share one hash + bucket
            # check; each applied delta still pays its own cost.
            checked_keys = set()
            entry_key = cache.key.entry_key
            for composite, applied in zip(composites, present):
                key = entry_key(composite)
                if key not in checked_keys:
                    checked_keys.add(key)
                    charge(check)
                if applied:
                    applied_count += 1
                    charge(apply_cost)
        counters = self.counters
        if counters is not None and composites:
            calls, applied_total = counters
            calls.inc(len(composites))
            applied_total.inc(applied_count)

    def __repr__(self) -> str:
        return f"CacheUpdate({self.cache.name}@{self.position} in ∆{self.owner})"


class BloomLookup:
    """Profile-mode lookup estimating ``miss_prob`` of an unused candidate."""

    __slots__ = ("candidate_id", "key", "position", "estimator")

    def __init__(
        self,
        candidate_id: str,
        key,
        position: int,
        estimator: MissProbEstimator,
    ):
        self.candidate_id = candidate_id
        self.key = key
        self.position = position
        self.estimator = estimator

    def apply(
        self,
        composites: Sequence[tuple],
        ctx: ExecContext,
        sign: Sign = Sign.INSERT,
    ) -> List[float]:
        """Feed probe keys; return any completed window observations.

        The pipeline skips the tap while its estimator is paused.
        """
        clock, cm = ctx.clock, ctx.cost_model
        observations = []
        is_insert = sign is Sign.INSERT
        for composite in composites:
            clock.charge(cm.bloom_hash)
            observation = self.estimator.observe(
                self.key.probe_value(composite), is_insert
            )
            if observation is not None:
                observations.append(observation)
        return observations

    def __repr__(self) -> str:
        return f"BloomLookup({self.candidate_id}@{self.position})"
