"""An MJoin pipeline: the plan for one update stream ``∆Ri``.

The pipeline is a sequence of join operators (Section 3.1) plus three kinds
of cache plumbing wired in by the re-optimizer:

* active :class:`CacheLookup` bindings that bypass operator segments,
* :class:`CacheUpdate` maintenance taps keeping caches consistent,
* :class:`BloomLookup` profile taps estimating ``miss_prob`` of candidates.

A composite is a ``tuple`` of rows laid out as :attr:`Pipeline.layout`:
the owner, then each operator's target. Tap positions are indexed by
pipeline *slot*: slot ``p`` sees the composites that are the input of
operator ``p`` (``p + 1`` rows); slot ``nops`` sees the pipeline's final
outputs. By the prefix invariant a maintenance tap's slot can never fall
strictly inside an active lookup's bypassed range (see
``tests/test_pipeline.py::test_tap_inside_bypass_impossible``), so hits
never starve maintenance.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import PlanError
from repro.obs import Observability
from repro.obs.profile import NULL_PROFILER
from repro.operators.base import ExecContext
from repro.operators.cache_ops import BloomLookup, CacheLookup, CacheUpdate
from repro.operators.join_op import JoinOperator
from repro.streams.events import Sign
from repro.streams.tuples import Layout, Row, layout_of

ObservationSink = Callable[[str, float], None]


@dataclass
class ProfileSample:
    """Measurements from one fully profiled tuple (Appendix A).

    ``deltas[p]`` is the number of composites entering slot ``p`` (so
    ``deltas[nops]`` counts final outputs) and ``taus[p]`` the virtual time
    spent in operator ``p`` while processing this tuple.
    """

    deltas: List[int] = field(default_factory=list)
    taus: List[float] = field(default_factory=list)


class _InstrumentedOperator:
    """One operator step under the instrumentation that is switched on.

    ``sample`` set: record ``δ`` (input size) and ``τ`` (virtual time) for
    the slot and charge the profiling bookkeeping. On a timed update
    (``Observability.timing``) ``profiler`` and ``histogram`` are the live
    span profiler and the slot's bound latency histogram, whichever of
    them are enabled; otherwise the null profiler and None.
    """

    __slots__ = ("operator", "sample", "span", "profiler", "histogram")

    def __init__(
        self,
        operator: JoinOperator,
        sample: Optional[ProfileSample],
        span: str,
        profiler,
        histogram,
    ):
        self.operator = operator
        self.sample = sample
        self.span = span
        self.profiler = profiler
        self.histogram = histogram

    def apply(self, composites: List[tuple], ctx: ExecContext) -> List[tuple]:
        sample, prof = self.sample, self.profiler
        clock = ctx.clock
        started = clock.now_us
        if sample is not None:
            sample.deltas.append(len(composites))
            clock.charge(ctx.cost_model.profile_tuple)
        prof.begin(self.span, started)
        try:
            composites = self.operator.apply(composites, ctx)
        finally:
            # Close the span on the exception path too, or a failing
            # operator leaves the profiler stack open.
            prof.end(clock.now_us)
        elapsed = clock.now_us - started
        if sample is not None:
            sample.taus.append(elapsed)
        if self.histogram is not None:
            self.histogram.observe(elapsed)
        return composites


class Pipeline:
    """Join plan and cache plumbing for one update stream."""

    def __init__(
        self,
        owner: str,
        operators: Sequence[JoinOperator],
        obs: Optional[Observability] = None,
    ):
        self.owner = owner
        self.operators: List[JoinOperator] = list(operators)
        self.layout: Layout = layout_of(
            (owner,) + tuple(op.target for op in self.operators)
        )
        # The registry instruments are bound to, once: per-slot histograms
        # here, per-cache counters whenever the plumbing is compiled. None
        # (no observability, or a disabled one) binds nothing.
        self._registry = (
            obs.registry if obs is not None and obs.enabled else None
        )
        # Span names and latency histograms per slot (reorders build a new
        # Pipeline, so these stay correct for the pipeline's lifetime).
        self._op_span_names: Tuple[str, ...] = tuple(
            f"op:{owner}.{position}:{op.target}"
            for position, op in enumerate(self.operators)
        )
        self._no_histograms: Tuple[None, ...] = (None,) * len(self.operators)
        self._op_histograms: tuple = self._no_histograms
        if self._registry is not None:
            self._op_histograms = tuple(
                self._registry.histogram(
                    "repro_operator_us",
                    {"pipeline": owner, "slot": str(position)},
                )
                for position in range(len(self.operators))
            )
        self._lookups: Dict[int, CacheLookup] = {}
        self._updates: Dict[int, List[CacheUpdate]] = defaultdict(list)
        self._blooms: Dict[int, List[BloomLookup]] = defaultdict(list)
        self.observation_sink: Optional[ObservationSink] = None
        # What process() reads per slot, compiled from the three dicts
        # above whenever the plumbing changes: the lookup starting at each
        # operator slot (None: run the operator) and the (maintenance,
        # bloom) tap tuples at each tap slot (None: no taps).
        self._no_lookups: Tuple[None, ...] = (None,) * len(self.operators)
        self._slot_lookups: Tuple[Optional[CacheLookup], ...] = ()
        self._slot_taps: Tuple[Optional[tuple], ...] = ()
        self._compile()

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def order(self) -> Tuple[str, ...]:
        """Relation names in join order (excluding the owner)."""
        return tuple(op.target for op in self.operators)

    @property
    def slots(self) -> int:
        """Number of join operators (tap slots run 0..slots)."""
        return len(self.operators)

    def position_of(self, relation: str) -> int:
        """Operator slot of ``relation`` in this pipeline."""
        for position, op in enumerate(self.operators):
            if op.target == relation:
                return position
        raise PlanError(f"{relation!r} not in ∆{self.owner}'s pipeline")

    # ------------------------------------------------------------------
    # cache plumbing management (driven by the re-optimizer)
    # ------------------------------------------------------------------
    def attach_lookup(self, lookup: CacheLookup) -> None:
        """Install a CacheLookup over its operator segment."""
        if lookup.end >= len(self.operators):
            raise PlanError("cache segment extends past the pipeline")
        for existing in self._lookups.values():
            if not (
                lookup.end < existing.start or lookup.start > existing.end
            ):
                raise PlanError(
                    f"cache segments overlap: {lookup} vs {existing}"
                )
        for position in self._updates:
            if lookup.start < position <= lookup.end:
                raise PlanError(
                    f"lookup {lookup} would bypass maintenance tap at slot "
                    f"{position}; this violates the prefix invariant"
                )
        lookup.bind_layout(self.layout.names[lookup.start + 1:lookup.end + 2])
        self._lookups[lookup.start] = lookup
        self._compile()

    def detach_lookup(self, cache_name: str) -> bool:
        """Remove the lookup for ``cache_name``; True if found."""
        for start, lookup in list(self._lookups.items()):
            if lookup.cache.name == cache_name:
                del self._lookups[start]
                self._compile()
                return True
        return False

    def active_lookups(self) -> List[CacheLookup]:
        """The attached lookups, ordered by start slot."""
        return [self._lookups[s] for s in sorted(self._lookups)]

    def attach_update(self, tap: CacheUpdate) -> None:
        """Install a maintenance tap at its slot."""
        if tap.position > len(self.operators):
            raise PlanError("maintenance tap position past the pipeline end")
        for lookup in self._lookups.values():
            if lookup.start < tap.position <= lookup.end:
                raise PlanError(
                    f"maintenance tap {tap} falls inside the bypassed range "
                    f"of {lookup}; this violates the prefix invariant"
                )
        tap.bind_layout(self.layout.names[:tap.position + 1])
        self._updates[tap.position].append(tap)
        self._compile()

    def detach_updates(self, cache_name: str) -> int:
        """Remove every tap of ``cache_name``; returns the count."""
        removed = 0
        for position in list(self._updates):
            taps = self._updates[position]
            keep = [t for t in taps if t.cache.name != cache_name]
            removed += len(taps) - len(keep)
            if keep:
                self._updates[position] = keep
            else:
                del self._updates[position]
        self._compile()
        return removed

    def attach_bloom(self, bloom: BloomLookup) -> None:
        """Install a profile-mode (miss-probability) lookup."""
        if bloom.position >= len(self.operators):
            raise PlanError("bloom tap must precede a join operator")
        self._blooms[bloom.position].append(bloom)
        self._compile()

    def detach_bloom(self, candidate_id: str) -> int:
        """Remove a candidate's profile-mode lookups; returns the count."""
        removed = 0
        for position in list(self._blooms):
            taps = self._blooms[position]
            keep = [t for t in taps if t.candidate_id != candidate_id]
            removed += len(taps) - len(keep)
            if keep:
                self._blooms[position] = keep
            else:
                del self._blooms[position]
        self._compile()
        return removed

    def clear_plumbing(self) -> None:
        """Remove all lookups, taps, and profilers (plan switch)."""
        self._lookups.clear()
        self._updates.clear()
        self._blooms.clear()
        self._compile()

    def _compile(self) -> None:
        """Flatten the plumbing dicts into the per-slot tuples."""
        nops = len(self.operators)
        self._slot_lookups = tuple(
            self._lookups.get(position) for position in range(nops)
        )
        # What a *profiled* delete still visits: the lookups whose entries
        # a last owner-side witness consumes (see _consume_witnesses).
        self._witness_lookups = tuple(
            lookup
            if lookup is not None and lookup.owner_witness_count is not None
            else None
            for lookup in self._slot_lookups
        )
        slot_taps = []
        for position in range(nops + 1):
            updates = tuple(self._updates.get(position, ()))
            blooms = tuple(self._blooms.get(position, ()))
            slot_taps.append((updates, blooms) if updates or blooms else None)
        self._slot_taps = tuple(slot_taps)
        registry = self._registry
        if registry is None:
            return
        for lookup in self._lookups.values():
            labels = {"cache": lookup.cache.name}
            lookup.counters = tuple(
                registry.counter(name, labels)
                for name in (
                    "repro_cache_probe_batch_total",
                    "repro_cache_probed_total",
                    "repro_cache_hit_total",
                    "repro_cache_create_total",
                )
            )
        for taps in self._updates.values():
            for tap in taps:
                labels = {"cache": tap.cache.name, "pipeline": tap.owner}
                tap.counters = (
                    registry.counter(
                        "repro_cache_maintenance_calls_by_cache_total", labels
                    ),
                    registry.counter(
                        "repro_cache_maintenance_applied_total", labels
                    ),
                )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def process(
        self,
        row: Row,
        sign: Sign,
        ctx: ExecContext,
        profile: bool = False,
    ) -> Tuple[List[tuple], Optional[ProfileSample]]:
        """Run one update through the pipeline; the outputs are row
        tuples laid out as :attr:`layout`.

        With ``profile=True`` the tuple's processing bypasses every active
        CacheLookup (Appendix A: profiled tuples measure the cache-free
        path) and per-operator ``δ``/``τ`` measurements are returned.
        Maintenance taps always run — they keep *other* pipelines' caches
        consistent and are not "using" a cache — and so does a delete's
        last-witness check on globally-consistent entries, which is
        maintenance too.

        There is one loop. Whatever instrumentation this update takes —
        the profiled tuple's measurements and, when the update is timed,
        the per-operator histogram and the span profiler — wraps the
        operator steps (:class:`_InstrumentedOperator`), chosen once per
        update; with none of it the loop runs the operators themselves and
        tests none of those switches.
        """
        sample = ProfileSample() if profile else None
        operators = self.operators
        nops = len(operators)
        obs = ctx.obs
        if profile or obs.timing:
            if obs.timing:
                prof, histograms = obs.profiler, self._op_histograms
            else:
                prof, histograms = NULL_PROFILER, self._no_histograms
            operators = [
                _InstrumentedOperator(operator, sample, span, prof, histogram)
                for operator, span, histogram in zip(
                    operators, self._op_span_names, histograms
                )
            ]
        if not profile:
            lookups = self._slot_lookups
        elif sign is Sign.DELETE:
            lookups = self._witness_lookups
        else:
            lookups = self._no_lookups
        slot_taps = self._slot_taps
        composites: List[tuple] = [(row,)]
        position = 0
        while composites:
            taps = slot_taps[position]
            if taps is not None:
                updates, blooms = taps
                for tap in updates:
                    tap.apply(composites, sign, ctx)
                for bloom in blooms:
                    if bloom.estimator.paused:
                        continue
                    for observation in bloom.apply(composites, ctx, sign):
                        if self.observation_sink is not None:
                            self.observation_sink(
                                bloom.candidate_id, observation
                            )
            if position == nops:
                break
            lookup = lookups[position]
            if lookup is None:
                composites = operators[position].apply(composites, ctx)
                position += 1
            elif profile:
                self._consume_witnesses(lookup, composites, ctx)
                composites = operators[position].apply(composites, ctx)
                position += 1
            else:
                composites = self._through_cache(
                    lookup, composites, sign, ctx
                )
                position = lookup.end + 1
        if sample is not None:
            # The slot where the tuple stopped (the final outputs, or the
            # empty set that ended it early), then padding for the slots
            # never reached.
            sample.deltas.append(len(composites))
            sample.deltas.extend([0] * (nops + 1 - len(sample.deltas)))
            sample.taus.extend([0.0] * (nops - len(sample.taus)))
        return composites, sample

    def _consume_witnesses(
        self,
        lookup: CacheLookup,
        composites: List[tuple],
        ctx: ExecContext,
    ) -> None:
        """:meth:`_through_cache`'s last-witness consumption for a delete
        that bypasses the cache: one ``index_probe`` per distinct key, no
        cache probe made or counted."""
        clock, cost = ctx.clock, ctx.cost_model.index_probe
        checked_keys: set = set()
        for composite in composites:
            probe_key = lookup.key.probe_value(composite)
            if probe_key in checked_keys:
                continue
            checked_keys.add(probe_key)
            clock.charge(cost)
            if lookup.owner_witness_count(probe_key) <= 1:
                lookup.cache.invalidate(probe_key)

    def _through_cache(
        self,
        lookup: CacheLookup,
        composites: List[tuple],
        sign: Sign,
        ctx: ExecContext,
    ) -> List[tuple]:
        """Probe the cache for each composite; compute misses per key.
        A hit is ``composite + segment`` per cached segment tuple."""
        clock, cm = ctx.clock, ctx.cost_model
        charge = clock.charge
        cache = lookup.cache
        probe, key = cache.probe, lookup.key
        from_store = lookup.from_store
        obs = ctx.obs
        timed = obs.timing
        if timed:
            prof = obs.profiler
            prof.begin("cache_probe:" + cache.name, clock.now_us)
        # Globally-consistent caches anchored on this pipeline's relation:
        # a deletion that is the last owner-side witness of its key must
        # consume the probed entry (and not create one on a miss), or
        # later segment inserts for that key go unmaintained. Deletions
        # with surviving witnesses are handled like ordinary probes. See
        # the GlobalCache module docstring.
        check_witnesses = (
            lookup.owner_witness_count if sign is Sign.DELETE else None
        )
        consumed_keys: Optional[set] = None
        if check_witnesses is not None:
            consumed_keys, checked_keys = set(), set()
        # Micro-batch mode: one hash + bucket charge per distinct probe
        # key in this group — the probed values cannot change between two
        # same-key probes of the same call, so the group shares one probe.
        charged_keys: Optional[set] = (
            set() if ctx.probe_memo is not None else None
        )
        results: List[tuple] = []
        miss_groups: Dict[tuple, List[tuple]] = {}
        hit_count = 0
        try:
            for composite in composites:
                probe_key, values = probe(composite, key)
                if charged_keys is None:
                    charge(cm.cache_probe)
                elif probe_key not in charged_keys:
                    charged_keys.add(probe_key)
                    charge(cm.cache_probe)
                if (
                    check_witnesses is not None
                    and probe_key not in checked_keys
                ):
                    checked_keys.add(probe_key)
                    charge(cm.index_probe)
                    if check_witnesses(probe_key) <= 1:
                        consumed_keys.add(probe_key)
                        cache.invalidate(probe_key)
                if values is None:
                    miss_groups.setdefault(probe_key, []).append(composite)
                    continue
                hit_count += 1
                charge(cm.cache_hit_tuple * len(values))
                if from_store is not None:
                    values = map(from_store, values)
                results += map(composite.__add__, values)
        finally:
            if timed:
                prof.end(clock.now_us)
        # The per-probe counts, once per call: the same totals, and a
        # cache's first hit still creates its per_cache_hits slot.
        metrics = ctx.metrics
        metrics.cache_probes += len(composites)
        if hit_count:
            metrics.cache_hits += hit_count
            per_cache = metrics.per_cache_hits
            per_cache[cache.name] = per_cache.get(cache.name, 0) + hit_count
        counters = lookup.counters
        if counters is not None and composites:
            batches, probed, hits, _ = counters
            batches.inc()
            probed.inc(len(composites))
            hits.inc(hit_count)
            if timed:
                obs.tracer.emit(
                    "cache_probe",
                    clock.now_us,
                    cache=cache.name,
                    pipeline=self.owner,
                    probes=len(composites),
                    hits=hit_count,
                    misses=len(composites) - hit_count,
                    sign=sign.name,
                )
        if not miss_groups:
            return results
        if timed:
            prof.begin("cache_store:" + cache.name, clock.now_us)
        try:
            self._fill_misses(
                lookup, miss_groups, consumed_keys, results, ctx
            )
        finally:
            if timed:
                prof.end(clock.now_us)
        return results

    def _fill_misses(
        self,
        lookup: CacheLookup,
        miss_groups: Dict[tuple, List[tuple]],
        consumed_keys: Optional[set],
        results: List[tuple],
        ctx: ExecContext,
    ) -> None:
        """Compute the segment join for each missed key; fill the cache.

        ``consumed_keys`` (None: no delete witness check ran) are keys
        losing their last owner-side witness: computed, never created.
        """
        clock, cm = ctx.clock, ctx.cost_model
        cache = lookup.cache
        creates = lookup.counters[3] if lookup.counters is not None else None
        cut, to_store = lookup.start + 1, lookup.to_store
        for probe_key, group in miss_groups.items():
            if consumed_keys is not None and probe_key in consumed_keys:
                # Compute through the operators without creating an entry:
                # the key is losing its last owner-side witness.
                segment_results = group
                for op_position in range(lookup.start, lookup.end + 1):
                    segment_results = self.operators[op_position].apply(
                        segment_results, ctx
                    )
                results.extend(segment_results)
                continue
            # One representative recomputes the segment join for this key;
            # all cross (prefix↔segment) predicates are key components, so
            # the segment result depends only on the key.
            segment_results = [group[0]]
            for op_position in range(lookup.start, lookup.end + 1):
                # No taps here: slot ``start`` already ran in the caller and
                # slots strictly inside the bypass cannot host taps (see
                # attach-time validation).
                segment_results = self.operators[op_position].apply(
                    segment_results, ctx
                )
            segment_parts = [c[cut:] for c in segment_results]
            clock.charge(
                cm.cache_create + cm.cache_store_tuple * len(segment_parts)
            )
            ctx.metrics.cache_creates += 1
            if creates is not None:
                creates.inc()
            cache.create(
                probe_key,
                segment_parts if to_store is None
                else list(map(to_store, segment_parts)),
            )
            # The representative's outputs are its segment results; every
            # other member splices the same segment tuples, as on a hit.
            results += segment_results
            for member in group[1:]:
                clock.charge(cm.cache_hit_tuple * len(segment_parts))
                results += map(member.__add__, segment_parts)

    def __repr__(self) -> str:
        chain = " -> ".join(self.order)
        return f"Pipeline(∆{self.owner}: {chain})"
