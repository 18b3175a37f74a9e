"""Cross-shard telemetry: serialize worker observability, merge in parent.

The parallel backends rebuild a full engine per shard, so each worker
accumulates its own ``MetricsRegistry``, tracer ring, decision log, and
span profiler — state that previously died with the worker process (the
ROADMAP's "sharded hit_rate reads 0.0" blind spot). This module defines
the picklable :class:`TelemetrySnapshot` a shard attaches to its
:class:`~repro.parallel.shard.ShardResult` (crossing the process
backend's worker pipe unchanged) and the parent-side merge that
reassembles one global view:

* every counter/gauge/histogram reappears twice — once under a
  ``shard="N"`` label (the per-shard starvation signal) and once as the
  unlabelled global aggregate (sum for counters and summable gauges,
  element-wise for histograms, max for level gauges);
* ``repro_cache_hit_rate`` is recomputed from the global sums rather
  than averaged, so it means what the serial number means;
* trace events and decision records gain a ``shard`` key and merge into
  one virtual-time chronology;
* profiler snapshots merge with per-shard folded-stack prefixes
  (``shard 0;run;...``) so one flamegraph shows all workers side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.profile import ProfileSnapshot
from repro.obs.registry import (
    LabelKey,
    METRICS_FACADE_NAMES,
    MetricsRegistry,
)

# Gauges whose global value is the sum of the shard values. The facade
# totals are snapshot counters (ingest_metrics publishes them as gauges
# for idempotence) and per-cache hit counts sum the same way.
SUMMABLE_GAUGES = frozenset(METRICS_FACADE_NAMES.values()) | {
    "repro_cache_hits",
}

# Recomputed from global sums after the merge, never aggregated directly.
_DERIVED_GAUGES = frozenset({"repro_cache_hit_rate"})


@dataclass
class TelemetrySnapshot:
    """One worker's full observability state, as plain picklable data."""

    shard: Optional[int] = None
    counters: List[Tuple[str, LabelKey, float]] = field(default_factory=list)
    gauges: List[Tuple[str, LabelKey, float]] = field(default_factory=list)
    histograms: List[dict] = field(default_factory=list)
    events: List[dict] = field(default_factory=list)
    dropped_events: Dict[str, int] = field(default_factory=dict)
    decisions: List[dict] = field(default_factory=list)
    profile: Optional[ProfileSnapshot] = None


def collect_telemetry(
    observability,
    metrics=None,
    shard: Optional[int] = None,
) -> TelemetrySnapshot:
    """Freeze one :class:`~repro.obs.Observability` into a snapshot.

    ``metrics`` (the engine's legacy ``Metrics`` bag), when given, is
    ingested into the registry first so the snapshot subsumes the flat
    hot-path counters too.
    """
    registry = observability.registry
    if metrics is not None:
        registry.ingest_metrics(metrics)
    profiler = getattr(observability, "profiler", None)
    return TelemetrySnapshot(
        shard=shard,
        counters=[
            (c.name, c.labels, c.value) for c in registry.counters()
        ],
        gauges=[(g.name, g.labels, g.value) for g in registry.gauges()],
        histograms=[
            {
                "name": h.name,
                "labels": h.labels,
                "buckets": h.buckets,
                "counts": list(h.counts),
                "inf_count": h.inf_count,
                "sum": h.sum,
                "count": h.count,
            }
            for h in registry.histograms()
        ],
        events=[e.to_dict() for e in observability.tracer.events()],
        dropped_events=dict(observability.tracer.dropped)
        if observability.tracer.enabled
        else {},
        decisions=[r.to_dict() for r in observability.decisions.entries()],
        profile=(
            profiler.snapshot()
            if profiler is not None and profiler.enabled
            else None
        ),
    )


@dataclass
class MergedTelemetry:
    """The parent's reassembled global view of a sharded run."""

    registry: MetricsRegistry
    events: List[dict] = field(default_factory=list)
    decisions: List[dict] = field(default_factory=list)
    profile: Optional[ProfileSnapshot] = None
    shards: List[int] = field(default_factory=list)
    dropped_events: Dict[str, int] = field(default_factory=dict)

    def to_prometheus(self) -> str:
        """The merged registry in Prometheus text exposition format."""
        from repro.obs.export import registry_to_prometheus

        return registry_to_prometheus(self.registry)

    def chronology(self) -> List[dict]:
        """Events + decisions in one (virtual time, shard) order."""
        records = list(self.events)
        records.extend(self.decisions)
        records.sort(
            key=lambda r: (
                r.get("t_us", 0.0),
                r.get("shard", -1),
                r.get("seq", 0),
            )
        )
        return records


def _with_shard(labels: LabelKey, shard: Optional[int]) -> Dict[str, str]:
    merged = dict(labels)
    if shard is not None:
        merged["shard"] = str(shard)
    return merged


def merge_telemetry(
    snapshots: List[TelemetrySnapshot],
    coordinator_decisions: Optional[List[dict]] = None,
) -> MergedTelemetry:
    """Merge worker snapshots into one shard-labelled global registry.

    ``coordinator_decisions`` are parent-side records from the global
    adaptivity plane (:class:`repro.parallel.adaptivity.EpochCoordinator`);
    they join the decision chronology tagged ``source="coordinator"`` so
    the merged timeline shows both what each shard measured and what the
    coordinator pushed back.
    """
    registry = MetricsRegistry()
    events: List[dict] = []
    decisions: List[dict] = []
    dropped: Dict[str, int] = {}
    profiles: List[ProfileSnapshot] = []
    prefixes: List[str] = []
    shards: List[int] = []

    for snapshot in snapshots:
        shard = snapshot.shard
        if shard is not None:
            shards.append(shard)
        labelled = shard is not None and len(snapshots) > 1
        for name, labels, value in snapshot.counters:
            if labelled:
                registry.counter(
                    name, _with_shard(labels, shard)
                ).inc(value)
            registry.counter(name, dict(labels)).inc(value)
        for name, labels, value in snapshot.gauges:
            if labelled:
                registry.gauge(name, _with_shard(labels, shard)).set(value)
            if name in _DERIVED_GAUGES and labelled:
                continue
            target = registry.gauge(name, dict(labels))
            if name in SUMMABLE_GAUGES and labelled:
                target.inc(value)
            elif labelled:
                # Level gauges (memory in use, quota state): the global
                # figure is the worst shard, not the sum.
                target.set(max(target.value, value))
            else:
                target.set(value)
        for data in snapshot.histograms:
            targets = [
                registry.histogram(
                    data["name"], dict(data["labels"]),
                    buckets=data["buckets"],
                )
            ]
            if labelled:
                targets.append(
                    registry.histogram(
                        data["name"],
                        _with_shard(data["labels"], shard),
                        buckets=data["buckets"],
                    )
                )
            for target in targets:
                if target.buckets != tuple(data["buckets"]):
                    continue  # bucket mismatch: keep shard copy only
                for index, count in enumerate(data["counts"]):
                    target.counts[index] += count
                target.inf_count += data["inf_count"]
                target.sum += data["sum"]
                target.count += data["count"]
        for event in snapshot.events:
            record = dict(event)
            if shard is not None:
                record["shard"] = shard
            events.append(record)
        for record in snapshot.decisions:
            merged_record = dict(record)
            if shard is not None:
                merged_record["shard"] = shard
            decisions.append(merged_record)
        for kind, count in snapshot.dropped_events.items():
            dropped[kind] = dropped.get(kind, 0) + count
        if snapshot.profile is not None:
            profiles.append(snapshot.profile)
            prefixes.append(
                f"shard {shard}" if shard is not None else "shard ?"
            )

    for record in coordinator_decisions or ():
        merged_record = dict(record)
        merged_record.setdefault("source", "coordinator")
        decisions.append(merged_record)

    # The global hit rate must be hits/probes over the whole run, not an
    # average of per-shard ratios (a starved shard would skew it).
    hits = registry.value("repro_cache_hits_total")
    probes = registry.value("repro_cache_probes_total")
    if probes:
        registry.gauge("repro_cache_hit_rate").set(
            (hits or 0.0) / probes
        )

    profile = None
    if profiles:
        if len(profiles) == 1 and len(snapshots) == 1:
            profile = profiles[0]
        else:
            profile = ProfileSnapshot.merged(profiles, prefixes)

    events.sort(key=lambda r: (r.get("t_us", 0.0), r.get("shard", -1),
                               r.get("seq", 0)))
    decisions.sort(key=lambda r: (r.get("t_us", 0.0), r.get("shard", -1),
                                  r.get("seq", 0)))
    return MergedTelemetry(
        registry=registry,
        events=events,
        decisions=decisions,
        profile=profile,
        shards=sorted(set(shards)),
        dropped_events=dropped,
    )
