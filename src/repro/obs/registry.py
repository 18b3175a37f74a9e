"""A named-metrics registry: counters, gauges, fixed-bucket histograms.

Subsumes and extends the flat counter bag of
:class:`repro.engine.metrics.Metrics`: where ``Metrics`` keeps the handful
of hot-path totals the engine has always tracked (and stays the stable
API for them), the registry holds arbitrarily many *named*, *labelled*
instruments — per-operator virtual-time histograms, per-cache
probe/hit/maintenance counters, per-pipeline update latency — and renders
them in a Prometheus-style text format (:mod:`repro.obs.export`).

Instruments are get-or-create: ``registry.counter("x", {"cache": "c"})``
always returns the same object for the same name + labels. A lookup
builds a sorted label key, so hot paths bind the handle once — the
pipelines when their plumbing is compiled, the executor when it is built,
the service when a host is — and call ``inc``/``observe`` on it; only
cold paths re-look an instrument up per call.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

# Upper bucket bounds, in microseconds of virtual time, chosen to resolve
# the engine's per-update / per-operator costs (single probes are ~1-10 µs,
# a nested-loop scan can run to milliseconds). +Inf is implicit.
DEFAULT_TIME_BUCKETS_US: Tuple[float, ...] = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
    250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)


def _label_key(labels: Optional[Mapping[str, str]]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the total."""
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += amount


class Gauge:
    """A value that can move both ways (memory in use, quota state, …)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Move the gauge by ``amount`` (either sign)."""
        self.value += amount


class Histogram:
    """A fixed-bucket histogram (cumulative counts, Prometheus-style).

    ``buckets`` are upper bounds in ascending order; a ``+Inf`` bucket is
    implicit. ``observe`` is one bisect with no allocation, cheap enough
    for per-operator timing when observability is on.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "inf_count",
                 "sum", "count")

    def __init__(
        self,
        name: str,
        labels: LabelKey,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS_US,
    ):
        ordered = tuple(float(b) for b in buckets)
        if list(ordered) != sorted(ordered) or len(set(ordered)) != len(ordered):
            raise ValueError("histogram buckets must be strictly increasing")
        if not ordered:
            raise ValueError("a histogram needs at least one bucket bound")
        self.name = name
        self.labels = labels
        self.buckets = ordered
        self.counts = [0] * len(ordered)
        self.inf_count = 0
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.sum += value
        self.count += 1
        index = bisect_left(self.buckets, value)
        if index == len(self.counts):
            self.inf_count += 1
        else:
            self.counts[index] += 1

    def cumulative_counts(self) -> List[Tuple[float, int]]:
        """(upper bound, cumulative count) pairs, ending with +Inf."""
        running = 0
        result: List[Tuple[float, int]] = []
        for bound, count in zip(self.buckets, self.counts):
            running += count
            result.append((bound, running))
        result.append((float("inf"), running + self.inf_count))
        return result

    @property
    def mean(self) -> float:
        """Mean observed value (0 when empty)."""
        if self.count == 0:
            return 0.0
        return self.sum / self.count


class MetricsRegistry:
    """Holds every named instrument of one observability session."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    # ------------------------------------------------------------------
    # get-or-create
    # ------------------------------------------------------------------
    def counter(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        """The counter for ``name`` + ``labels`` (created on first use)."""
        key = (name, _label_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = Counter(name, key[1])
            self._counters[key] = instrument
        return instrument

    def gauge(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Gauge:
        """The gauge for ``name`` + ``labels`` (created on first use)."""
        key = (name, _label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = Gauge(name, key[1])
            self._gauges[key] = instrument
        return instrument

    def histogram(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS_US,
    ) -> Histogram:
        """The histogram for ``name`` + ``labels`` (created on first use).

        ``buckets`` only applies at creation; later calls reuse the
        existing instrument unchanged.
        """
        key = (name, _label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = Histogram(name, key[1], buckets)
            self._histograms[key] = instrument
        return instrument

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def counters(self) -> List[Counter]:
        """All counters, sorted by (name, labels)."""
        return [self._counters[k] for k in sorted(self._counters)]

    def gauges(self) -> List[Gauge]:
        """All gauges, sorted by (name, labels)."""
        return [self._gauges[k] for k in sorted(self._gauges)]

    def histograms(self) -> List[Histogram]:
        """All histograms, sorted by (name, labels)."""
        return [self._histograms[k] for k in sorted(self._histograms)]

    def value(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Optional[float]:
        """The current value of a counter or gauge, or None if absent."""
        key = (name, _label_key(labels))
        if key in self._counters:
            return self._counters[key].value
        if key in self._gauges:
            return self._gauges[key].value
        return None

    def __len__(self) -> int:
        return (
            len(self._counters) + len(self._gauges) + len(self._histograms)
        )

    # ------------------------------------------------------------------
    # the Metrics façade bridge
    # ------------------------------------------------------------------
    def ingest_metrics(self, metrics) -> None:
        """Publish a :class:`repro.engine.metrics.Metrics` bag here.

        The flat hot-path counters map onto canonically named gauges
        (gauges, not counters: ingestion is idempotent snapshotting, not
        incrementing). Per-cache hit counts become one labelled gauge
        family. Safe to call repeatedly, e.g. once per export.
        """
        for attr, metric_name in METRICS_FACADE_NAMES.items():
            self.gauge(metric_name).set(getattr(metrics, attr))
        self.gauge("repro_cache_hit_rate").set(metrics.hit_rate)
        for cache_name, hits in metrics.per_cache_hits.items():
            self.gauge(
                "repro_cache_hits", {"cache": cache_name}
            ).set(hits)


# Canonical registry names of the legacy Metrics counters: the registry
# "subsumes" Metrics through this mapping (see ingest_metrics).
METRICS_FACADE_NAMES: Dict[str, str] = {
    "updates_processed": "repro_updates_processed_total",
    "outputs_emitted": "repro_outputs_emitted_total",
    "cache_probes": "repro_cache_probes_total",
    "cache_hits": "repro_cache_hits_total",
    "cache_creates": "repro_cache_creates_total",
    "cache_maintenance_calls": "repro_cache_maintenance_calls_total",
    "profiled_tuples": "repro_profiled_tuples_total",
    "reoptimizations": "repro_reoptimizations_total",
    "caches_added": "repro_caches_added_total",
    "caches_dropped": "repro_caches_dropped_total",
}
