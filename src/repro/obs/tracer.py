"""Structured tracing: a bounded ring buffer of typed engine events.

The adaptive machinery is only debuggable if the *sequence* of what
happened — updates processed, caches probed, caches attached and dropped,
re-optimizations, profiler samples, memory pressure — can be replayed
after the fact. Every event is stamped with **virtual-clock time** so a
trace lines up exactly with the throughput curves the engine reports.

Tracing is off by default and must cost (almost) nothing when off: hot
paths guard every emission with one attribute check
(``if obs.enabled: ...`` / ``if tracer.enabled: ...``) against the shared
:data:`NULL_TRACER` singleton.

The buffer is bounded **per event kind**: high-frequency kinds
(``update_processed``, ``cache_probe``) wrapping around cannot evict the
rare, precious ones (``reoptimize``, ``memory_pressure``), so a long run's
trace always retains its adaptivity story.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Mapping, Tuple

# The typed event vocabulary. Emitting an unknown kind is allowed (the
# tracer is schema-light by design) but everything the engine emits is
# listed here so exporters and docs have one source of truth.
EVENT_KINDS: Tuple[str, ...] = (
    "update_processed",
    "cache_probe",
    "cache_attach",
    "cache_detach",
    "reoptimize",
    "profile_sample",
    "memory_pressure",
    "decision",
)

DEFAULT_CAPACITY_PER_KIND = 4096


@dataclass(frozen=True)
class TraceEvent:
    """One traced engine event.

    ``seq`` is a tracer-wide monotonically increasing sequence number
    (total order across kinds); ``t_us`` is the virtual-clock timestamp at
    emission.
    """

    seq: int
    kind: str
    t_us: float
    data: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """Flat dict form used by the JSONL exporter."""
        record: Dict[str, object] = {
            "seq": self.seq,
            "kind": self.kind,
            "t_us": self.t_us,
        }
        record.update(self.data)
        return record


class NullTracer:
    """The default no-op tracer: hot paths pay one attribute check.

    All instances share ``enabled = False``; :data:`NULL_TRACER` is the
    canonical singleton handed to every :class:`ExecContext` unless the
    caller opts into tracing.
    """

    __slots__ = ()

    enabled = False

    def emit(self, kind: str, t_us: float, **data: object) -> None:
        """Discard the event."""
        return None

    def events(self, kind=None) -> List[TraceEvent]:
        """A null tracer never holds events."""
        return []

    def __len__(self) -> int:
        return 0


NULL_TRACER = NullTracer()


class Tracer:
    """A live tracer: per-kind bounded ring buffers of typed events.

    ``capacity_per_kind`` bounds each kind's ring independently; once a
    ring is full its oldest events are dropped (counted in
    :attr:`dropped`). Memory is therefore bounded by
    ``capacity × distinct kinds`` regardless of run length.
    """

    enabled = True

    def __init__(self, capacity_per_kind: int = DEFAULT_CAPACITY_PER_KIND):
        if capacity_per_kind <= 0:
            raise ValueError("tracer capacity must be positive")
        self.capacity_per_kind = capacity_per_kind
        self._rings: Dict[str, Deque[TraceEvent]] = {}
        self._seq = 0
        self.dropped: Dict[str, int] = {}

    def emit(self, kind: str, t_us: float, **data: object) -> TraceEvent:
        """Record one event; returns it (handy in tests)."""
        ring = self._rings.get(kind)
        if ring is None:
            ring = deque(maxlen=self.capacity_per_kind)
            self._rings[kind] = ring
        if len(ring) == self.capacity_per_kind:
            self.dropped[kind] = self.dropped.get(kind, 0) + 1
        self._seq += 1
        event = TraceEvent(seq=self._seq, kind=kind, t_us=t_us, data=data)
        ring.append(event)
        return event

    def events(self, kind: str = None) -> List[TraceEvent]:
        """Retained events, in emission order; optionally one kind only."""
        if kind is not None:
            return list(self._rings.get(kind, ()))
        merged: List[TraceEvent] = []
        for ring in self._rings.values():
            merged.extend(ring)
        merged.sort(key=lambda e: e.seq)
        return merged

    def kinds(self) -> List[str]:
        """Kinds with at least one retained event."""
        return sorted(k for k, ring in self._rings.items() if ring)

    def dropped_total(self) -> int:
        """Events lost to ring wrap-around, across all kinds."""
        return sum(self.dropped.values())

    def clear(self) -> None:
        """Drop all retained events (sequence numbers keep increasing)."""
        self._rings.clear()
        self.dropped.clear()

    def __getstate__(self) -> dict:
        # The rings are telemetry, not engine state: a pickled tracer (an
        # engine checkpoint carries one) comes back empty, its sequence
        # numbers still increasing.
        return dict(self.__dict__, _rings={}, dropped={})

    def __len__(self) -> int:
        return sum(len(ring) for ring in self._rings.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tracer({len(self)} events, {len(self._rings)} kinds, "
            f"dropped={self.dropped_total()})"
        )
