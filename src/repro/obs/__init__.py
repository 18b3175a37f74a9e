"""Observability for the A-Caching engine: metrics, traces, decisions.

Three layers, bundled into one :class:`Observability` object carried by
every :class:`~repro.operators.base.ExecContext`:

* :mod:`repro.obs.registry` — named counters/gauges/histograms (the
  superset of the legacy ``Metrics`` bag; Prometheus-style export);
* :mod:`repro.obs.tracer` — a bounded ring buffer of typed events
  stamped with virtual-clock time (off by default, one attribute check
  on hot paths when off);
* :mod:`repro.obs.decisions` — the always-on adaptivity decision log:
  every cache add/drop with the estimates that justified it.

Enabling for a run::

    from repro import obs
    from repro.api import Session

    with obs.session() as active:
        session = Session.adaptive(workload)   # its engine adopts the session
        session.run(arrivals=20_000)
    print(obs.export.observability_to_jsonl(active, session.ctx.metrics))

Engines built *inside* an active session adopt it automatically (the
``ExecContext`` default factory consults :func:`current`), which is how
the CLI's ``--obs-jsonl`` flag instruments experiment code it never
constructs directly.
"""

from __future__ import annotations

import threading as _threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from repro.obs.decisions import DecisionLog, DecisionRecord
from repro.obs.profile import (
    NULL_PROFILER,
    NullSpanProfiler,
    ProfileSnapshot,
    SpanProfiler,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, NullTracer, TraceEvent, Tracer


@dataclass
class Observability:
    """One session's observability surface.

    ``enabled`` gates everything with per-update cost (trace emission,
    per-operator histograms); the decision log stays live regardless
    because decisions are rare and always worth keeping. ``profiler``
    carries its own ``enabled`` flag so wall-clock span profiling can run
    with or without tracing.

    What is on splits in two. *Counters* (probes, hits, creates,
    maintenance calls) are exact: every update bumps them. *Timing
    instrumentation* — span pairs, the per-operator and per-update
    latency histograms, the per-update ``update_processed`` /
    ``cache_probe`` trace events — is taken on one update in
    ``sample_every``, the way the paper's profiler samples tuples with
    probability *p* so that measuring does not eat the throughput it
    measures. The executor draws the sample (:meth:`sample_update`) and
    every site below it reads the one ``timing`` flag. ``sample_every``
    is 1 everywhere except where a caller passes more (the service does,
    so its engines can leave telemetry on).
    """

    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: Union[Tracer, NullTracer] = NULL_TRACER
    decisions: DecisionLog = field(default_factory=DecisionLog)
    enabled: bool = False
    profiler: Union[SpanProfiler, NullSpanProfiler] = NULL_PROFILER
    sample_every: int = 1
    # Is any per-update instrumentation on at all (fixed at construction),
    # and does the update in flight take the timing part of it.
    instrumented: bool = field(init=False)
    timing: bool = field(init=False)

    def __post_init__(self) -> None:
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.instrumented = self.enabled or self.profiler.enabled
        self.timing = self.instrumented
        self._until_timed = 1   # the first update is always timed

    def sample_update(self) -> bool:
        """Start one update: set (and return) whether it is timed."""
        self._until_timed -= 1
        timed = self._until_timed == 0
        if timed:
            self._until_timed = self.sample_every
        self.timing = timed
        return timed

    @classmethod
    def disabled(cls) -> "Observability":
        """The default: no tracing, fresh registry and decision log."""
        return cls()

    @classmethod
    def tracing(
        cls,
        capacity_per_kind: int = 4096,
        decision_capacity: int = 4096,
        profile: bool = False,
        sample_every: int = 1,
    ) -> "Observability":
        """A fully enabled session (live tracer, detailed metrics).

        ``profile=True`` additionally attaches a live
        :class:`~repro.obs.profile.SpanProfiler` recording dual-clock
        spans into folded stacks and latency aggregates.
        ``sample_every=N`` times one update in N (counters stay exact).
        """
        return cls(
            registry=MetricsRegistry(),
            tracer=Tracer(capacity_per_kind=capacity_per_kind),
            decisions=DecisionLog(capacity=decision_capacity),
            enabled=True,
            profiler=SpanProfiler() if profile else NULL_PROFILER,
            sample_every=sample_every,
        )


# The session-scoped override consulted by ExecContext's default factory.
# Thread-local: the coordinated serial backend runs one shard per thread,
# each under its own enabled session, and a module-global would make
# every engine adopt whichever worker activated last. Sessions have
# always been opened in the thread that builds the engines they scope
# (CLI, api.Session, shard workers, the service layer), so thread-local
# visibility is the same visibility with the cross-thread races removed.
_STATE = _threading.local()


def current() -> Optional[Observability]:
    """This thread's active session observability, or None."""
    return getattr(_STATE, "active", None)


def activate(observability: Observability) -> Observability:
    """Make ``observability`` the session default for new ExecContexts."""
    _STATE.active = observability
    return observability


def deactivate() -> None:
    """Clear the session default."""
    _STATE.active = None


@contextmanager
def session(
    observability: Optional[Observability] = None,
) -> Iterator[Observability]:
    """Scope an (enabled, unless given) observability to a ``with`` block."""
    active = (
        observability if observability is not None else Observability.tracing()
    )
    previous = current()
    _STATE.active = active
    try:
        yield active
    finally:
        _STATE.active = previous


def default_observability() -> Observability:
    """ExecContext default: the active session, else a disabled bundle."""
    active = current()
    return active if active is not None else Observability.disabled()


from repro.obs import export  # noqa: E402  (exporters need the types above)

__all__ = [
    "DecisionLog",
    "DecisionRecord",
    "MetricsRegistry",
    "NULL_PROFILER",
    "NULL_TRACER",
    "NullSpanProfiler",
    "NullTracer",
    "Observability",
    "ProfileSnapshot",
    "SpanProfiler",
    "TraceEvent",
    "Tracer",
    "activate",
    "current",
    "deactivate",
    "default_observability",
    "export",
    "session",
]
