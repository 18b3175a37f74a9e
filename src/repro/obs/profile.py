"""A hierarchical dual-clock span profiler for real wall-time attribution.

The virtual cost clock reports *modeled* numbers; this module measures
where the real time goes. A span is one region of
the engine's hierarchy — ``run`` → ``update:∆R``/``batch`` → operator →
cache probe/store — and each span records **both clocks**:

* wall time via :func:`time.perf_counter_ns` (inclusive and self, i.e.
  minus enclosed child spans), and
* virtual-clock cost, passed in by the instrumentation site (the same
  ``clock.now_us`` deltas the cost model charges).

Aggregation is allocation-light: self times accumulate into a folded
call-path table (the flamegraph ``a;b;c self_ns`` format) and per-name
:class:`SpanAggregate` totals with log2 wall-latency buckets, from which
p50/p95/p99 are read without storing observations.

The disabled path is a single attribute check against the slotted
:data:`NULL_PROFILER` singleton — the same pattern as ``NULL_TRACER``;
its cost is inside every wall-clock reading of the benchmark ledger.
"""

from __future__ import annotations

import marshal
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

# Log2 wall-latency buckets: observation ns with bit_length i lands in
# bucket i, i.e. bucket i covers [2^(i-1), 2^i). 64 buckets span past
# any representable perf_counter_ns delta.
WALL_BUCKET_COUNT = 64

# The synthetic "file" pstats exports attribute span rows to.
PSTATS_FILE = "~repro-span"


class NullSpanProfiler:
    """The disabled profiler: ``enabled`` is False, methods are no-ops.

    Hot paths guard with one attribute check (``if prof.enabled:``); the
    slotted singleton guarantees no per-span allocation can sneak in.
    """

    __slots__ = ()
    enabled = False

    def begin(self, name: str, t_us: float = 0.0) -> None:
        return None

    def end(self, t_us: float = 0.0) -> None:
        return None

    @contextmanager
    def span(self, name: str, clock=None) -> Iterator[None]:
        yield


NULL_PROFILER = NullSpanProfiler()


class SpanAggregate:
    """Totals + log2 latency buckets for every span sharing one name."""

    __slots__ = ("name", "count", "wall_ns", "self_ns", "virtual_us",
                 "bucket_counts")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.wall_ns = 0          # inclusive wall time
        self.self_ns = 0          # wall time minus child spans
        self.virtual_us = 0.0     # inclusive virtual-clock cost
        self.bucket_counts = [0] * WALL_BUCKET_COUNT

    def observe(self, wall_ns: int, self_ns: int, virtual_us: float) -> None:
        """Fold one finished span into the aggregate."""
        self.count += 1
        self.wall_ns += wall_ns
        self.self_ns += self_ns
        self.virtual_us += virtual_us
        index = wall_ns.bit_length()
        if index >= WALL_BUCKET_COUNT:
            index = WALL_BUCKET_COUNT - 1
        self.bucket_counts[index] += 1

    def quantile_ns(self, q: float) -> float:
        """Approximate inclusive-wall quantile (bucket midpoint), in ns."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0
        for index, count in enumerate(self.bucket_counts):
            running += count
            if running >= target:
                if index == 0:
                    return 0.0
                # Midpoint of [2^(index-1), 2^index).
                return 1.5 * (1 << (index - 1))
        return 1.5 * (1 << (WALL_BUCKET_COUNT - 1))  # pragma: no cover

    def merge(self, other: "SpanAggregate") -> None:
        """Fold another aggregate of the same name into this one."""
        self.count += other.count
        self.wall_ns += other.wall_ns
        self.self_ns += other.self_ns
        self.virtual_us += other.virtual_us
        for index, count in enumerate(other.bucket_counts):
            self.bucket_counts[index] += count

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "count": self.count,
            "wall_ns": self.wall_ns,
            "self_ns": self.self_ns,
            "virtual_us": self.virtual_us,
            "bucket_counts": list(self.bucket_counts),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpanAggregate":
        aggregate = cls(data["name"])
        aggregate.count = data["count"]
        aggregate.wall_ns = data["wall_ns"]
        aggregate.self_ns = data["self_ns"]
        aggregate.virtual_us = data["virtual_us"]
        buckets = list(data["bucket_counts"])
        buckets += [0] * (WALL_BUCKET_COUNT - len(buckets))
        aggregate.bucket_counts = buckets[:WALL_BUCKET_COUNT]
        return aggregate


@dataclass
class ProfileSnapshot:
    """A profiler's state as plain data (picklable across processes).

    ``folded`` maps semicolon-joined span paths to accumulated *self*
    wall ns (exactly the flamegraph folded-stack format once rendered);
    ``spans`` maps span name to a :class:`SpanAggregate` dict.
    """

    folded: Dict[str, int] = field(default_factory=dict)
    spans: Dict[str, dict] = field(default_factory=dict)
    crossings: int = 0

    def folded_lines(self) -> List[str]:
        """``path self_ns`` lines, sorted by path, zero rows dropped."""
        return [
            f"{path} {value}"
            for path, value in sorted(self.folded.items())
            if value > 0
        ]

    def aggregates(self) -> Dict[str, SpanAggregate]:
        """The spans table rehydrated into SpanAggregate objects."""
        return {
            name: SpanAggregate.from_dict(data)
            for name, data in self.spans.items()
        }

    def root_self_ns(self, root: str = "run") -> int:
        """Total self wall ns under (and including) the ``root`` span.

        Self times partition inclusive time, so this equals the root
        span's inclusive wall time — the number the folded file must
        account ≥95% of the measured run wall time with.
        """
        prefix = root + ";"
        return sum(
            value
            for path, value in self.folded.items()
            if path == root or path.startswith(prefix)
        )

    @classmethod
    def merged(
        cls,
        snapshots: List["ProfileSnapshot"],
        prefixes: Optional[List[str]] = None,
    ) -> "ProfileSnapshot":
        """Combine snapshots, optionally prefixing each one's paths.

        With ``prefixes`` (e.g. ``["shard 0", "shard 1", ...]``) the
        folded stacks stay distinguishable per shard in one flamegraph;
        the per-name aggregates merge globally either way.
        """
        merged = cls()
        aggregates: Dict[str, SpanAggregate] = {}
        for index, snapshot in enumerate(snapshots):
            prefix = prefixes[index] if prefixes else None
            for path, value in snapshot.folded.items():
                key = f"{prefix};{path}" if prefix else path
                merged.folded[key] = merged.folded.get(key, 0) + value
            for name, data in snapshot.spans.items():
                incoming = SpanAggregate.from_dict(data)
                existing = aggregates.get(name)
                if existing is None:
                    aggregates[name] = incoming
                else:
                    existing.merge(incoming)
            merged.crossings += snapshot.crossings
        merged.spans = {
            name: aggregate.to_dict()
            for name, aggregate in aggregates.items()
        }
        return merged


class SpanProfiler:
    """The live profiler: an explicit span stack plus fold-on-end tables.

    ``begin``/``end`` take the *virtual* clock reading from the caller
    (instrumentation sites already hold ``ctx.clock``); wall time is read
    here via ``perf_counter_ns``. Spans must nest; ``end`` closes the
    most recent open span.
    """

    __slots__ = ("_stack", "_folded", "_aggregates", "crossings")

    enabled = True

    def __init__(self) -> None:
        # Stack frames: [path tuple, start wall ns, start virtual us,
        # accumulated child wall ns].
        self._stack: List[list] = []
        self._folded: Dict[Tuple[str, ...], int] = {}
        self._aggregates: Dict[str, SpanAggregate] = {}
        self.crossings = 0

    def begin(self, name: str, t_us: float = 0.0) -> None:
        """Open a span named ``name`` at virtual time ``t_us``."""
        stack = self._stack
        path = stack[-1][0] + (name,) if stack else (name,)
        stack.append([path, time.perf_counter_ns(), t_us, 0])

    def end(self, t_us: float = 0.0) -> None:
        """Close the innermost open span at virtual time ``t_us``."""
        stack = self._stack
        if not stack:
            return
        path, start_ns, start_us, child_ns = stack.pop()
        elapsed = time.perf_counter_ns() - start_ns
        if stack:
            stack[-1][3] += elapsed
        self_ns = elapsed - child_ns
        if self_ns < 0:
            self_ns = 0
        self._folded[path] = self._folded.get(path, 0) + self_ns
        name = path[-1]
        aggregate = self._aggregates.get(name)
        if aggregate is None:
            aggregate = self._aggregates[name] = SpanAggregate(name)
        aggregate.observe(elapsed, self_ns, t_us - start_us)
        self.crossings += 1

    @contextmanager
    def span(self, name: str, clock=None) -> Iterator[None]:
        """Scope a span to a ``with`` block (dual-clocked via ``clock``)."""
        self.begin(name, clock.now_us if clock is not None else 0.0)
        try:
            yield
        finally:
            self.end(clock.now_us if clock is not None else 0.0)

    @property
    def depth(self) -> int:
        """Number of currently open spans."""
        return len(self._stack)

    def __reduce__(self):
        # Span tables are telemetry, not engine state: a pickled profiler
        # (an engine checkpoint carries one) comes back empty.
        return (SpanProfiler, ())

    def snapshot(self) -> ProfileSnapshot:
        """Freeze the folded table + aggregates into plain data."""
        return ProfileSnapshot(
            folded={
                ";".join(path): value
                for path, value in self._folded.items()
            },
            spans={
                name: aggregate.to_dict()
                for name, aggregate in self._aggregates.items()
            },
            crossings=self.crossings,
        )


# ----------------------------------------------------------------------
# exports
# ----------------------------------------------------------------------
def write_folded(path: str, snapshot: ProfileSnapshot) -> int:
    """Write the folded-stack file (``inferno``/``flamegraph.pl`` input).

    Returns the number of stack lines written.
    """
    lines = snapshot.folded_lines()
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")
    return len(lines)


def snapshot_to_pstats_bytes(snapshot: ProfileSnapshot) -> bytes:
    """Render span aggregates as a marshalled pstats table.

    Each span name becomes one pseudo-function keyed
    ``(~repro-span, 0, name)`` with (calls, self seconds, inclusive
    seconds); caller edges are derived from the folded paths so
    ``pstats.Stats(...).print_callers()`` shows the span hierarchy.
    """
    # parent name -> child name -> accumulated child self seconds
    edges: Dict[str, Dict[str, float]] = {}
    for path, self_ns in snapshot.folded.items():
        frames = path.split(";")
        if len(frames) >= 2:
            children = edges.setdefault(frames[-2], {})
            children[frames[-1]] = (
                children.get(frames[-1], 0.0) + self_ns / 1e9
            )
    table: Dict[tuple, tuple] = {}
    for name, data in snapshot.spans.items():
        aggregate = SpanAggregate.from_dict(data)
        callers = {}
        for parent, children in edges.items():
            if name in children and parent in snapshot.spans:
                callers[(PSTATS_FILE, 0, parent)] = (
                    0, 0, 0.0, children[name]
                )
        table[(PSTATS_FILE, 0, name)] = (
            aggregate.count,
            aggregate.count,
            aggregate.self_ns / 1e9,
            aggregate.wall_ns / 1e9,
            callers,
        )
    return marshal.dumps(table)


def write_pstats(path: str, snapshot: ProfileSnapshot) -> None:
    """Write a ``pstats``-loadable profile dump to ``path``."""
    with open(path, "wb") as handle:
        handle.write(snapshot_to_pstats_bytes(snapshot))
