"""Virtual cost clock and the engine's operation cost model.

The paper reports "the maximum load the system can handle, in terms of the
number of tuples processed per second" on the C++ STREAM prototype. A pure
Python reproduction measured by wall clock would be dominated by interpreter
overhead, so — as recorded in DESIGN.md — every primitive operation is
charged to a **virtual clock** instead. Unit costs are expressed in
microseconds and calibrated so absolute rates land in the paper's
10^4-tuples/sec range; relative plan costs, crossover points, and adaptivity
behavior are functions of operation *counts* and therefore transfer.

All overheads the paper includes in its numbers (profiling, Bloom-filter
hashing, re-optimization) are charged to the same clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class CostModel:
    """Per-operation costs in microseconds of virtual time.

    The defaults are calibrated (see ``tests/test_clock.py``) so that a
    three-way indexed MJoin processes on the order of 50k updates per
    virtual second, matching the scale of the paper's Figures 6-13.
    """

    index_probe: float = 5.0       # one hash-index lookup
    per_match: float = 1.5         # retrieve + concatenate one matching row
    scan_tuple: float = 0.15       # examine one row during a nested-loop scan
    predicate_eval: float = 0.3    # verify one residual predicate on one row
    relation_update: float = 1.5   # apply one insert/delete to a window
    index_update: float = 0.5      # maintain one hash index for that update
    output_emit: float = 0.5       # emit one result delta

    cache_probe: float = 1.2       # hash the key + bucket lookup
    cache_hit_tuple: float = 0.5   # emit one composite from a cache hit
    cache_create: float = 2.5      # create one cache entry
    cache_store_tuple: float = 0.5 # store one composite reference in an entry
    cache_maintain_check: float = 0.4  # maintenance key hash + bucket check
    cache_maintain: float = 1.2    # applying one maintenance insert/delete

    # Micro-batch execution only (batch size > 1): reusing a memoized
    # join-probe result is one hash of the already-assembled constraint
    # tuple plus a bucket lookup — cheaper than re-probing the index and
    # re-verifying residual predicates.
    batch_memo_hit: float = 0.6

    bloom_hash: float = 0.15       # hash one profiled tuple into a Bloom filter
    profile_tuple: float = 0.4     # bookkeeping per profiled tuple per operator

    reoptimize_base: float = 200.0     # fixed cost of one re-optimization
    reoptimize_candidate: float = 5.0  # marginal cost per candidate examined

    # Durability (repro.recovery): WAL appends are charged per update at
    # ingress; the fsync cost is paid once per fsync batch (divide by the
    # configured ``fsync_every``). Checkpoints charge a fixed base plus a
    # per-row cost over every live window row captured in the snapshot.
    wal_append: float = 0.4        # serialize + buffer one update record
    wal_fsync: float = 25.0        # flush + fsync one WAL batch
    checkpoint_base: float = 150.0  # open/serialize/rename one snapshot
    checkpoint_row: float = 0.05    # capture one live window row


class VirtualClock:
    """Accumulates charged microseconds; ``now`` is virtual time."""

    __slots__ = ("_now_us",)

    def __init__(self) -> None:
        self._now_us = 0.0

    def charge(self, microseconds: float) -> None:
        """Advance virtual time by ``microseconds``."""
        self._now_us += microseconds

    @property
    def now_us(self) -> float:
        """Current time in microseconds."""
        return self._now_us

    @property
    def now_seconds(self) -> float:
        """Current time in seconds."""
        return self._now_us / 1e6

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VirtualClock({self._now_us:.1f}us)"


class WallClock:
    """A clock that reads real elapsed time and ignores charges.

    Lets the same engine report genuine wall-clock throughput when the
    caller prefers it (``StreamJoinEngine(..., wall_clock=True)``).
    """

    __slots__ = ("_start",)

    def __init__(self) -> None:
        self._start = time.perf_counter()

    def charge(self, microseconds: float) -> None:
        """Deliberately a no-op: real time passes on its own.

        A wall clock's ``now_us`` advances with ``time.perf_counter``, so
        charging modeled costs would double-count work; the shared
        ``charge`` interface is kept only so operators can stay agnostic
        of which clock they run under.
        """
        return None

    @property
    def now_us(self) -> float:
        """Current time in microseconds."""
        return (time.perf_counter() - self._start) * 1e6

    @property
    def now_seconds(self) -> float:
        """Current time in seconds."""
        return time.perf_counter() - self._start


@dataclass
class Stopwatch:
    """Measures virtual-time spans: used by the profiler for ``τj``."""

    clock: VirtualClock
    started_at: float = field(default=0.0)

    def start(self) -> None:
        """Mark the current instant as the span's origin."""
        self.started_at = self.clock.now_us

    def elapsed_us(self) -> float:
        """Microseconds since :meth:`start`."""
        return self.clock.now_us - self.started_at
