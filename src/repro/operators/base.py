"""Shared execution context threaded through operators."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.engine.clock import CostModel, VirtualClock, WallClock
from repro.engine.metrics import Metrics
from repro.obs import Observability, default_observability


class BatchProbeMemo:
    """Join-probe memoization for one micro-batch (``DeltaBatch``).

    A join operator's match set is fully determined by its target
    relation's current window and the constraint set
    ``{(target_position, value), ...}`` its bound predicates impose — the
    index choice and the operator's pipeline are irrelevant. The memo
    therefore maps ``(target, constraint tuple) -> match list`` and is
    shared by every operator in every pipeline, including cache-miss
    segment recomputation and witness-count mini-joins.

    Soundness rests on one rule: the executor calls :meth:`invalidate`
    for a relation the moment its window changes, so a memo hit always
    returns exactly what recomputation against the live windows would.
    Profiled tuples bypass the memo entirely (the profiler measures the
    true cache-free cost of an operator).

    The memo exists only while a batch of size > 1 is in flight; at batch
    size 1 execution is charge-for-charge identical to per-update mode.
    """

    __slots__ = ("_by_target", "hits", "misses")

    def __init__(self) -> None:
        self._by_target: Dict[str, Dict[tuple, List]] = {}
        self.hits = 0
        self.misses = 0

    def get(self, target: str, signature: tuple) -> Optional[List]:
        """The memoized match list, or None if absent (miss)."""
        entries = self._by_target.get(target)
        if entries is None:
            self.misses += 1
            return None
        matches = entries.get(signature)
        if matches is None:
            self.misses += 1
            return None
        self.hits += 1
        return matches

    def put(self, target: str, signature: tuple, matches: List) -> None:
        """Memoize a freshly computed match list."""
        self._by_target.setdefault(target, {})[signature] = matches

    def invalidate(self, target: str) -> None:
        """Drop every entry probing ``target`` (its window changed)."""
        self._by_target.pop(target, None)


@dataclass
class ExecContext:
    """Everything an operator needs besides its inputs.

    Operators charge all work to ``clock`` using the unit costs in
    ``cost_model`` and bump counters on ``metrics``; they otherwise touch
    no global state, which keeps them unit-testable in isolation.

    ``obs`` is the observability surface (registry, tracer, decision
    log). The default is disabled — hot paths pay one ``obs.enabled``
    attribute check — unless an observability session is active
    (:func:`repro.obs.session`), in which case new contexts adopt it.
    """

    clock: Union[VirtualClock, WallClock] = field(default_factory=VirtualClock)
    cost_model: CostModel = field(default_factory=CostModel)
    metrics: Metrics = field(default_factory=Metrics)
    obs: Observability = field(default_factory=default_observability)
    # Set by the executor for the duration of a micro-batch (size > 1);
    # None keeps the per-update hot path completely unchanged.
    probe_memo: Optional[BatchProbeMemo] = None
