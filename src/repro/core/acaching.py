"""The A-Caching controller: Profiler + Re-optimizer + Executor (Figure 4).

This is the main public entry point of the library: build one from a
:class:`~repro.relations.predicates.JoinGraph` (or a workload) and feed it
the update stream; it executes the stream join while adaptively ordering
pipelines (A-Greedy), selecting caches, and allocating memory.

>>> from repro.api import Session
>>> engine = Session.adaptive(workload).plan
>>> for update in workload.updates(100_000):
...     engine.process(update)
>>> engine.throughput()
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.core.memory import MemoryAllocator
from repro.core.profiler import Profiler, ProfilerConfig
from repro.core.wiring import CacheWiring
from repro.errors import ConfigError
from repro.relations.relation import Relation
from repro.faults.resilience import ResilienceConfig, ResilienceController
from repro.core.reoptimizer import Reoptimizer, ReoptimizerConfig
from repro.mjoin.executor import MJoinExecutor
from repro.operators.base import ExecContext
from repro.ordering.agreedy import AGreedyOrderer, OrderingConfig
from repro.relations.predicates import JoinGraph
from repro.streams.events import DeltaBatch, OutputDelta, Update


@dataclass
class ACachingConfig:
    """All tunables in one place; defaults follow Section 7.1.

    ``incremental_reoptimizer`` enables the Section 8 future-work
    extension: local add/drop/swap re-selection with unimportant-statistic
    tracking (see :mod:`repro.core.incremental`).
    """

    profiler: ProfilerConfig = field(default_factory=ProfilerConfig)
    reoptimizer: ReoptimizerConfig = field(default_factory=ReoptimizerConfig)
    ordering: Optional[OrderingConfig] = field(default_factory=OrderingConfig)
    adaptive_ordering: bool = True
    memory_check_every_updates: int = 500
    incremental_reoptimizer: bool = False
    # Graceful degradation (repro.faults): ingress quarantine, load
    # shedding, and the cache coherence auditor. None disables all three.
    resilience: Optional[ResilienceConfig] = None


class ACaching:
    """Adaptive caching for one continuous multiway join query."""

    def __init__(
        self,
        graph: JoinGraph,
        orders: Optional[Dict[str, Sequence[str]]] = None,
        indexed_attributes: Optional[Dict[str, Iterable[str]]] = None,
        config: Optional[ACachingConfig] = None,
        ctx: Optional[ExecContext] = None,
        relations: Optional[Dict[str, Relation]] = None,
        wiring_factory: Optional[
            Callable[[MJoinExecutor], CacheWiring]
        ] = None,
        allocator: Optional[MemoryAllocator] = None,
    ):
        self.config = config if config is not None else ACachingConfig()
        self.executor = MJoinExecutor(
            graph,
            orders=orders,
            indexed_attributes=indexed_attributes,
            ctx=ctx,
            relations=relations,
        )
        self.profiler = Profiler(self.executor, self.config.profiler)
        if self.config.incremental_reoptimizer:
            if wiring_factory is not None or allocator is not None:
                raise ConfigError(
                    "the incremental re-optimizer does not support "
                    "multi-query wiring/allocator injection"
                )
            from repro.core.incremental import IncrementalReoptimizer

            self.reoptimizer: Reoptimizer = IncrementalReoptimizer(
                self.executor, self.profiler, self.config.reoptimizer
            )
        else:
            self.reoptimizer = Reoptimizer(
                self.executor,
                self.profiler,
                self.config.reoptimizer,
                wiring=(
                    wiring_factory(self.executor)
                    if wiring_factory is not None
                    else None
                ),
                allocator=allocator,
            )
        self.orderer: Optional[AGreedyOrderer] = None
        if self.config.adaptive_ordering and self.config.ordering is not None:
            self.orderer = AGreedyOrderer(self.executor, self.config.ordering)
        self.resilience: Optional[ResilienceController] = None
        if self.config.resilience is not None:
            self.resilience = ResilienceController(
                self.executor, self.config.resilience
            )
            self.executor.resilience = self.resilience
            # The auditor must see the live wiring, and its detach/attach
            # must keep the re-optimizer's candidate states consistent.
            self.resilience.bind_wiring(
                self.reoptimizer.wiring, state_listener=self.reoptimizer
            )
        self._updates_at_memory_check = 0
        self._hooks_due_now()
        self.reoptimizer.on_schedule_change = self._hooks_due_now

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    # The adaptivity hooks are periodic (§4.5): each acts only once an
    # update count or a clock reading passes its deadline. _due_updates /
    # _due_us hold the earliest of those deadlines, so an update before
    # them skips the hooks; running them early is harmless because every
    # hook re-checks its own condition (DESIGN.md §7).
    def process(
        self, update: Update, apply_window: bool = True
    ) -> List[OutputDelta]:
        """Process one update and run the adaptive machinery hooks when due.

        ``apply_window=False`` defers the window mutation to the caller
        (see :meth:`MJoinExecutor.process`); the multi-query engine uses it
        to apply each shared-stream update exactly once.
        """
        outputs = self.executor.process(update, apply_window=apply_window)
        ctx = self.executor.ctx
        if (
            ctx.metrics.updates_processed >= self._due_updates
            or ctx.clock.now_us >= self._due_us
        ):
            self._adaptivity_hooks()
        return outputs

    def process_batch(self, batch: DeltaBatch) -> List[List[OutputDelta]]:
        """Process one micro-batch; returns per-update delta lists.

        Join results and window contents are identical to per-update
        execution (see :meth:`MJoinExecutor.process_batch`). The adaptive
        machinery — reordering, re-optimization, memory enforcement — is
        evaluated once per batch boundary instead of once per update; the
        profiler still samples individual updates inside the batch. Which
        caches and orders are chosen may therefore differ between batch
        sizes, but those choices never affect the emitted deltas.
        """
        per_update = self.executor.process_batch(batch)
        ctx = self.executor.ctx
        if (
            ctx.metrics.updates_processed >= self._due_updates
            or ctx.clock.now_us >= self._due_us
        ):
            self._adaptivity_hooks()
        return per_update

    def _adaptivity_hooks(self) -> None:
        """Reordering, re-optimization and memory enforcement, each behind
        its own exact condition; then the next due point."""
        if self.orderer is not None:
            for owner in self.orderer.maybe_reorder():
                self.reoptimizer.on_reorder(owner)
        self.reoptimizer.after_update()
        metrics = self.executor.ctx.metrics
        budgeted = self.reoptimizer.allocator.budget_bytes is not None
        if (
            budgeted
            and metrics.updates_processed - self._updates_at_memory_check
            >= self.config.memory_check_every_updates
        ):
            self._updates_at_memory_check = metrics.updates_processed
            self.reoptimizer.enforce_memory()
        due_updates, self._due_us = self.reoptimizer.next_due()
        if self.orderer is not None:
            due_updates = min(due_updates, self.orderer.next_due())
        if budgeted:
            due_updates = min(
                due_updates,
                self._updates_at_memory_check
                + self.config.memory_check_every_updates,
            )
        self._due_updates = due_updates

    def _hooks_due_now(self) -> None:
        """Run the hooks after the next update, whatever their deadlines."""
        self._due_updates = 0
        self._due_us = -math.inf

    # The due point is derived from state that is pickled, so it is not:
    # a restored engine runs its hooks on its first update.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_due_updates"], state["_due_us"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._hooks_due_now()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def ctx(self):
        """The execution context (clock, cost model, metrics)."""
        return self.executor.ctx

    def throughput(self) -> float:
        """Updates per second of (virtual) time, all overheads included."""
        ctx = self.executor.ctx
        return ctx.metrics.throughput(ctx.clock.now_seconds)

    def used_caches(self) -> List[str]:
        """Candidate ids of the caches currently probed by pipelines."""
        return [
            c.candidate_id for c in self.reoptimizer.wiring.used_candidates()
        ]

    def candidate_states(self) -> Dict[str, str]:
        """Candidate id -> used/profiled/unused (Section 4.5 states)."""
        return {
            cid: state.value for cid, state in self.reoptimizer.states.items()
        }

    def memory_in_use(self) -> int:
        """Bytes held by all wired cache stores (shared counted once)."""
        return self.reoptimizer.wiring.memory_bytes()
