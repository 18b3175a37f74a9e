"""Run helpers: static cached plans and time-series measurement.

The adaptivity experiments (Figures 12 and 13) need two things beyond the
plan runners in :mod:`repro.planner.enumeration`: fixed plans with a
hand-picked cache set (the static comparison curves), and periodic
throughput sampling along a run (the time axis).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.candidates import enumerate_candidates
from repro.core.wiring import CacheWiring
from repro.engine.drive import Driver
from repro.errors import PlanError
from repro.faults.resilience import ResilienceConfig, ResilienceController
from repro.mjoin.executor import MJoinExecutor
from repro.streams.events import DeltaBatch, Update
from repro.streams.workloads import Workload


@dataclass
class StaticPlan:
    """A fixed MJoin-with-caches plan (no adaptivity at all)."""

    executor: MJoinExecutor
    wiring: CacheWiring
    used: Tuple[str, ...]
    resilience: Optional[ResilienceController] = None

    def process(self, update: Update):
        """Process one update through the fixed plan."""
        return self.executor.process(update)

    def process_batch(self, batch: DeltaBatch):
        """Process one micro-batch; returns per-update delta lists."""
        return self.executor.process_batch(batch)

    @property
    def ctx(self):
        """The execution context (clock, cost model, metrics)."""
        return self.executor.ctx

    def memory_in_use(self) -> int:
        """Bytes held by the wired cache stores (shared counted once)."""
        return self.wiring.memory_bytes()


def _build_static_plan(
    workload: Workload,
    orders: Optional[Dict[str, Sequence[str]]] = None,
    candidate_ids: Sequence[str] = (),
    global_quota: int = 8,
    buckets: int = 512,
    resilience: Optional[ResilienceConfig] = None,
) -> StaticPlan:
    """Build an executor with exactly the named candidate caches wired in.

    Candidate ids follow :mod:`repro.core.candidates` (``"T:0-1p"``,
    ``"R:0-1g"``, …); list them via :func:`available_candidates`. This is
    the construction core behind :func:`repro.api.build_static_plan` and
    :meth:`repro.api.Session.static`; build plans through those.
    """
    executor = MJoinExecutor(
        workload.graph,
        orders=orders,
        indexed_attributes=workload.indexed_attributes,
    )
    candidates = {
        c.candidate_id: c
        for c in enumerate_candidates(
            workload.graph, executor.orders(), global_quota=global_quota
        )
    }
    wiring = CacheWiring(executor)
    chosen = []
    for candidate_id in candidate_ids:
        if candidate_id not in candidates:
            raise PlanError(
                f"unknown candidate {candidate_id!r}; available: "
                f"{sorted(candidates)}"
            )
        candidate = candidates[candidate_id]
        for other in chosen:
            if candidate.conflicts_with(other):
                raise PlanError(
                    f"candidates conflict: {candidate} / {other}"
                )
        chosen.append(candidate)
        wiring.attach(candidate, buckets=buckets)
    controller = None
    if resilience is not None:
        controller = ResilienceController(executor, resilience)
        executor.resilience = controller
        controller.bind_wiring(wiring)  # no re-optimizer on a static plan
    return StaticPlan(
        executor=executor,
        wiring=wiring,
        used=tuple(candidate_ids),
        resilience=controller,
    )


def available_candidates(
    workload: Workload,
    orders: Optional[Dict[str, Sequence[str]]] = None,
    global_quota: int = 8,
) -> List[str]:
    """The candidate-cache ids available under the given orderings."""
    executor = MJoinExecutor(workload.graph, orders=orders)
    return [
        c.candidate_id
        for c in enumerate_candidates(
            workload.graph, executor.orders(), global_quota=global_quota
        )
    ]


@dataclass
class SeriesPoint:
    """One throughput sample along a run."""

    x: int                       # domain-specific progress (e.g. ∆S tuples)
    updates: int                 # total updates processed so far
    window_throughput: float     # updates/sec over the last sample window
    cumulative_throughput: float
    used_caches: Tuple[str, ...] = ()
    memory_bytes: int = 0
    hit_rate: float = 0.0        # cache hits / probes over the window
    decisions: Tuple = ()        # DecisionRecords that fired in the window
    degraded: bool = False       # overload shedding active / shed in window
    shed_updates: int = 0        # updates shed during the window (all shards)
    shard_count: int = 1         # shards behind this sample (1 = serial)


def run_with_series(
    plan,
    updates: Iterable[Update],
    sample_every_updates: int = 2000,
    x_of: Optional[Callable[[Update], bool]] = None,
    used_caches: Optional[Callable[[], Sequence[str]]] = None,
    memory: Optional[Callable[[], int]] = None,
    batch_size: int = 1,
) -> List[SeriesPoint]:
    """Drive ``plan.process`` over ``updates``, sampling throughput.

    ``x_of`` marks which updates advance the x-axis (Figure 12 counts
    arriving ∆S insertions); by default every update counts.

    Each point also carries the window's cache hit rate and the
    adaptivity :class:`~repro.obs.decisions.DecisionRecord`s that fired
    inside it, so plots can annotate "cache X added here" markers.

    With ``batch_size > 1`` updates are driven through
    ``plan.process_batch`` in consecutive micro-batches (results are
    identical; sampling windows close at batch boundaries). A trailing
    partial window is always flushed as a final point so short runs and
    non-divisible ``sample_every_updates`` aren't truncated.
    """
    series: List[SeriesPoint] = []
    ctx = plan.ctx
    resilience = getattr(plan, "resilience", None)
    x = 0

    def window_start() -> dict:
        return {
            "updates": ctx.metrics.updates_processed,
            "time": ctx.clock.now_seconds,
            "probes": ctx.metrics.cache_probes,
            "hits": ctx.metrics.cache_hits,
            "seq": ctx.obs.decisions.last_seq,
            "shed": resilience.shed_total if resilience else 0,
        }

    state = window_start()

    def emit_point() -> None:
        nonlocal state
        processed = ctx.metrics.updates_processed
        now = ctx.clock.now_seconds
        span = max(1e-12, now - state["time"])
        probes = ctx.metrics.cache_probes - state["probes"]
        hits = ctx.metrics.cache_hits - state["hits"]
        decisions = tuple(ctx.obs.decisions.since(state["seq"]))
        shed_in_window = (
            resilience.shed_total - state["shed"] if resilience else 0
        )
        series.append(
            SeriesPoint(
                x=x,
                updates=processed,
                window_throughput=(processed - state["updates"]) / span,
                cumulative_throughput=ctx.metrics.throughput(now),
                used_caches=tuple(used_caches()) if used_caches else (),
                memory_bytes=memory() if memory else 0,
                hit_rate=hits / probes if probes else 0.0,
                decisions=decisions,
                degraded=bool(
                    resilience
                    and (resilience.degraded or shed_in_window)
                ),
                shed_updates=shed_in_window,
                shard_count=1,
            )
        )
        state = window_start()

    driver = Driver(plan, batch_size=batch_size)
    for update in updates:
        driver.offer(update)
        if x_of is None or x_of(update):
            x += 1
        # Only a safe point moves updates_processed, so a sample is taken
        # at an update (or flushed-batch) boundary.
        if (
            ctx.metrics.updates_processed - state["updates"]
            >= sample_every_updates
        ):
            emit_point()
    driver.flush()
    # Flush the trailing partial window (if any updates landed in it).
    if ctx.metrics.updates_processed > state["updates"]:
        emit_point()
    return series
