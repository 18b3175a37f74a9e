"""Shared-engine hosting: every registered query on one MultiQueryEngine.

With ``ServiceConfig.shared_engine`` the service re-hosts ``register``/
``unregister`` on a single :class:`~repro.multi.engine.MultiQueryEngine`:
relation name *is* stream identity, so an arrival ingested through any
member query advances the one shared window for that relation and is
processed by every member that joins it. Per-tenant admission stays per
member query (one token bucket per tenant per query, exactly as in
isolated hosting); backpressure moves to the group, because one ingress
queue and one worker feed the shared engine in global seq order.

Members duck-type the :class:`~repro.service.server.QueryHost` surface
the HTTP layer touches (``try_ingest``, ``results_since``, ``status``,
``subscribers``, ``drain``, ``kill``, ``plan``, ``queue``, ``tiers``),
so every existing route — ingest, results, status, subscribe, drain,
metrics — works unchanged against a shared group, and one new route
(``DELETE /v1/queries/{name}``) removes a member at an update boundary,
releasing only the cache bytes no surviving member references.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.multi.engine import MultiQueryEngine
from repro.obs.decisions import DecisionLog, DRAIN
from repro.service.admission import AdmissionController
from repro.service.backpressure import (
    DegradationController,
    IngressQueue,
    TIER_NAMES,
    TIER_PAUSE_SUBSCRIPTIONS,
)
from repro.service.config import ServiceConfig
from repro.service.deltas import DeltaFrame, DeltaLog, jsonable_delta
from repro.streams.events import Update


class _MemberWindows:
    """The slice of the shared windows one member query joins.

    Exposes only ``sizes`` — what the ingest validator consults — scoped
    to the member's own relations; the actual window state lives once in
    the group.
    """

    def __init__(self, group: "SharedQueryGroup", relations: Tuple[str, ...]):
        self._group = group
        self._relations = relations

    @property
    def sizes(self) -> Dict[str, int]:
        return {
            name: self._group.windows.sizes[name]
            for name in self._relations
        }

    def relations(self) -> Tuple[str, ...]:
        return tuple(sorted(self._relations))


class SharedQueryMember:
    """One query hosted on the shared engine (QueryHost duck type)."""

    def __init__(
        self,
        group: "SharedQueryGroup",
        name: str,
        spec: dict,
        schemas: Dict[str, List[str]],
        relations: Tuple[str, ...],
    ):
        self.group = group
        self.name = name
        self.spec = dict(spec)
        self.schemas = schemas
        self.windows = _MemberWindows(group, relations)
        self.relations = relations
        self.admission = AdmissionController(
            group.config.tenant_rate,
            group.config.tenant_burst,
            degraded_rate_factor=group.config.degraded_rate_factor,
        )
        self.delta_log = DeltaLog()
        self.delta_trimmed = 0
        self.deltas_shed = 0
        self.acked_seq = -1
        self.subscribers: List = []
        # Instruments bound once; the per-batch path only bumps them.
        self._ingest_counter = group.registry.counter(
            "repro_service_ingest_updates_total", {"query": name}
        )

    # -- QueryHost surface -------------------------------------------------
    @property
    def plan(self):
        return self.group.engine.engine_for(self.name)

    @property
    def queue(self) -> IngressQueue:
        return self.group.queue

    @property
    def tiers(self) -> DegradationController:
        return self.group.tiers

    @property
    def processed_seq(self) -> int:
        return self.group.processed_seq

    @property
    def draining(self) -> bool:
        return self.group.draining

    def try_ingest(self, tenant: str, arrivals: List[Tuple[str, tuple]]):
        return self.group.try_ingest(self, tenant, arrivals)

    def results_since(self, since_seq: int, limit: int) -> List[dict]:
        return self.delta_log.since(since_seq, limit)

    def _trim_delta_log(self) -> None:
        self.delta_trimmed += self.delta_log.trim(
            self.group.config.delta_log_capacity
        )

    async def drain(self, deadline_s: float) -> bool:
        return await self.group.drain(deadline_s)

    def kill(self) -> None:
        self.group.kill()

    def status(self) -> dict:
        metrics = self.plan.ctx.metrics
        return {
            "query": self.name,
            "workload": self.spec.get("workload", {}),
            "relations": list(self.windows.relations()),
            "schema": self.schemas,
            "shared_engine": True,
            "tier": TIER_NAMES[self.group.tiers.tier],
            "queue_depth_updates": self.group.queue.depth_updates,
            "queue_capacity_updates": self.group.queue.capacity,
            "oldest_lag_s": round(self.group.queue.oldest_lag_s(), 6),
            "next_seq": self.group.next_seq,
            "processed_seq": self.group.processed_seq,
            "acked_seq": self.acked_seq,
            "delta_log_entries": len(self.delta_log),
            "delta_trimmed": self.delta_trimmed,
            "deltas_shed": self.deltas_shed,
            "engine_errors": self.group.engine_errors,
            "checkpoints": 0,
            "resumed": False,
            "replayed_updates": 0,
            "subscribers": len(self.subscribers),
            "admission": self.admission.summary(),
            "shedding": None,
            "updates_processed": metrics.updates_processed,
            "outputs_emitted": metrics.outputs_emitted,
            "engine": self.group.engine.snapshot(),
        }


class SharedQueryGroup:
    """One MultiQueryEngine, one ingress lane, N member queries."""

    def __init__(
        self,
        config: ServiceConfig,
        loop: asyncio.AbstractEventLoop,
        engine_exec: ThreadPoolExecutor,
        registry,
        windows_cls,
        batch_cls,
        drain_sentinel,
        close_frame,
        seconds_buckets,
    ):
        self.config = config
        self._loop = loop
        self._engine_exec = engine_exec
        self.registry = registry
        # Injected from repro.service.server to avoid an import cycle.
        self._windows_cls = windows_cls
        self._batch_cls = batch_cls
        self._drain_sentinel = drain_sentinel
        self._close_frame = close_frame
        labels = {"query": "_shared"}
        self._engine_error_counter = registry.counter(
            "repro_service_engine_errors_total", labels
        )
        self._delta_latency = registry.histogram(
            "repro_service_delta_latency_seconds", labels,
            buckets=seconds_buckets,
        )

        engine_cfg = config.engine
        tuning = engine_cfg.acaching_config()
        self.engine = MultiQueryEngine(
            budget_bytes=tuning.reoptimizer.memory_budget_bytes,
            share_caches=engine_cfg.share_caches,
        )
        self.windows = windows_cls({})
        self.members: Dict[str, SharedQueryMember] = {}
        self.next_seq = 0
        self.processed_seq = -1
        self.engine_errors = 0
        self.draining = False
        self.queue = IngressQueue(config.queue_capacity_updates)
        self.decisions = DecisionLog()
        self.tiers = DegradationController(config, decision_log=self.decisions)
        self._last_tier = self.tiers.tier
        self.worker: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def register(self, name: str, spec: dict, factory) -> SharedQueryMember:
        """Add a member query; splices into the shared engine warm."""
        workload = factory()
        for relation, size in workload.windows.items():
            hosted = self.windows.sizes.get(relation)
            if hosted is not None and hosted != size:
                raise ConfigError(
                    f"relation {relation!r} is hosted with window {hosted}; "
                    f"query {name!r} expects {size} — shared streams must "
                    "agree on window sizes"
                )
        self.engine.register(name, workload, self.config.engine)
        # Extend the shared windows only after the engine accepted the
        # query (window sizes already validated above).
        for relation, size in workload.windows.items():
            if relation not in self.windows.sizes:
                self.windows.sizes[relation] = size
                self.windows._windows[relation] = deque()
        schemas = {
            rel: list(schema.attributes)
            for rel, schema in workload.graph.schemas.items()
        }
        member = SharedQueryMember(
            self, name, spec, schemas, tuple(workload.graph.relations)
        )
        self.members[name] = member
        return member

    def unregister(self, name: str) -> None:
        """Remove a member at an update boundary; shared windows stay
        warm and only unreferenced cache bytes are released."""
        member = self.members.pop(name)
        self.engine.unregister(name)
        close_frame = {
            "type": "close", "query": name, "reason": "unregistered",
        }
        for subscriber in member.subscribers:
            subscriber.control(close_frame)
            subscriber.offer(self._close_frame)

    # ------------------------------------------------------------------
    # ingest (loop thread, atomic)
    # ------------------------------------------------------------------
    def try_ingest(
        self,
        member: SharedQueryMember,
        tenant: str,
        arrivals: List[Tuple[str, tuple]],
    ):
        if self.draining:
            return (
                "rejected", 503, self.config.drain_deadline_s, "draining",
            )
        if self.tiers.rejecting_ingest:
            self._reject_metric(member, "overloaded")
            return ("rejected", 503, self._retry_after(), "overloaded")
        retry_after = member.admission.admit(tenant, len(arrivals))
        if retry_after > 0.0:
            self._reject_metric(member, "admission")
            return ("rejected", 429, retry_after, "admission")
        worst_case = 2 * len(arrivals)
        if not self.queue.reserve(worst_case):
            self._reject_metric(member, "queue_full")
            return ("rejected", 429, self._retry_after(), "queue_full")
        updates: List[Update] = []
        for relation, values in arrivals:
            updates.extend(
                self.windows.feed(
                    relation, values, self.next_seq + len(updates)
                )
            )
        self.next_seq += len(updates)
        self.queue.cancel_reservation(worst_case - len(updates))
        self.queue.put(self._batch_cls(updates, time.monotonic()))
        self._evaluate_tiers()
        member._ingest_counter.inc(len(updates))
        return ("accepted", updates, None)

    def _reject_metric(self, member: SharedQueryMember, reason: str) -> None:
        self.registry.counter(
            "repro_service_rejected_total",
            {"query": member.name, "reason": reason},
        ).inc()

    def _retry_after(self) -> float:
        lag = self.queue.oldest_lag_s()
        return min(5.0, max(0.1, lag if lag > 0 else 0.25))

    # ------------------------------------------------------------------
    # the worker (one asyncio task for the whole group)
    # ------------------------------------------------------------------
    async def run_worker(self) -> None:
        while True:
            batch = await self.queue.get()
            if batch is self._drain_sentinel:
                break
            per_update: Optional[List[Dict[str, list]]]
            try:
                per_update = await self._loop.run_in_executor(
                    self._engine_exec, self._process_job, batch.updates
                )
            except Exception:
                self.engine_errors += 1
                self._engine_error_counter.inc()
                per_update = None
            if per_update is not None:
                self._publish(batch, per_update)
            self.processed_seq = batch.updates[-1].seq
            self.queue.release(len(batch.updates))
            self._evaluate_tiers()
            self._delta_latency.observe(time.monotonic() - batch.enqueued_at)

    def _process_job(
        self, updates: List[Update]
    ) -> List[Dict[str, list]]:
        """Engine-executor job: each update through every interested
        member, shared window mutated once (MultiQueryEngine.process)."""
        return [self.engine.process(update) for update in updates]

    def _publish(
        self, batch, per_update: List[Dict[str, list]]
    ) -> None:
        frames: Dict[str, List[dict]] = {}
        for update, outputs in zip(batch.updates, per_update):
            for query_id, deltas in outputs.items():
                member = self.members.get(query_id)
                if member is None:
                    continue
                entry = {
                    "seq": update.seq,
                    "deltas": [jsonable_delta(d) for d in deltas],
                }
                member.delta_log.append(entry)
                if deltas:
                    frames.setdefault(query_id, []).append(entry)
        shedding = (
            self.tiers.shedding_deltas or self.tiers.subscriptions_paused
        )
        for query_id, entries in frames.items():
            member = self.members[query_id]
            member._trim_delta_log()
            if shedding:
                member.deltas_shed += sum(len(e["deltas"]) for e in entries)
                for subscriber in member.subscribers:
                    subscriber.gap = True
                continue
            if not member.subscribers:
                continue
            frame = DeltaFrame(query_id, batch.updates[-1].seq, entries)
            for subscriber in member.subscribers:
                subscriber.offer(frame)
        for member in self.members.values():
            member._trim_delta_log()

    def _evaluate_tiers(self) -> None:
        tier = self.tiers.update(
            self.queue.depth_fraction, self.queue.oldest_lag_s()
        )
        if tier == self._last_tier:
            return
        crossed_up = tier >= TIER_PAUSE_SUBSCRIPTIONS > self._last_tier
        crossed_down = self._last_tier >= TIER_PAUSE_SUBSCRIPTIONS > tier
        self._last_tier = tier
        if crossed_up or crossed_down:
            for member in self.members.values():
                frame = {
                    "type": "flow",
                    "query": member.name,
                    "state": "pause" if crossed_up else "resume",
                    "tier": TIER_NAMES[tier],
                }
                for subscriber in member.subscribers:
                    subscriber.control(frame)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def drain(self, deadline_s: float) -> bool:
        """Stop ingest, let the shared queue empty. Idempotent."""
        if self.draining:
            return self.queue.depth_updates == 0
        self.draining = True
        self.decisions.record(
            0.0, DRAIN, "service",
            reason=f"shared group begin depth={self.queue.depth_updates}",
        )
        deadline = time.monotonic() + deadline_s
        while self.queue.depth_updates > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        drained = self.queue.depth_updates == 0
        self.queue.put(self._drain_sentinel)
        if self.worker is not None:
            try:
                await asyncio.wait_for(
                    self.worker,
                    timeout=max(1.0, deadline - time.monotonic()),
                )
            except asyncio.TimeoutError:
                self.worker.cancel()
        for member in self.members.values():
            close_frame = {
                "type": "close", "query": member.name, "reason": "drain",
            }
            for subscriber in member.subscribers:
                subscriber.control(close_frame)
                subscriber.offer(self._close_frame)
        return drained

    def kill(self) -> None:
        self.draining = True
        if self.worker is not None:
            self.worker.cancel()

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def engine_metrics_text(self) -> str:
        """The multi engine's merged, query_id-labeled exposition."""
        return self.engine.metrics_prometheus()
