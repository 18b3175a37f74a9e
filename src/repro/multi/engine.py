"""The multi-query engine: N adaptive queries over shared streams.

One :class:`MultiQueryEngine` hosts N registered continuous queries.
Each update stream is ingested once into a shared window state
(:class:`StreamHub`); every query that joins the stream references the
same :class:`~repro.relations.relation.Relation`. Per-query execution,
profiling, ordering, and cache selection stay exactly the paper's
single-query machinery — the engine injects a
:class:`~repro.multi.directory.SharedCacheWiring` (inter-query shared
stores) and a :class:`~repro.multi.arbiter.TenantAllocator` (one global
page ledger) into each query's re-optimizer.

Correctness of sharing one update round across queries: for an update to
relation R, a cache *probed* during the round lives in some query's ∆R
pipeline and its segment excludes R, while a cache *maintained* during
the round has R in its segment (its taps fire in segment-member
pipelines). No cache is both probed and maintained within one round, so
probe results always equal recompute-from-windows regardless of the
per-query processing order — and the window mutation itself is applied
exactly once, after every interested query has run the update through
its pipelines (``apply_window=False``).

Caches never change emitted results (Section 3.2), so each query's
output deltas are byte-identical to the same query running alone on its
own engine — shared stores, shared windows, and global memory pressure
only move modeled cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.core import cost_model
from repro.core.acaching import ACaching, ACachingConfig
from repro.core.candidates import CandidateCache, inter_query_token
from repro.errors import ConfigError, PlanError
from repro.multi.arbiter import (
    GlobalMemoryArbiter,
    TenantAllocator,
    TenantQuota,
)
from repro.multi.directory import InterQueryCacheDirectory, SharedCacheWiring
from repro.obs import DecisionLog, Observability
from repro.obs.export import registries_to_prometheus
from repro.operators.base import ExecContext
from repro.relations.relation import Relation
from repro.streams.events import OutputDelta, Sign, Update


class StreamHub:
    """The shared window-state manager: one Relation per update stream.

    Windows are *kept warm* when the last interested query unregisters:
    updates keep flowing into them, so a later re-registration (or a new
    query over the same stream) starts from the exact window contents an
    always-on engine would hold. Releasing window bytes is therefore an
    explicit :meth:`drop_idle` call, never a side effect of unregister.
    """

    def __init__(self) -> None:
        self.relations: Dict[str, Relation] = {}
        self._interest: Dict[str, set] = {}

    def bind(self, query_id: str, graph) -> Dict[str, Relation]:
        """Register interest in every stream of ``graph``; create missing
        relations (indexes are added by the executor, backfilled)."""
        bound: Dict[str, Relation] = {}
        for name, schema in graph.schemas.items():
            relation = self.relations.get(name)
            if relation is None:
                relation = Relation(schema)
                self.relations[name] = relation
            elif tuple(relation.schema.attributes) != tuple(schema.attributes):
                raise PlanError(
                    f"stream {name!r} already hosted with schema "
                    f"{tuple(relation.schema.attributes)}; query "
                    f"{query_id!r} expects {tuple(schema.attributes)}"
                )
            self._interest.setdefault(name, set()).add(query_id)
            bound[name] = relation
        return bound

    def unbind(self, query_id: str) -> None:
        for interested in self._interest.values():
            interested.discard(query_id)

    def interested(self, relation: str) -> FrozenSet[str]:
        return frozenset(self._interest.get(relation, ()))

    def apply(self, update: Update) -> None:
        """Mutate the shared window — exactly once per update."""
        relation = self.relations.get(update.relation)
        if relation is None:
            raise PlanError(f"no registered stream {update.relation!r}")
        if update.sign is Sign.INSERT:
            relation.insert(update.row)
        else:
            relation.delete(update.row)

    def drop_idle(self) -> List[str]:
        """Free windows no registered query references (explicit opt-in)."""
        dropped = []
        for name in sorted(self.relations):
            if not self._interest.get(name):
                del self.relations[name]
                self._interest.pop(name, None)
                dropped.append(name)
        return dropped

    def memory_bytes(self) -> int:
        return sum(r.memory_bytes for r in self.relations.values())


@dataclass
class _QueryRuntime:
    """One registered query's engine and bookkeeping."""

    query_id: str
    engine: ACaching
    relations: FrozenSet[str]
    obs: Observability
    token_of: Callable[[CandidateCache], Tuple]


def _validate_tenant_config(config) -> None:
    """Reject EngineConfig features that would break shared execution."""
    if config is None:
        return
    if getattr(config, "batch_size", 1) != 1:
        raise ConfigError(
            "multi-query engines process updates one at a time "
            "(batch_size must be 1): shared windows advance at update "
            "granularity for every tenant"
        )
    if getattr(config, "shards", 1) != 1:
        raise ConfigError(
            "multi-query engines are single-shard; shard the whole "
            "engine, not individual tenants"
        )
    if getattr(config, "resilience", None) is not None:
        raise ConfigError(
            "per-tenant resilience (shedding/quarantine) is not supported "
            "on a shared engine: one tenant dropping an update would "
            "desynchronize the shared windows"
        )
    if getattr(config, "wal_dir", None) is not None:
        raise ConfigError(
            "per-tenant WAL/checkpointing is not supported on a shared "
            "engine"
        )


class MultiQueryEngine:
    """Hosts N adaptive queries over shared streams and one memory pool.

    ``budget_bytes`` is the *global* cache budget arbitrated across all
    tenants (None = unbounded). ``share_caches=False`` keeps windows
    shared but gives every query private stores (useful for measuring
    the value of inter-query sharing).
    """

    def __init__(
        self,
        budget_bytes: Optional[int] = None,
        share_caches: bool = True,
        memory_check_every_updates: int = 500,
        tracing: bool = False,
    ):
        if memory_check_every_updates <= 0:
            raise ConfigError("memory_check_every_updates must be positive")
        self.hub = StreamHub()
        self.directory = InterQueryCacheDirectory()
        self.arbiter = GlobalMemoryArbiter(budget_bytes)
        self.share_caches = share_caches
        self.memory_check_every_updates = memory_check_every_updates
        self.tracing = tracing
        self._queries: Dict[str, _QueryRuntime] = {}
        self._updates_since_check = 0

    # ------------------------------------------------------------------
    # query lifecycle (runtime add/remove at update boundaries)
    # ------------------------------------------------------------------
    def register(self, query_id: str, workload, config=None) -> ACaching:
        """Splice a query in at an update boundary.

        The query binds the hub's live relations, so it is warm from the
        first update: its pipelines and caches see exactly the window
        contents an engine running since stream start would hold.
        ``config`` is an :class:`repro.api.EngineConfig` (or None for
        defaults); tenancy fields (``tenant_min_bytes``,
        ``tenant_max_bytes``, ``share_caches``) are honored, and
        features incompatible with shared execution are rejected.
        """
        if not query_id or not isinstance(query_id, str):
            raise ConfigError("query_id must be a non-empty string")
        if query_id in self._queries:
            raise ConfigError(f"query {query_id!r} already registered")
        _validate_tenant_config(config)
        quota = TenantQuota(
            min_bytes=getattr(config, "tenant_min_bytes", 0),
            max_bytes=getattr(config, "tenant_max_bytes", None),
        )
        share = self.share_caches and getattr(config, "share_caches", True)
        graph = workload.graph

        def token_of(candidate: CandidateCache) -> Tuple:
            if share:
                token = inter_query_token(graph, candidate)
                if token is not None:
                    return ("shared",) + token
            return ("solo", query_id, candidate.share_token)

        self.arbiter.register_tenant(query_id, quota)
        try:
            relations = self.hub.bind(query_id, graph)
            obs = self._build_observability(query_id)
            acaching_config = (
                config.acaching_config() if config is not None else None
            )
            engine = ACaching(
                graph,
                orders=getattr(config, "orders", None),
                indexed_attributes=workload.indexed_attributes,
                config=acaching_config,
                ctx=ExecContext(obs=obs),
                relations=relations,
                wiring_factory=(
                    (
                        lambda executor: SharedCacheWiring(
                            executor, self.directory, query_id
                        )
                    )
                    if share
                    else None
                ),
                allocator=TenantAllocator(self.arbiter, query_id, token_of),
            )
        except Exception:
            self.hub.unbind(query_id)
            self.arbiter.unregister_tenant(query_id)
            raise
        runtime = _QueryRuntime(
            query_id=query_id,
            engine=engine,
            relations=frozenset(graph.relations),
            obs=obs,
            token_of=token_of,
        )
        self._queries[query_id] = runtime
        return engine

    def _build_observability(self, query_id: str) -> Observability:
        if self.tracing:
            obs = Observability.tracing()
            obs.decisions.query_id = query_id
            return obs
        return Observability(decisions=DecisionLog(query_id=query_id))

    def unregister(self, query_id: str) -> None:
        """Remove a query at an update boundary.

        Unwires every cache through the inter-query directory, so only
        stores no surviving query references are dropped; shared windows
        stay warm (see :meth:`StreamHub.drop_idle`).
        """
        runtime = self._queries.pop(query_id, None)
        if runtime is None:
            raise PlanError(f"query {query_id!r} is not registered")
        runtime.engine.reoptimizer.wiring.detach_all()
        self.hub.unbind(query_id)
        self.arbiter.unregister_tenant(query_id)

    def queries(self) -> List[str]:
        return list(self._queries)

    def engine_for(self, query_id: str) -> ACaching:
        runtime = self._queries.get(query_id)
        if runtime is None:
            raise PlanError(f"query {query_id!r} is not registered")
        return runtime.engine

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def process(self, update: Update) -> Dict[str, List[OutputDelta]]:
        """Run one shared-stream update through every interested query.

        Queries run in registration order with ``apply_window=False``;
        the shared window mutation happens exactly once afterwards — in
        a ``finally`` block, so windows stay consistent with the update
        sequence even if one tenant's pipeline raises.
        """
        if update.relation not in self.hub.relations:
            raise PlanError(f"no registered stream {update.relation!r}")
        outputs: Dict[str, List[OutputDelta]] = {}
        try:
            for query_id, runtime in self._queries.items():
                if update.relation in runtime.relations:
                    outputs[query_id] = runtime.engine.process(
                        update, apply_window=False
                    )
        finally:
            self.hub.apply(update)
        self._updates_since_check += 1
        if (
            self.arbiter.budget_bytes is not None
            and self._updates_since_check >= self.memory_check_every_updates
        ):
            self._updates_since_check = 0
            self.enforce_global_memory()
        return outputs

    def run(
        self, updates: Iterable[Update]
    ) -> Dict[str, List[OutputDelta]]:
        """Process a whole update sequence; per-query delta lists."""
        outputs: Dict[str, List[OutputDelta]] = {
            query_id: [] for query_id in self._queries
        }
        for update in updates:
            for query_id, deltas in self.process(update).items():
                outputs.setdefault(query_id, []).extend(deltas)
        return outputs

    # ------------------------------------------------------------------
    # global memory enforcement (Section 5 across tenants)
    # ------------------------------------------------------------------
    def _physical_stores(self) -> List[Dict[str, object]]:
        """Distinct live stores with their per-query users (deduped)."""
        stores: Dict[int, Dict[str, object]] = {}
        for query_id, runtime in self._queries.items():
            wiring = runtime.engine.reoptimizer.wiring
            for candidate_id, wired in wiring.wired.items():
                info = stores.setdefault(
                    id(wired.cache), {"cache": wired.cache, "users": []}
                )
                info["users"].append((query_id, candidate_id, wired))
        return list(stores.values())

    def memory_in_use(self) -> int:
        """Bytes across all distinct physical stores (shared counted once)."""
        return sum(
            info["cache"].memory_bytes for info in self._physical_stores()
        )

    def enforce_global_memory(self) -> List[Tuple[str, str]]:
        """Evict lowest-value stores until global usage fits the budget.

        Value of a store is the *sum* of its users' net benefits per byte
        (a store three queries lean on outranks a same-sized store one
        query uses — the arbiter's admission argument, applied to
        eviction). Victims are unwired through every using query's own
        re-optimizer so candidate states and decision logs stay
        consistent; returns the evicted ``(query_id, candidate_id)``
        pairs.
        """
        budget = self.arbiter.budget_bytes
        if budget is None:
            return []
        stores = self._physical_stores()
        used = sum(info["cache"].memory_bytes for info in stores)
        if used <= budget:
            return []
        entries = []
        for info in stores:
            cache = info["cache"]
            users = sorted(info["users"], key=lambda u: (u[0], u[1]))
            size = max(1, cache.memory_bytes)
            net = 0.0
            for query_id, candidate_id, wired in users:
                runtime = self._queries[query_id]
                stats = runtime.engine.profiler.statistics_for(
                    wired.candidate
                )
                if stats is not None:
                    net += cost_model.net_benefit(
                        stats, runtime.engine.ctx.cost_model
                    )
            entries.append((net / size, users[0][1], info, users))
        entries.sort(key=lambda e: (e[0], e[1]))
        evicted: List[Tuple[str, str]] = []
        excess = used - budget
        for _, _, info, users in entries:
            if excess <= 0:
                break
            freed = info["cache"].memory_bytes
            token = None
            for query_id, candidate_id, wired in users:
                runtime = self._queries[query_id]
                if token is None:
                    token = runtime.token_of(wired.candidate)
                runtime.engine.reoptimizer.drop_candidate(
                    candidate_id,
                    reason=(
                        f"global memory pressure: {used} bytes in use "
                        f"over budget {budget}"
                    ),
                )
                evicted.append((query_id, candidate_id))
            if token is not None:
                self.arbiter.forget_token(token)
            excess -= freed
        return evicted

    # ------------------------------------------------------------------
    # merged observability
    # ------------------------------------------------------------------
    def decisions(self) -> List[Dict[str, object]]:
        """All tenants' decision records, merged chronologically.

        Every record carries its ``query_id`` (satellite of PR 8), so the
        merged log stays attributable.
        """
        records: List[Dict[str, object]] = []
        for runtime in self._queries.values():
            records.extend(
                r.to_dict() for r in runtime.obs.decisions.entries()
            )
        records.sort(
            key=lambda r: (r.get("t_us", 0.0), r.get("query_id", ""),
                           r.get("seq", 0))
        )
        return records

    def metrics_prometheus(self) -> str:
        """One exposition merging every tenant's registry.

        Each sample gains a ``query_id`` label (escaped per the
        exposition rules); one ``# HELP``/``# TYPE`` per family.
        """
        return registries_to_prometheus(
            {qid: rt.obs.registry for qid, rt in self._queries.items()},
            metrics_of={
                qid: rt.engine.ctx.metrics
                for qid, rt in self._queries.items()
            },
        )

    def aggregate_hit_rate(self) -> float:
        """Cache hits over probes, summed across all tenants."""
        probes = sum(
            rt.engine.ctx.metrics.cache_probes
            for rt in self._queries.values()
        )
        hits = sum(
            rt.engine.ctx.metrics.cache_hits
            for rt in self._queries.values()
        )
        return hits / probes if probes else 0.0

    def modeled_cost_us(self) -> float:
        """Summed virtual-clock time across all tenants' executors."""
        return sum(
            rt.engine.ctx.clock.now_us for rt in self._queries.values()
        )

    def snapshot(self) -> Dict[str, object]:
        """Engine-level state for status endpoints and the tests."""
        return {
            "queries": sorted(self._queries),
            "streams": sorted(self.hub.relations),
            "window_bytes": self.hub.memory_bytes(),
            "cache_bytes": self.memory_in_use(),
            "shared_stores": self.directory.shared_store_count(),
            "arbiter": self.arbiter.snapshot(),
            "aggregate_hit_rate": self.aggregate_hit_rate(),
        }
