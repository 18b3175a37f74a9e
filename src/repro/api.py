"""The public construction facade: :class:`EngineConfig` + :class:`Session`.

Three PRs of growth (observability, faults, parallel) left engine
construction fragmented: ``static_plan``, ``planner.enumeration``,
``parallel.EngineSpec``, ``faults.chaos``, and the CLI each re-plumbed the
same ``orders/global_quota/buckets/resilience/shards`` keyword sets. This
module is the one place those knobs live:

* :class:`EngineConfig` — a frozen dataclass holding every construction
  parameter (join orders, cache quota and buckets, micro-batch size,
  resilience, sharding, observability sinks, adaptive tunables);
* :class:`Session` — a facade over one engine built from a config:
  ``Session.static(...)`` for a fixed cache set, ``Session.adaptive(...)``
  for the full A-Caching engine, with ``.run(...)`` / ``.series(...)``
  drivers that honor the config's batch size and shard count.

Everything in-repo (figures, chaos, parallel specs, the CLI) builds
engines through this module, and every in-process run feeds its engine
through :class:`repro.engine.drive.Driver`.

>>> from repro.api import EngineConfig, Session
>>> session = Session.adaptive(workload, EngineConfig(batch_size=64))
>>> deltas = session.run(arrivals=10_000)
>>> session.throughput()
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.acaching import ACaching, ACachingConfig
from repro.core.reoptimizer import ReoptimizerConfig
from repro.engine.drive import drive
from repro.errors import ConfigError, PlanError
from repro.faults.resilience import ResilienceConfig
from repro.streams.events import DeltaBatch, OutputDelta, Update
from repro.streams.workloads import Workload

#: Engines a Session can host. ``static`` is an MJoin with a fixed cache
#: set; ``adaptive`` is the full A-Caching engine of Figure 4.
SESSION_KINDS = ("static", "adaptive")

PARALLEL_BACKENDS = ("serial", "process")

WorkloadLike = Union[Workload, Callable[[], Workload]]


@dataclass(frozen=True)
class EngineConfig:
    """Every engine-construction knob in one picklable value, each with
    exactly one spelling.

    ``orders``/``candidate_ids``/``global_quota``/``buckets`` configure
    the plan; ``batch_size`` selects micro-batched execution (1 = the
    per-update hot path, byte-identical results either way);
    ``resilience`` wires the graceful-degradation controller into static
    and adaptive engines alike; ``shards`` and ``parallel_backend``
    select partitioned execution (adaptive sharded runs coordinate their
    cache plans every 2,000 global positions, the
    :class:`~repro.parallel.adaptivity.AdaptivityConfig` default); the
    ``obs_*`` sinks capture a structured trace / metrics dump of the
    session's runs; ``tuning`` overrides the adaptive engine's full
    tunable set (profiler, re-optimizer, ordering) — when set, it wins
    over ``global_quota`` and ``resilience`` only where it explicitly
    configures them; ``wal_dir``/``checkpoint_interval``/
    ``wal_fsync_every``/``cache_recovery`` journal runs for crash
    recovery; ``supervision`` runs shards under the restarting
    supervisor; the ``tenant_*``/``share_caches`` knobs only matter to
    :class:`~repro.multi.engine.MultiQueryEngine`. Derive variants with
    :func:`dataclasses.replace`.
    """

    orders: Optional[Dict[str, Tuple[str, ...]]] = None
    candidate_ids: Tuple[str, ...] = ()      # static plans: caches to wire
    global_quota: int = 8                    # global-cache quota m
    buckets: int = 512                       # cache store buckets
    batch_size: int = 1                      # micro-batch size (1 = per-update)
    resilience: Optional[ResilienceConfig] = None
    shards: int = 1
    parallel_backend: str = "serial"
    obs_trace_jsonl: Optional[str] = None    # structured trace sink
    obs_metrics_prom: Optional[str] = None   # Prometheus metrics sink
    # Wall-clock span profiling: ``profile`` attaches a SpanProfiler to
    # the session's runs (dual-clock spans, folded stacks); ``obs_flame``
    # additionally writes the folded-stack file there after each run.
    # Sharded runs collect per-worker telemetry and merge it under
    # ``shard`` labels in the prom/flame sinks.
    profile: bool = False
    obs_flame: Optional[str] = None          # folded-stack flamegraph sink
    tuning: Optional[ACachingConfig] = None  # full adaptive tunables
    # Durability (repro.recovery): ``wal_dir`` is the master switch —
    # when set, serial runs journal every update to a WAL and checkpoint
    # every ``checkpoint_interval`` processed updates, and sharded runs
    # give each shard its own sub-journal for supervised restarts.
    wal_dir: Optional[str] = None
    checkpoint_interval: int = 1000
    wal_fsync_every: int = 64                # WAL records per fsync batch
    cache_recovery: str = "snapshot"         # or "rebuild" (drop caches)
    # Supervision policy for process-backend workers (None: the default
    # SupervisionConfig). Setting one runs execute() in workers at any
    # backend or shard count, and allows crash injection.
    supervision: Optional[object] = None
    # Multi-query tenancy (repro.multi): per-tenant reservation bounds
    # against the engine's global memory budget, and whether this query's
    # prefix-invariant caches may join inter-query shared-store groups.
    # Ignored by single-query sessions.
    tenant_min_bytes: int = 0
    tenant_max_bytes: Optional[int] = None
    share_caches: bool = True

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise PlanError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if self.shards < 1:
            raise PlanError(f"shards must be >= 1, got {self.shards}")
        if self.parallel_backend not in PARALLEL_BACKENDS:
            raise PlanError(
                f"parallel_backend must be one of {PARALLEL_BACKENDS}, "
                f"got {self.parallel_backend!r}"
            )
        if self.checkpoint_interval < 1:
            raise ConfigError(
                "checkpoint_interval must be >= 1, got "
                f"{self.checkpoint_interval}"
            )
        if self.wal_fsync_every < 1:
            raise ConfigError(
                f"wal_fsync_every must be >= 1, got {self.wal_fsync_every}"
            )
        if self.cache_recovery not in ("snapshot", "rebuild"):
            raise ConfigError(
                "cache_recovery must be 'snapshot' or 'rebuild', got "
                f"{self.cache_recovery!r}"
            )
        if self.tenant_min_bytes < 0:
            raise ConfigError(
                f"tenant_min_bytes must be >= 0, got {self.tenant_min_bytes}"
            )
        if (
            self.tenant_max_bytes is not None
            and self.tenant_max_bytes < self.tenant_min_bytes
        ):
            raise ConfigError(
                "tenant_max_bytes must be >= tenant_min_bytes "
                f"({self.tenant_max_bytes} < {self.tenant_min_bytes})"
            )
        object.__setattr__(
            self, "candidate_ids", tuple(self.candidate_ids)
        )
        if self.orders is not None:
            object.__setattr__(
                self,
                "orders",
                {k: tuple(v) for k, v in self.orders.items()},
            )

    # ------------------------------------------------------------------
    # derived configurations
    # ------------------------------------------------------------------
    def acaching_config(self) -> ACachingConfig:
        """The adaptive-engine tunables this config resolves to.

        ``tuning`` is used verbatim when given (with ``resilience``
        folded in if the tuning left it unset); otherwise defaults with
        this config's ``global_quota`` and ``resilience`` applied.
        """
        if self.tuning is not None:
            config = self.tuning
            if self.resilience is not None and config.resilience is None:
                config = replace(config, resilience=self.resilience)
            return config
        return ACachingConfig(
            reoptimizer=ReoptimizerConfig(global_quota=self.global_quota),
            resilience=self.resilience,
        )

    def parallel(self):
        """The :class:`~repro.parallel.engine.ParallelConfig` equivalent."""
        from repro.parallel.engine import ParallelConfig

        return ParallelConfig(
            shards=self.shards, backend=self.parallel_backend
        )

    def recovery(self):
        """The :class:`~repro.recovery.manager.RecoveryConfig` this
        config's durability knobs resolve to, or None with no ``wal_dir``."""
        if self.wal_dir is None:
            return None
        from repro.recovery.manager import RecoveryConfig

        return RecoveryConfig(
            wal_dir=self.wal_dir,
            checkpoint_interval=self.checkpoint_interval,
            fsync_every=self.wal_fsync_every,
            cache_mode=self.cache_recovery,
        )

    def engine_spec(self, kind: str = "adaptive", tree=None):
        """A picklable :class:`~repro.parallel.spec.EngineSpec` carrying
        this config.

        Accepts the Session kinds (``static``/``adaptive``) plus the
        lower-level ``mjoin``/``xjoin`` spec kinds.
        """
        from repro.parallel.spec import EngineSpec

        if kind == "adaptive":
            kind = "acaching"
        return EngineSpec(kind=kind, config=self, tree=tree)


def build_static_plan(workload: Workload, config: Optional[EngineConfig] = None):
    """Build a :class:`~repro.engine.runtime.StaticPlan` from a config."""
    from repro.engine.runtime import _build_static_plan

    config = config if config is not None else EngineConfig()
    return _build_static_plan(
        workload,
        orders=config.orders,
        candidate_ids=config.candidate_ids,
        global_quota=config.global_quota,
        buckets=config.buckets,
        resilience=config.resilience,
    )


def build_adaptive_engine(
    workload: Workload, config: Optional[EngineConfig] = None
) -> ACaching:
    """Build the full A-Caching engine from a config."""
    config = config if config is not None else EngineConfig()
    return ACaching(
        workload.graph,
        orders=config.orders,
        indexed_attributes=workload.indexed_attributes,
        config=config.acaching_config(),
    )


class Session:
    """One engine plus the drivers to run it, behind a single config.

    A Session duck-types as a plan — it exposes ``.ctx``, ``.process``,
    ``.process_batch``, and ``.resilience`` — so it slots into every
    driver that accepts one (``run_with_series``, ``measured_run``, the
    chaos harness). Its own :meth:`run` and :meth:`series` additionally
    honor the config's ``batch_size``, ``shards``, and obs sinks.
    """

    def __init__(
        self,
        kind: str,
        workload: WorkloadLike,
        config: Optional[EngineConfig] = None,
    ):
        if kind not in SESSION_KINDS:
            raise PlanError(
                f"session kind must be one of {SESSION_KINDS}, got {kind!r}"
            )
        self.kind = kind
        self.config = config if config is not None else EngineConfig()
        if callable(workload):
            self.workload_factory: Optional[Callable[[], Workload]] = workload
            self.workload: Workload = workload()
        else:
            self.workload_factory = None
            self.workload = workload
        self._plan = None
        self._obs = None
        # Merged cross-shard telemetry of the last sharded run (set by
        # execute() when the spec collected observability).
        self.last_telemetry = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def static(
        cls, workload: WorkloadLike, config: Optional[EngineConfig] = None
    ) -> "Session":
        """A fixed MJoin-with-caches plan (no adaptivity)."""
        return cls("static", workload, config)

    @classmethod
    def adaptive(
        cls, workload: WorkloadLike, config: Optional[EngineConfig] = None
    ) -> "Session":
        """The full A-Caching engine (profiler + re-optimizer + orderer)."""
        return cls("adaptive", workload, config)

    # ------------------------------------------------------------------
    # the engine
    # ------------------------------------------------------------------
    @property
    def plan(self):
        """The underlying engine, built on first use."""
        if self._plan is None:
            self._plan = self._build_plan()
        return self._plan

    def _wants_profiler(self) -> bool:
        return self.config.profile or bool(self.config.obs_flame)

    def _wants_obs(self) -> bool:
        return bool(
            self.config.obs_trace_jsonl
            or self.config.obs_metrics_prom
            or self._wants_profiler()
        )

    def _build_plan(self):
        if self._wants_obs():
            from repro import obs

            self._obs = obs.Observability.tracing(
                profile=self._wants_profiler()
            )
            with obs.session(self._obs):
                return self._construct()
        return self._construct()

    def _construct(self):
        if self.kind == "static":
            return build_static_plan(self.workload, self.config)
        return build_adaptive_engine(self.workload, self.config)

    @property
    def ctx(self):
        """The execution context (clock, cost model, metrics)."""
        return self.plan.ctx

    @property
    def resilience(self):
        """The plan's ResilienceController, if one is configured."""
        return getattr(self.plan, "resilience", None)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def process(self, update: Update) -> List[OutputDelta]:
        """Process one update through the engine."""
        return self.plan.process(update)

    def process_batch(self, batch: DeltaBatch) -> List[List[OutputDelta]]:
        """Process one micro-batch; returns per-update delta lists."""
        return self.plan.process_batch(batch)

    def run(
        self,
        updates: Optional[Iterable[Update]] = None,
        arrivals: Optional[int] = None,
    ) -> List[OutputDelta]:
        """Process an update sequence; returns all result deltas.

        Pass either an explicit ``updates`` iterable or an ``arrivals``
        count (drawn from the session's workload). With ``shards > 1``
        the run executes partitioned (``arrivals`` required, and the
        session must have been built from a workload *factory*) and the
        deltas come back merged in global arrival order.
        """
        if self.config.shards > 1:
            if updates is not None:
                raise PlanError(
                    "a sharded run() replays the workload's own stream; "
                    "pass arrivals, not an updates iterable"
                )
            run = self.execute(arrivals=arrivals, output_mode="deltas")
            # merged_deltas() yields (seq, emission index, delta) tagged
            # triples in global arrival order; strip the tags.
            return [delta for _, _, delta in run.merged_deltas()]
        if updates is None:
            if arrivals is None:
                raise PlanError("run() needs either updates or arrivals")
            updates = self.workload.updates(arrivals)
        plan = self.plan
        profiler = self._obs.profiler if self._obs is not None else None
        if profiler is not None and profiler.enabled:
            with profiler.span("run", clock=plan.ctx.clock):
                outputs = self._run_serial(updates)
        else:
            outputs = self._run_serial(updates)
        self._export_obs()
        return outputs

    def _run_serial(
        self, updates: Iterable[Update], skip_through: int = -1
    ) -> List[OutputDelta]:
        """Drive ``updates`` through the plan; with ``wal_dir`` set, every
        update is journaled and checkpoints land at safe points.
        ``skip_through`` drops the prefix a restore already covered
        (checkpoint + replayed WAL)."""
        recorder = None
        if self.config.wal_dir is not None:
            from repro.recovery.manager import Recorder

            recorder = Recorder(self.plan, self.config.recovery())
        return drive(
            self.plan,
            (update for update in updates if update.seq > skip_through),
            self.config.batch_size,
            recorder,
        )

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def restore(self):
        """Rebuild the engine from the config's journal directory.

        Loads the newest valid checkpoint under ``wal_dir`` (skipping
        corrupt/partial snapshots), replays the durable WAL suffix, and
        swaps the session's plan for the restored engine. Returns the
        :class:`~repro.recovery.manager.RecoveredState` so callers know
        the seq to resume the source from.
        """
        from repro.recovery.manager import RecoveryManager

        config = self.config.recovery()
        if config is None:
            raise ConfigError(
                "restore() needs wal_dir set on the EngineConfig"
            )
        restored = RecoveryManager(config, builder=self._construct).restore()
        self._plan = restored.plan
        return restored

    def resume(self, arrivals: int) -> List[OutputDelta]:
        """Crash recovery in one call: restore, then finish the run.

        Restores from ``wal_dir``, then re-feeds the deterministic
        workload stream past the restored seq — journaling as it goes, so
        a crash during resume is itself recoverable. Returns the deltas
        produced from the restore point on (WAL replay + resumed source).
        """
        restored = self.restore()
        outputs = [
            delta for _seq, deltas in restored.replayed for delta in deltas
        ]
        outputs.extend(
            self._run_serial(
                self.workload.updates(arrivals),
                skip_through=restored.last_seq,
            )
        )
        self._export_obs()
        return outputs

    def series(
        self,
        updates: Optional[Iterable[Update]] = None,
        arrivals: Optional[int] = None,
        sample_every_updates: int = 2000,
        x_of: Optional[Callable[[Update], bool]] = None,
        used_caches: Optional[Callable[[], Sequence[str]]] = None,
        memory: Optional[Callable[[], int]] = None,
    ):
        """Run while sampling throughput; returns ``SeriesPoint`` list.

        Serial sessions drive :func:`repro.engine.runtime.run_with_series`
        (honoring ``batch_size``); sharded sessions drive the lockstep
        :func:`repro.parallel.series.run_series_sharded`.
        """
        if self.config.shards > 1:
            from repro.parallel.series import run_series_sharded

            if arrivals is None:
                raise PlanError("a sharded series() needs arrivals")
            series = run_series_sharded(
                self.experiment(arrivals, adaptivity=None),
                shards=self.config.shards,
                sample_every_updates=sample_every_updates,
                x_of=x_of,
            )
            self._export_obs()
            return series
        from repro.engine.runtime import run_with_series

        if updates is None:
            if arrivals is None:
                raise PlanError("series() needs either updates or arrivals")
            updates = self.workload.updates(arrivals)
        plan = self.plan
        if used_caches is None:
            used = getattr(plan, "used_caches", None)
            if callable(used):
                used_caches = used
        if memory is None:
            mem = getattr(plan, "memory_in_use", None)
            if callable(mem):
                memory = mem
        series = run_with_series(
            plan,
            updates,
            sample_every_updates=sample_every_updates,
            x_of=x_of,
            used_caches=used_caches,
            memory=memory,
            batch_size=self.config.batch_size,
        )
        self._export_obs()
        return series

    # ------------------------------------------------------------------
    # parallel execution
    # ------------------------------------------------------------------
    def _require_factory(self) -> Callable[[], Workload]:
        if self.workload_factory is None:
            raise PlanError(
                "sharded execution needs a workload *factory* — build the "
                "Session from a zero-argument callable, not an instance"
            )
        return self.workload_factory

    def engine_spec(self):
        """The picklable EngineSpec matching this session's engine."""
        return self.config.engine_spec(kind=self.kind)

    def experiment(self, arrivals: int, **measurement):
        """An :class:`~repro.parallel.spec.ExperimentSpec` for this session.

        ``measurement`` kwargs (``warmup_fraction``, ``fault_spec``,
        ``output_mode``, ``collect_windows``, ...) pass straight through;
        the engine, batch size, and workload factory come from the
        session. When the config carries obs sinks or profiling, workers
        default to collecting telemetry (``collect_obs``/``profile``) so
        sharded runs feed the same sinks serial runs do.
        """
        from repro.parallel.spec import ExperimentSpec

        measurement.setdefault("collect_obs", self._wants_obs())
        measurement.setdefault("profile", self._wants_profiler())
        if self.kind == "adaptive" and self.config.shards > 1:
            # Global adaptivity plane: one coordinator-decided cache plan
            # per epoch instead of per-shard local re-optimization.
            # Callers that cannot host the barrier protocol (the lockstep
            # series driver) pass adaptivity=None explicitly.
            from repro.parallel.adaptivity import AdaptivityConfig

            measurement.setdefault("adaptivity", AdaptivityConfig())
        return ExperimentSpec(
            workload_factory=self._require_factory(),
            arrivals=arrivals,
            engine=self.engine_spec(),
            batch_size=self.config.batch_size,
            **measurement,
        )

    def execute(
        self, arrivals: Optional[int] = None, crashes=(), **measurement
    ):
        """Run as the config directs; returns the structured run.

        The structured counterpart of :meth:`run`: same dispatch on the
        config's shard count, backend and supervision (adaptive sharded
        runs coordinate their cache plans), but returning the
        :class:`~repro.parallel.engine.ParallelRun` (with its workers'
        ``restarts``/``fallbacks``/``decisions``) instead of the
        flattened delta list. A ``supervision`` policy runs workers at
        any shard count (otherwise one shard runs in-process), resumes
        restarted shards from their checkpoints when journaled, and
        admits ``crashes`` (:class:`WorkerCrash` specs: deterministic
        worker kills). ``measurement`` kwargs flow into the
        :class:`ExperimentSpec` (``output_mode``, ``collect_windows``,
        ``stop_after_updates``, ``adaptivity``, ...).
        """
        from repro.parallel.engine import run_sharded

        if arrivals is None:
            raise PlanError("execute() needs arrivals")
        spec = self.experiment(arrivals, **measurement)
        if self.config.supervision is not None:
            from repro.parallel.supervisor import Supervisor

            run = Supervisor(
                self.config.supervision, recovery=self.config.recovery()
            ).run(spec, self.config.shards, crashes=crashes)
        else:
            if crashes:
                raise ConfigError(
                    "crashes requires supervision set on the EngineConfig"
                )
            run = run_sharded(spec, self.config.parallel())
        if spec.collect_obs or spec.profile:
            self.last_telemetry = run.merged_telemetry()
            self._export_merged_obs(self.last_telemetry)
        return run

    # ------------------------------------------------------------------
    # introspection / observability
    # ------------------------------------------------------------------
    def throughput(self) -> float:
        """Updates per second of virtual time, all overheads included."""
        ctx = self.ctx
        return ctx.metrics.throughput(ctx.clock.now_seconds)

    def used_caches(self) -> Tuple[str, ...]:
        """Candidate ids of the caches the engine currently probes."""
        used = getattr(self.plan, "used_caches", None)
        if callable(used):
            return tuple(used())
        fixed = getattr(self.plan, "used", None)
        return tuple(fixed) if fixed else ()

    def profile_snapshot(self):
        """The serial profiler's state, or None when not profiling.

        For sharded runs use ``last_telemetry.profile`` instead (the
        merged, shard-prefixed snapshot).
        """
        if self._obs is None or not self._obs.profiler.enabled:
            return None
        return self._obs.profiler.snapshot()

    def _export_obs(self) -> None:
        """Flush configured obs sinks (idempotent; overwrites)."""
        if self._obs is None:
            return
        from repro.obs.export import (
            observability_to_jsonl,
            registry_to_prometheus,
            write_jsonl,
        )

        metrics = self.ctx.metrics
        if self.config.obs_trace_jsonl:
            write_jsonl(
                self.config.obs_trace_jsonl,
                observability_to_jsonl(self._obs, metrics),
            )
        if self.config.obs_metrics_prom:
            write_jsonl(
                self.config.obs_metrics_prom,
                registry_to_prometheus(self._obs.registry, metrics),
            )
        if self.config.obs_flame and self._obs.profiler.enabled:
            from repro.obs.profile import write_folded

            write_folded(
                self.config.obs_flame, self._obs.profiler.snapshot()
            )

    def _export_merged_obs(self, telemetry) -> None:
        """Flush a sharded run's merged telemetry to the obs sinks."""
        import json

        from repro.obs.export import write_jsonl
        from repro.obs.profile import write_folded

        if self.config.obs_trace_jsonl:
            write_jsonl(
                self.config.obs_trace_jsonl,
                "\n".join(
                    json.dumps(record, sort_keys=True, default=str)
                    for record in telemetry.chronology()
                ),
            )
        if self.config.obs_metrics_prom:
            write_jsonl(
                self.config.obs_metrics_prom, telemetry.to_prometheus()
            )
        if self.config.obs_flame and telemetry.profile is not None:
            write_folded(self.config.obs_flame, telemetry.profile)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session({self.kind}, batch_size={self.config.batch_size}, "
            f"shards={self.config.shards})"
        )
