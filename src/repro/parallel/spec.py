"""Picklable descriptions of one shardable experiment.

The process backend cannot ship live engines or generator state across
workers, so a run is described by *how to rebuild it*: a zero-argument
workload factory (a module-level function or ``functools.partial`` of
one — closures won't pickle) plus an :class:`EngineSpec` naming which
plan to construct around the workload. Every worker rebuilds the same
workload, replays the same globally ordered update stream, and processes
only the updates routed to its shard, which is what makes the merged run
bit-equivalent to the serial one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.errors import ParallelError
from repro.faults.plan import FaultSpec
from repro.parallel.adaptivity import AdaptivityConfig

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.api import EngineConfig


@dataclass(frozen=True)
class EngineSpec:
    """Which plan a shard runs; ``build`` constructs it for a workload.

    ``config`` is the :class:`~repro.api.EngineConfig` the plan is built
    from (None = its defaults); derive specs with
    :meth:`~repro.api.EngineConfig.engine_spec`. Kinds:

    * ``"acaching"`` — the full adaptive engine, built by
      :func:`repro.api.build_adaptive_engine`.
    * ``"static"`` — an MJoin with a fixed cache set, built by
      :func:`repro.api.build_static_plan` (what
      :meth:`repro.api.Session.static` builds).
    * ``"mjoin"`` — a bare, policy-free :class:`MJoinExecutor`.
    * ``"xjoin"`` — an :class:`XJoinExecutor` over ``tree``.
    """

    kind: str = "acaching"
    config: Optional[EngineConfig] = None
    tree: Optional[object] = None              # xjoin JoinTree

    def __post_init__(self) -> None:
        if self.config is None:
            from repro.api import EngineConfig

            object.__setattr__(self, "config", EngineConfig())

    def build(self, workload):
        """Construct the plan this spec describes for ``workload``."""
        if self.kind == "acaching":
            from repro.api import build_adaptive_engine

            return build_adaptive_engine(workload, self.config)
        if self.kind == "static":
            from repro.api import build_static_plan

            return build_static_plan(workload, self.config)
        if self.kind == "mjoin":
            from repro.mjoin.executor import MJoinExecutor

            return MJoinExecutor(
                workload.graph,
                orders=self.config.orders,
                indexed_attributes=workload.indexed_attributes,
            )
        if self.kind == "xjoin":
            from repro.xjoin.executor import XJoinExecutor

            if self.tree is None:
                raise ParallelError("xjoin EngineSpec needs a join tree")
            return XJoinExecutor(
                workload.graph,
                self.tree,
                indexed_attributes=workload.indexed_attributes,
            )
        raise ParallelError(f"unknown engine kind {self.kind!r}")


# What a shard sends back about its emitted results. ``none`` keeps
# throughput runs cheap, ``canonical`` ships rid-free multiset keys (chaos compares
# values, not identities), ``deltas`` ships full OutputDeltas tagged with
# their source-update seq for the global-order merge.
OUTPUT_MODES = ("none", "canonical", "deltas")


@dataclass(frozen=True)
class ReshardSeed:
    """How a rescaled run resumes where its predecessor stopped.

    ``windows`` is the predecessor's merged final window contents
    (relation -> [(rid, values), ...]); every new shard seeds the rows
    routed to it and then *skips* the first ``skip_source_through``
    positions of the replayed global stream — the stream prefix those
    windows already reflect. Caches start empty on every shard and are
    re-established by coordinator plan pushes; since cache choices never
    affect visible results, the combined output chronology of the
    stopped run plus the rescaled run is byte-identical to one
    fixed-shard run's (:func:`repro.parallel.engine.output_chronology`).
    """

    skip_source_through: int
    windows: Dict[str, List[Tuple[int, tuple]]]

    def __post_init__(self) -> None:
        if self.skip_source_through < 0:
            raise ParallelError(
                "reshard skip_source_through must be >= 0, got "
                f"{self.skip_source_through}"
            )


@dataclass(frozen=True)
class ExperimentSpec:
    """One shardable run: workload + engine + measurement directives."""

    workload_factory: Callable[[], object]     # picklable, zero-argument
    arrivals: int
    engine: EngineSpec = field(default_factory=EngineSpec)
    fault_spec: Optional[FaultSpec] = None     # rewrite the stream first
    fault_seed: int = 0
    warmup_fraction: float = 0.0               # steady-state measurement
    output_mode: str = "none"
    collect_windows: bool = False              # ship final window contents
    poison_at: Optional[int] = None            # per-shard cache poisoning
    batch_size: int = 1                        # per-shard micro-batch size
    # Telemetry: collect_obs runs each worker under a full Observability
    # session and ships its registry/tracer/decision state back on the
    # ShardResult; profile additionally attaches a live SpanProfiler
    # (implies collect_obs for the return path).
    collect_obs: bool = False
    profile: bool = False
    # Global adaptivity plane (repro.parallel.adaptivity): when set and
    # the run is actually sharded, shards exchange profiler snapshots
    # for coordinator cache plans at epoch boundaries.
    adaptivity: Optional[AdaptivityConfig] = None
    # Elastic resharding: stop cleanly after this many positions of the
    # global stream (an update boundary), so ParallelRun.rescale can
    # hand the suffix to a run with a different shard count ...
    stop_after_updates: Optional[int] = None
    # ... which resumes via this seed (windows + the prefix to skip).
    reshard: Optional[ReshardSeed] = None

    def __post_init__(self) -> None:
        if self.arrivals <= 0:
            raise ParallelError(
                f"arrivals must be positive, got {self.arrivals}"
            )
        if self.batch_size < 1:
            raise ParallelError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if self.output_mode not in OUTPUT_MODES:
            raise ParallelError(
                f"output_mode must be one of {OUTPUT_MODES}, "
                f"got {self.output_mode!r}"
            )
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ParallelError(
                f"warmup_fraction must be in [0, 1), got "
                f"{self.warmup_fraction}"
            )
        if self.adaptivity is not None and self.engine.kind != "acaching":
            raise ParallelError(
                "coordinated adaptivity requires an acaching engine, "
                f"got kind {self.engine.kind!r}"
            )
        if self.stop_after_updates is not None and self.stop_after_updates < 1:
            raise ParallelError(
                "stop_after_updates must be >= 1, got "
                f"{self.stop_after_updates}"
            )
        if self.reshard is not None and self.engine.kind == "xjoin":
            # XJoin materializes intermediate subresults that the window
            # seed cannot reconstruct; resharding it would silently drop
            # results.
            raise ParallelError("xjoin engines cannot be resharded")
