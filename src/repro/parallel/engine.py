"""The parallel engine: fan shards out, merge results back.

Two backends execute the same :func:`repro.parallel.shard.run_shard`
computation:

* ``"serial"`` (serial-shards) — every shard runs in this process, one
  after another. Deterministic, dependency-free, and what tests and CI
  use; the virtual clocks still record per-shard cost, so modeled
  parallel throughput is identical to the process backend's.
* ``"process"`` — one OS process per shard, run by the supervisor in
  :mod:`repro.parallel.supervisor`. Real wall-clock parallelism on
  multicore hardware; the spec is pickled to each worker, which rebuilds
  the workload and replays the stream locally (no per-update IPC).

Because both backends run the exact same per-shard computation on the
exact same routed sub-streams, their merged outputs and merged statistics
are equal — a property the test suite asserts — and so is a restarted
worker's; either way the run is one :class:`ParallelRun`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.errors import ParallelError
from repro.parallel.adaptivity import (
    CachePlan,
    EpochCoordinator,
    ThreadChannel,
)
from repro.parallel.partitioner import PartitionScheme, scheme_for_workload
from repro.parallel.shard import ShardResult, TaggedDelta, run_shard
from repro.parallel.spec import ExperimentSpec, ReshardSeed
from repro.parallel.stats import MergedStats, StatsMerger

if TYPE_CHECKING:  # the supervisor (and multiprocessing) load on first use
    from repro.parallel.supervisor import Supervisor, WorkerCrash

BACKENDS = ("serial", "process")


@dataclass(frozen=True)
class ParallelConfig:
    """How an experiment should be sharded, if at all."""

    shards: int = 1
    backend: str = "serial"

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ParallelError(
                f"shard count must be >= 1, got {self.shards}"
            )
        if self.backend not in BACKENDS:
            raise ParallelError(
                f"parallel backend must be one of {BACKENDS}, "
                f"got {self.backend!r}"
            )

    @property
    def active(self) -> bool:
        """True when execution is actually split across shards."""
        return self.shards > 1


@dataclass
class ParallelRun:
    """One merged sharded run."""

    scheme: PartitionScheme
    backend: str
    results: List[ShardResult]
    stats: MergedStats
    source_updates: int
    wall_seconds: float
    #: the spec that produced this run (enables :meth:`rescale`).
    spec: ExperimentSpec
    #: coordinator cache plans in epoch order (coordinated runs only).
    cache_plans: Tuple[CachePlan, ...] = ()
    #: coordinator decision records as dicts (coordinated runs only).
    coordinator_decisions: List[dict] = field(default_factory=list)
    #: supervision history (process runs only): shard -> restart count,
    #: the circuit-broken shards, and the supervisor's decision records.
    restarts: Dict[int, int] = field(default_factory=dict)
    fallbacks: List[int] = field(default_factory=list)
    decisions: List[Dict[str, object]] = field(default_factory=list)

    @property
    def total_restarts(self) -> int:
        return sum(self.restarts.values())

    def merged_deltas(self) -> List[TaggedDelta]:
        """All emitted deltas restored to the global arrival order.

        Ordered by (source seq, shard, emission index): every source
        update's results appear at its position in the global stream; a
        broadcast update that produced results on several shards lists
        them in shard order. Within one (update, shard) pair the engine's
        own emission order is preserved.
        """
        tagged: List[Tuple[int, int, int, object]] = []
        for result in self.results:
            shard = result.stats.shard
            for seq, index, delta in result.deltas:
                tagged.append((seq, shard, index, delta))
        tagged.sort(key=lambda t: (t[0], t[1], t[2]))
        return [(seq, index, delta) for seq, _shard, index, delta in tagged]

    def merged_canonical(self) -> Counter:
        """The rid-free result multiset across all shards."""
        merged: Counter = Counter()
        for result in self.results:
            if result.canonical:
                merged.update(result.canonical)
        return merged

    def merged_windows(self) -> Dict[str, List[Tuple[int, tuple]]]:
        """Final per-relation window contents, reassembled globally.

        Partitioned relations hold disjoint row sets per shard (union);
        broadcast relations hold a full copy everywhere (all copies must
        agree, and shard 0's is returned).
        """
        merged: Dict[str, List[Tuple[int, tuple]]] = {}
        broadcast = set(self.scheme.broadcast)
        for result in self.results:
            if result.windows is None:
                raise ParallelError(
                    "shard run did not collect windows "
                    "(ExperimentSpec.collect_windows=False)"
                )
            for name, rows in result.windows.items():
                if name in broadcast and self.scheme.shard_count > 1:
                    previous = merged.get(name)
                    if previous is not None and previous != rows:
                        raise ParallelError(
                            f"broadcast relation {name!r} diverged "
                            f"between shards"
                        )
                    merged[name] = rows
                else:
                    merged.setdefault(name, []).extend(rows)
        for name, rows in merged.items():
            if name not in broadcast or self.scheme.shard_count == 1:
                rows.sort(key=lambda pair: pair[0])
        return merged

    def merged_resilience_summary(self) -> Dict[str, object]:
        """Global degradation counters across shards."""
        return StatsMerger().merge_summaries(
            [result.resilience_summary for result in self.results]
        )

    def merged_dead_letters(self) -> List[object]:
        """Every retained quarantined update, in global seq order."""
        merged = [
            entry
            for result in self.results
            for entry in result.dead_letters
        ]
        merged.sort(key=lambda entry: entry.seq)
        return merged

    def merged_telemetry(self):
        """Worker observability merged under ``shard`` labels.

        Returns a :class:`~repro.obs.merge.MergedTelemetry` — one global
        registry where every per-shard counter also appears labelled
        ``shard="N"`` — or raises when the run was not executed with
        ``collect_obs``/``profile`` on its :class:`ExperimentSpec`.
        Coordinator decisions from the global adaptivity plane fold into
        the merged decision chronology tagged ``source="coordinator"``.
        """
        from repro.obs.merge import merge_telemetry

        snapshots = [result.telemetry for result in self.results]
        if any(snapshot is None for snapshot in snapshots):
            raise ParallelError(
                "shard run did not collect telemetry "
                "(ExperimentSpec.collect_obs/profile=False)"
            )
        return merge_telemetry(
            snapshots,
            coordinator_decisions=self.coordinator_decisions,
        )

    def rescale(
        self, new_shards: int, backend: Optional[str] = None
    ) -> "ParallelRun":
        """Continue this stopped run at a different shard count.

        Requires a run executed with ``spec.stop_after_updates`` and
        ``collect_windows=True``: the merged final windows seed the new
        shards under the new partitioning, and the new run skips the
        stream prefix those windows already reflect. Caches restart
        empty (the coordinator re-establishes them at the next epoch),
        and since cache choices never affect visible results,
        ``output_chronology(stopped, rescaled)`` is byte-identical to a
        fixed-shard run's over the full stream (cache wiring can reorder
        emissions *inside* one update, which the chronology normalizes —
        the same rid-free form every acaching equivalence check uses).
        """
        if self.spec.stop_after_updates is None:
            raise ParallelError(
                "rescale requires a run stopped at an update boundary "
                "(ExperimentSpec.stop_after_updates)"
            )
        seed = ReshardSeed(
            skip_source_through=self.spec.stop_after_updates,
            windows=self.merged_windows(),
        )
        resumed = replace(
            self.spec, reshard=seed, stop_after_updates=None
        )
        config = ParallelConfig(
            shards=new_shards,
            backend=backend if backend is not None else self.backend,
        )
        return ParallelEngine(config).run(resumed)


def output_chronology(*runs: ParallelRun) -> List[Tuple[int, tuple]]:
    """A canonical, order-stable rendering of runs' merged output.

    One ``(seq, sorted canonical deltas)`` entry per source update, rid-
    free and sorted within the update — the representation that is
    byte-identical across runs whenever the visible results are, however
    the engine's cache wiring happened to order emissions inside one
    update. Pass a stopped run plus its rescaled continuation to compare
    the pair against one fixed-shard run.
    """
    from repro.streams.events import canonical_delta

    groups: Dict[int, List[tuple]] = {}
    for run in runs:
        for seq, _index, delta in run.merged_deltas():
            groups.setdefault(seq, []).append(canonical_delta(delta))
    return [
        (seq, tuple(sorted(groups[seq]))) for seq in sorted(groups)
    ]


def count_source_updates(spec: ExperimentSpec) -> int:
    """How many updates the (possibly faulted) global stream contains."""
    from repro.faults.plan import FaultPlan

    workload = spec.workload_factory()
    updates = workload.updates(spec.arrivals)
    if spec.fault_spec is not None:
        updates = FaultPlan(spec.fault_spec, seed=spec.fault_seed).updates(
            updates
        )
    return sum(1 for _ in updates)


class ParallelEngine:
    """Runs one :class:`ExperimentSpec` sharded and merges the pieces.

    Process-backend workers run under ``supervisor`` (a default
    :class:`Supervisor` when None); giving one also puts a one-shard
    run in a worker."""

    def __init__(
        self, config: ParallelConfig, supervisor: Optional[Supervisor] = None
    ):
        self.config = config
        self.supervisor = supervisor

    def run(
        self, spec: ExperimentSpec, crashes: Sequence[WorkerCrash] = ()
    ) -> ParallelRun:
        """Fan the experiment out over shards and merge the results;
        ``crashes`` inject deterministic worker kills."""
        import time

        shards = self.config.shards
        workers = self.config.backend == "process" and (
            shards > 1 or self.supervisor is not None
        )
        for crash in crashes:  # a crash kills a worker process
            if not workers or crash.shard >= shards:
                raise ParallelError(
                    f"crash targets shard {crash.shard}, run has "
                    f"{shards if workers else 0} worker processes"
                )
        scheme = scheme_for_workload(spec.workload_factory(), shards)
        coordinator: Optional[EpochCoordinator] = None
        if spec.adaptivity is not None and shards > 1:
            coordinator = EpochCoordinator(spec, shards)
        history: Dict[str, object] = {}
        started = time.perf_counter()
        if workers:
            from repro.parallel.supervisor import Supervisor

            results, history = (self.supervisor or Supervisor()).supervise(
                spec, shards, coordinator, crashes
            )
        elif coordinator is not None:
            results = self._run_threads_coordinated(
                spec, shards, scheme, coordinator
            )
        else:
            results = [
                run_shard(spec, shard, shards, scheme=scheme)
                for shard in range(shards)
            ]
        wall = time.perf_counter() - started
        source_updates = count_source_updates(spec)
        stats = StatsMerger().merge(
            [result.stats for result in results],
            source_updates=source_updates,
        )
        return ParallelRun(
            scheme=scheme,
            backend=self.config.backend,
            results=results,
            stats=stats,
            source_updates=source_updates,
            wall_seconds=wall,
            spec=spec,
            cache_plans=(
                coordinator.plans_in_order() if coordinator else ()
            ),
            coordinator_decisions=(
                [record.to_dict() for record in coordinator.decisions.entries()]
                if coordinator
                else []
            ),
            **history,
        )

    def _run_threads_coordinated(
        self,
        spec: ExperimentSpec,
        shards: int,
        scheme: PartitionScheme,
        coordinator: EpochCoordinator,
    ) -> List[ShardResult]:
        """Coordinated shards under the serial backend: one thread per
        shard, sharing a :class:`ThreadChannel` barrier. Threads (not a
        sequential loop) because every shard must reach each epoch
        barrier before any can pass it; determinism is preserved because
        the barrier serializes exactly the plan decision, which depends
        only on the submitted snapshots, never on thread timing."""
        import threading

        channel = ThreadChannel(coordinator)
        results: List[Optional[ShardResult]] = [None] * shards
        errors: List[Tuple[int, BaseException]] = []

        def work(shard: int) -> None:
            try:
                results[shard] = run_shard(
                    spec, shard, shards, scheme=scheme, coordination=channel
                )
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append((shard, error))
            finally:
                # Unblock any shard waiting on a barrier this one will
                # never reach (normal completion retires it too, which
                # is harmless: all barriers lie at stream positions every
                # finisher has already passed).
                channel.retire(shard)

        threads = [
            threading.Thread(
                target=work, args=(shard,), name=f"repro-shard-{shard}"
            )
            for shard in range(shards)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            shard, error = min(errors, key=lambda pair: pair[0])
            raise ParallelError(
                f"coordinated shard {shard} failed: {error}"
            ) from error
        return [result for result in results if result is not None]


def run_sharded(
    spec: ExperimentSpec, parallel: ParallelConfig
) -> ParallelRun:
    """Convenience wrapper: build the engine and run one experiment."""
    return ParallelEngine(parallel).run(spec)
