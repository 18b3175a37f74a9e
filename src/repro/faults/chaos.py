"""The chaos harness: run any experiment under a fault schedule.

``python -m repro chaos <experiment> --seed N [--faults k=v,...]`` drives
two runs of the same workload through an adaptive A-Caching engine:

1. a **clean** run (no faults, no resilience) establishing ground truth —
   the emitted-result multiset and the baseline cost per update;
2. a **faulted** run: the update stream rewritten by a seeded
   :class:`FaultPlan`, the engine hardened by a
   :class:`ResilienceController`, and one cache entry deliberately
   poisoned mid-run so the coherence auditor has something to catch.

The report compares the two output multisets (keyed on relation + values,
not rids, so injected rows with fresh identities count only when they
change actual results) and surfaces every degradation counter. With the
same seed the entire faulted run — schedule, decisions, JSONL export —
is byte-identical across invocations.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterator, List, Optional

from repro.api import EngineConfig, build_adaptive_engine
from repro.core.acaching import ACaching, ACachingConfig
from repro.core.profiler import ProfilerConfig
from repro.core.reoptimizer import ReoptimizerConfig
from repro.engine.drive import Driver, drive
from repro.errors import ResilienceError
from repro.faults.auditor import AuditorConfig
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.resilience import ResilienceConfig
from repro.faults.shedding import SheddingConfig
from repro.ordering.agreedy import OrderingConfig
from repro.parallel.engine import ParallelConfig, run_sharded
from repro.parallel.spec import ExperimentSpec
from repro.streams.events import canonical_delta
from repro.streams.tuples import Row
from repro.streams.workloads import (
    Workload,
    fig6_workload,
    fig7_workload,
    fig8_workload,
    fig9_workload,
    fig10_workload,
    fig12_workload,
    three_way_chain,
)

POISON_RID = 999_999_983  # a rid no RowFactory or FaultPlan ever assigns


@dataclass(frozen=True)
class ChaosExperiment:
    """One runnable experiment: a workload factory plus chaos defaults."""

    name: str
    build: Callable[[int], Workload]  # arrivals -> fresh workload
    arrivals: int                     # default arrival count
    burst_stream: str                 # stream the default burst rides on


CHAOS_EXPERIMENTS: Dict[str, ChaosExperiment] = {
    "demo": ChaosExperiment(
        "demo",
        lambda a: three_way_chain(
            t_multiplicity=5.0, window_r=96, window_s=96
        ),
        6_000,
        "R",
    ),
    "fig6": ChaosExperiment(
        "fig6", lambda a: fig6_workload(5), 8_000, "R"
    ),
    "fig7": ChaosExperiment(
        "fig7", lambda a: fig7_workload(0.5), 8_000, "R"
    ),
    "fig8": ChaosExperiment(
        "fig8", lambda a: fig8_workload(1.0), 8_000, "R"
    ),
    "fig9": ChaosExperiment(
        "fig9", lambda a: fig9_workload(4), 6_000, "R1"
    ),
    "fig10": ChaosExperiment(
        "fig10", lambda a: fig10_workload(128), 6_000, "R"
    ),
    "fig12": ChaosExperiment(
        "fig12",
        lambda a: fig12_workload(burst_after_arrivals=a // 2),
        12_000,
        "R",
    ),
}


def resolve_experiment(experiment: str) -> ChaosExperiment:
    """Resolve an experiment name: the built-in registry first, then the
    scenario library's ``scenario:``/``scenario-file:``/``trace:`` prefixes.

    The scenario import is lazy — :mod:`repro.scenarios.library` imports
    this module for :class:`ChaosExperiment`.
    """
    exp = CHAOS_EXPERIMENTS.get(experiment)
    if exp is not None:
        return exp
    if experiment.startswith(("scenario:", "scenario-file:", "trace:")):
        from repro.scenarios.library import resolve_chaos_experiment

        return resolve_chaos_experiment(experiment)
    raise ResilienceError(
        f"unknown chaos experiment {experiment!r}; available: "
        f"{sorted(CHAOS_EXPERIMENTS)}, any 'scenario:NAME' from the "
        "scenario library, or a 'scenario-file:PATH'/'trace:PATH' reference"
    )


def _build_workload(experiment: str, arrivals: int) -> Workload:
    """Module level so ``partial(_build_workload, name, n)`` pickles."""
    return resolve_experiment(experiment).build(arrivals)


@dataclass
class ChaosReport:
    """Everything one chaos run measured."""

    experiment: str
    seed: int
    arrivals: int
    spec: FaultSpec
    shards: int = 1
    backend: str = "serial"
    injected: Dict[str, int] = field(default_factory=dict)
    poisonings: int = 0
    summary: Dict[str, object] = field(default_factory=dict)
    clean_outputs: int = 0
    faulted_outputs: int = 0
    missing_outputs: int = 0   # in clean, absent from faulted
    extra_outputs: int = 0     # in faulted, absent from clean
    clean_throughput: float = 0.0
    faulted_throughput: float = 0.0
    decisions: List[Dict[str, object]] = field(default_factory=list)
    # Quarantined updates the dead-letter buffer retained, in global seq
    # order (``repro chaos --dump-dead-letters`` prints them).
    dead_letters: List[object] = field(default_factory=list)

    @property
    def discrepancy(self) -> int:
        """Symmetric-difference size of the two output multisets."""
        return self.missing_outputs + self.extra_outputs

    @property
    def discrepancy_ratio(self) -> float:
        return self.discrepancy / max(1, self.clean_outputs)


def parse_fault_overrides(text: Optional[str]) -> Dict[str, str]:
    """Parse a ``k=v,k=v`` ``--faults`` argument into an override dict."""
    if not text:
        return {}
    overrides: Dict[str, str] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ResilienceError(
                f"bad --faults entry {part!r}: expected key=value"
            )
        key, _, value = part.partition("=")
        overrides[key.strip()] = value.strip()
    return overrides


def _chaos_config(resilience: Optional[ResilienceConfig]) -> ACachingConfig:
    return ACachingConfig(
        profiler=ProfilerConfig(
            window=10, profile_probability=0.05, bloom_window_tuples=256
        ),
        reoptimizer=ReoptimizerConfig(
            reopt_interval_updates=1500,
            profiling_phase_updates=300,
            global_quota=6,
        ),
        ordering=OrderingConfig(interval_updates=1500),
        adaptive_ordering=True,
        resilience=resilience,
    )


def _engine(workload: Workload, resilience: Optional[ResilienceConfig]) -> ACaching:
    return build_adaptive_engine(
        workload, EngineConfig(tuning=_chaos_config(resilience))
    )


def _drive(
    engine: ACaching, updates: Iterator, batch_size: int = 1
) -> Counter:
    """The run's rid-free output multiset: values, not identities, so
    injected rows matter only when they change actual join results."""
    return Counter(map(canonical_delta, drive(engine, updates, batch_size)))


def _poison_one_entry(engine: ACaching) -> bool:
    """Swap one cached row for a fake-rid impostor (deterministically the
    first entry of the first wired cache that has one). Returns success."""
    wiring = engine.reoptimizer.wiring
    for candidate_id in sorted(wiring.wired):
        wired = wiring.wired[candidate_id]
        for _key, value in wired.cache.store.entries():
            for identity, rows in value.items():
                # Segment tuples are laid out as cache.segment: row 0 is
                # the segment's first relation.
                poisoned = Row(POISON_RID, rows[0].values)
                value[identity] = (poisoned,) + rows[1:]
                return True
    return False


def _run_chaos_sharded(
    experiment: str,
    exp: ChaosExperiment,
    seed: int,
    total: int,
    spec: FaultSpec,
    parallel: ParallelConfig,
    batch_size: int = 1,
) -> ChaosReport:
    """The sharded chaos run: both the clean and the faulted pass go
    through the parallel engine, so resilience is exercised per shard and
    the report's degradation counters are the merged fleet-wide view.

    The adaptivity decision log stays empty here — decisions are made
    inside worker processes; ``decision_count`` still surfaces via the
    merged stats.
    """
    factory = partial(_build_workload, experiment, total)

    clean = run_sharded(
        ExperimentSpec(
            workload_factory=factory,
            arrivals=total,
            engine=EngineConfig(
                tuning=_chaos_config(None)
            ).engine_spec("adaptive"),
            output_mode="canonical",
            batch_size=batch_size,
        ),
        parallel,
    )
    clean_outputs = clean.merged_canonical()
    clean_cost = clean.stats.total_work_us / max(
        1, clean.stats.updates_processed
    )

    resilience = ResilienceConfig(
        shedding=SheddingConfig(
            budget_us_per_update=max(1.0, clean_cost * 3.0),
            window_updates=200,
        ),
        auditor=AuditorConfig(
            audit_every_updates=400,
            entries_per_audit=6,
            rebuild_after_updates=1500,
        ),
    )
    faulted = run_sharded(
        ExperimentSpec(
            workload_factory=factory,
            arrivals=total,
            engine=EngineConfig(
                tuning=_chaos_config(resilience)
            ).engine_spec("adaptive"),
            fault_spec=spec,
            fault_seed=seed,
            output_mode="canonical",
            poison_at=spec.poison_at,
            batch_size=batch_size,
        ),
        parallel,
    )
    faulted_outputs = faulted.merged_canonical()

    # Injected-fault counts describe the global stream, which every shard
    # replays identically; one engine-free pass recovers them.
    plan = FaultPlan(spec, seed=seed)
    for _ in plan.updates(exp.build(total).updates(total)):
        pass

    missing = clean_outputs - faulted_outputs
    extra = faulted_outputs - clean_outputs
    return ChaosReport(
        experiment=experiment,
        seed=seed,
        arrivals=total,
        spec=spec,
        shards=parallel.shards,
        backend=parallel.backend,
        injected=dict(plan.counts),
        poisonings=faulted.stats.poisonings,
        summary=faulted.merged_resilience_summary(),
        clean_outputs=sum(clean_outputs.values()),
        faulted_outputs=sum(faulted_outputs.values()),
        missing_outputs=sum(missing.values()),
        extra_outputs=sum(extra.values()),
        clean_throughput=clean.stats.modeled_throughput,
        faulted_throughput=faulted.stats.modeled_throughput,
        decisions=[],
        dead_letters=faulted.merged_dead_letters(),
    )


def run_chaos(
    experiment: str,
    seed: int = 0,
    arrivals: Optional[int] = None,
    overrides: Optional[Dict[str, str]] = None,
    shards: int = 1,
    backend: str = "serial",
    batch_size: int = 1,
) -> ChaosReport:
    """Run one experiment clean and faulted; return the comparison.

    ``batch_size > 1`` drives both passes through micro-batched
    execution. Join results are per-update identical, but the faulted
    comparison may legitimately drift slightly: load shedding triggers on
    virtual time, which batching changes.
    """
    exp = resolve_experiment(experiment)
    total = arrivals if arrivals is not None else exp.arrivals
    if total <= 0:
        raise ResilienceError("arrivals must be positive")
    if batch_size < 1:
        raise ResilienceError(
            f"batch_size must be >= 1, got {batch_size}"
        )
    parallel = ParallelConfig(shards=shards, backend=backend)

    # Validate the fault schedule up front: a bad --faults value should
    # fail fast, not after a full clean run.
    spec = FaultSpec.default_schedule(exp.burst_stream, total)
    if overrides:
        spec = spec.with_overrides(overrides)

    if parallel.active:
        return _run_chaos_sharded(
            experiment, exp, seed, total, spec, parallel, batch_size
        )

    # Clean run: ground truth, and the shedding budget's baseline.
    clean_engine = _engine(exp.build(total), None)
    clean_outputs = _drive(
        clean_engine, exp.build(total).updates(total), batch_size
    )
    clean_ctx = clean_engine.ctx
    clean_cost = clean_ctx.clock.now_us / max(
        1, clean_ctx.metrics.updates_processed
    )

    plan = FaultPlan(spec, seed=seed)
    resilience = ResilienceConfig(
        shedding=SheddingConfig(
            budget_us_per_update=max(1.0, clean_cost * 3.0),
            window_updates=200,
        ),
        auditor=AuditorConfig(
            audit_every_updates=400,
            entries_per_audit=6,
            rebuild_after_updates=1500,
        ),
    )
    engine = _engine(exp.build(total), resilience)
    ctx = engine.ctx

    faulted_outputs: Counter = Counter()
    poisonings = 0
    processed = 0

    def tally(_update, deltas) -> None:
        # Called at a safe point, so a batched run's poisoning lands at
        # the first batch boundary past poison_at.
        nonlocal poisonings, processed
        for delta in deltas:
            faulted_outputs[canonical_delta(delta)] += 1
        processed += 1
        if (
            spec.poison_at is not None
            and poisonings == 0
            and processed >= spec.poison_at
            and _poison_one_entry(engine)
        ):
            poisonings = 1

    driver = Driver(engine, tally, batch_size)
    for update in plan.updates(exp.build(total).updates(total)):
        driver.offer(update)
    driver.flush()

    missing = clean_outputs - faulted_outputs
    extra = faulted_outputs - clean_outputs
    assert engine.resilience is not None
    return ChaosReport(
        experiment=experiment,
        seed=seed,
        arrivals=total,
        spec=spec,
        injected=dict(plan.counts),
        poisonings=poisonings,
        summary=engine.resilience.summary(),
        clean_outputs=sum(clean_outputs.values()),
        faulted_outputs=sum(faulted_outputs.values()),
        missing_outputs=sum(missing.values()),
        extra_outputs=sum(extra.values()),
        clean_throughput=clean_ctx.metrics.throughput(
            clean_ctx.clock.now_seconds
        ),
        faulted_throughput=ctx.metrics.throughput(ctx.clock.now_seconds),
        decisions=[r.to_dict() for r in ctx.obs.decisions.entries()],
        dead_letters=(
            list(engine.resilience.guard.dead_letters.entries())
            if engine.resilience.guard is not None
            else []
        ),
    )


def format_chaos_report(report: ChaosReport) -> str:
    """Human-readable chaos summary for the CLI."""
    s = report.summary
    sharding = (
        f", {report.shards} shards ({report.backend})"
        if report.shards > 1
        else ""
    )
    lines = [
        f"chaos {report.experiment} — seed {report.seed}, "
        f"{report.arrivals} arrivals{sharding}",
        "=" * 60,
        "injected faults:",
    ]
    for kind, count in sorted(report.injected.items()):
        lines.append(f"  {kind:<20} {count:>8}")
    lines.append(f"  {'cache_poisonings':<20} {report.poisonings:>8}")
    lines.append("degradation response:")
    lines.append(f"  {'quarantined':<20} {s.get('quarantined', 0):>8}")
    for reason, count in sorted(
        dict(s.get("quarantined_by_reason", {})).items()
    ):
        lines.append(f"    {reason:<18} {count:>8}")
    lines.append(f"  {'shed updates':<20} {s.get('shed_total', 0):>8}")
    for stream, count in sorted(dict(s.get("shed_by_stream", {})).items()):
        lines.append(f"    ∆{stream:<17} {count:>8}")
    lines.append(
        f"  {'coherence detached':<20} {s.get('coherence_detached', 0):>8}"
    )
    lines.append(
        f"  {'coherence rebuilt':<20} {s.get('coherence_rebuilt', 0):>8}"
    )
    lines.append(
        f"  degraded at end: {'yes' if s.get('degraded') else 'no'}"
    )
    lines.append("result fidelity vs clean run:")
    lines.append(f"  {'clean outputs':<20} {report.clean_outputs:>8}")
    lines.append(f"  {'faulted outputs':<20} {report.faulted_outputs:>8}")
    lines.append(
        f"  {'discrepancy':<20} {report.discrepancy:>8}  "
        f"(missing {report.missing_outputs}, extra {report.extra_outputs}; "
        f"{report.discrepancy_ratio:.1%} of clean)"
    )
    lines.append(
        f"  throughput: clean {report.clean_throughput:,.0f}/s, "
        f"faulted {report.faulted_throughput:,.0f}/s"
    )
    return "\n".join(lines)


def format_dead_letters(report: ChaosReport) -> str:
    """The retained quarantined updates, one line each, oldest first."""
    lines = [
        f"dead letters ({len(report.dead_letters)} retained):",
    ]
    if not report.dead_letters:
        lines.append("  (none)")
        return "\n".join(lines)
    for entry in report.dead_letters:
        sign = "+" if entry.sign == "INSERT" else "-"
        lines.append(
            f"  seq={entry.seq:<8} {sign}∆{entry.relation:<4} "
            f"rid={entry.rid:<12} {entry.reason}"
        )
    return "\n".join(lines)


def chaos_to_jsonl(report: ChaosReport) -> str:
    """Deterministic JSONL export: one summary line + every decision."""
    summary_payload = {
        "kind": "chaos_summary",
        "experiment": report.experiment,
        "seed": report.seed,
        "arrivals": report.arrivals,
        "shards": report.shards,
        "backend": report.backend,
        "injected": dict(sorted(report.injected.items())),
        "poisonings": report.poisonings,
        "resilience": report.summary,
        "clean_outputs": report.clean_outputs,
        "faulted_outputs": report.faulted_outputs,
        "missing_outputs": report.missing_outputs,
        "extra_outputs": report.extra_outputs,
        "discrepancy": report.discrepancy,
        "discrepancy_ratio": report.discrepancy_ratio,
    }
    lines = [json.dumps(summary_payload, sort_keys=True)]
    for decision in report.decisions:
        lines.append(json.dumps(decision, sort_keys=True))
    return "\n".join(lines)
