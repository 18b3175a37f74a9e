"""The chaos campaign matrix: scenarios x fault plans x execution modes.

``repro chaos matrix`` sweeps every requested scenario through every
fault plan on every execution mode and verifies the stack's standing
invariants per cell:

* **byte identity** — the cell's output chronology digest equals the
  *serial* run of the same scenario under the same fault plan (for the
  ``none`` plan that serial run *is* the clean replay);
* **zero acked loss** — the run completed and shed nothing;
* **dead-letter conservation** — faulted runs quarantine at least every
  injected corrupt/orphan event (a broadcast corrupt event is counted
  once per shard that saw it), clean runs quarantine nothing;
* **recovery convergence** — crash cells must recover to the clean
  answer (``RECOVERED``), via the PR-5 crash harness on serial runs and
  supervisor restarts on sharded runs.

Fault-hardened cells run a guard-only :class:`ResilienceConfig` —
shedding triggers on virtual time, which batching and sharding change,
so enabling it would (legitimately) break cross-mode byte identity and
tell us nothing about regressions. The guard quarantines by value, so
it is deterministic in every mode.

The sweep itself is deterministic: no wall-clock anywhere in the
payload, so re-running the matrix with the same seed must reproduce
``CHAOS_matrix.json`` byte-for-byte (a property test pins this).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api import EngineConfig
from repro.errors import ScenarioError
from repro.faults.chaos import _build_workload, _chaos_config, resolve_experiment
from repro.faults.crashes import run_crash_chaos
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.resilience import ResilienceConfig
from repro.multi.engine import MultiQueryEngine
from repro.parallel.engine import ParallelConfig, output_chronology, run_sharded
from repro.parallel.spec import ExperimentSpec
from repro.parallel.supervisor import Supervisor, WorkerCrash
from repro.scenarios.library import SCENARIOS, SCENARIO_PREFIX
from repro.scenarios.trace import chronology_digest
from repro.streams.events import canonical_delta

MATRIX_KIND = "chaos_matrix"
MATRIX_VERSION = 1

#: Verdicts a cell can report.
PASS, FAIL, SKIPPED, RECOVERED = "PASS", "FAIL", "SKIPPED", "RECOVERED"


@dataclass(frozen=True)
class FaultPlanDef:
    """One column of the matrix: how a cell's update stream is faulted."""

    name: str
    #: burst_stream, arrivals -> FaultSpec (None for the clean plan).
    spec: Optional[Callable[[str, int], FaultSpec]] = None
    #: crash plans kill the process/worker instead of rewriting updates.
    crash: bool = False


def _dup_reorder(burst_stream: str, arrivals: int) -> FaultSpec:
    return FaultSpec(duplicate_prob=0.01, reorder_prob=0.02)


def _drop_orphan_corrupt(burst_stream: str, arrivals: int) -> FaultSpec:
    return FaultSpec(
        drop_delete_prob=0.004, orphan_delete_prob=0.005, corrupt_prob=0.003
    )


def _burst(burst_stream: str, arrivals: int) -> FaultSpec:
    return FaultSpec(
        burst_stream=burst_stream,
        burst_start=max(1, arrivals // 3),
        burst_length=max(10, arrivals // 10),
        burst_copies=3,
    )


FAULT_PLANS: Dict[str, FaultPlanDef] = {
    "none": FaultPlanDef("none"),
    "dup_reorder": FaultPlanDef("dup_reorder", _dup_reorder),
    "drop_orphan_corrupt": FaultPlanDef(
        "drop_orphan_corrupt", _drop_orphan_corrupt
    ),
    "burst": FaultPlanDef("burst", _burst),
    "crash": FaultPlanDef("crash", crash=True),
}

#: mode -> (shards, batch_size); supervised and multi are special-cased.
EXECUTION_MODES: Dict[str, Tuple[int, int]] = {
    "serial": (1, 1),
    "batched": (1, 8),
    "sharded": (4, 1),
    "supervised": (2, 1),
    "multi": (1, 1),
}


def _engine_spec(faulted: bool):
    resilience = (
        ResilienceConfig(shedding=None, auditor=None) if faulted else None
    )
    return EngineConfig(tuning=_chaos_config(resilience)).engine_spec(
        "adaptive"
    )


def _cell_spec(
    factory,
    total: int,
    fault_spec: Optional[FaultSpec],
    seed: int,
    batch_size: int,
) -> ExperimentSpec:
    return ExperimentSpec(
        workload_factory=factory,
        arrivals=total,
        engine=_engine_spec(fault_spec is not None),
        fault_spec=fault_spec,
        fault_seed=seed,
        output_mode="deltas",
        batch_size=batch_size,
    )


def _injected_counts(
    factory, total: int, fault_spec: Optional[FaultSpec], seed: int
) -> Dict[str, int]:
    """The global stream's injected-fault counts (engine-free pass)."""
    if fault_spec is None:
        return {}
    plan = FaultPlan(fault_spec, seed=seed)
    for _ in plan.updates(factory().updates(total)):
        pass
    return dict(plan.counts)


def _multi_chronology(factory, total: int) -> List[Tuple[int, tuple]]:
    """The clean chronology through the multi-query engine."""
    engine = MultiQueryEngine()
    engine.register(
        "q", factory(), EngineConfig(tuning=_chaos_config(None))
    )
    groups: Dict[int, List[tuple]] = {}
    for update in factory().updates(total):
        deltas = engine.process(update).get("q", [])
        for delta in deltas:
            groups.setdefault(update.seq, []).append(canonical_delta(delta))
    return [(seq, tuple(sorted(groups[seq]))) for seq in sorted(groups)]


def _run_cell(
    scenario: str,
    factory,
    total: int,
    plan: FaultPlanDef,
    mode: str,
    seed: int,
    fault_spec: Optional[FaultSpec],
    injected: Dict[str, int],
    reference_digest: Optional[str],
) -> Dict[str, object]:
    cell: Dict[str, object] = {
        "scenario": scenario,
        "plan": plan.name,
        "mode": mode,
        "verdict": SKIPPED,
        "digest": None,
        "reference_digest": reference_digest,
        "invariants": {},
        "outputs": 0,
        "updates": 0,
        "quarantined": 0,
        "shed": 0,
        "restarts": 0,
        "injected": dict(sorted(injected.items())),
        "detail": "",
    }

    if plan.crash and mode not in ("serial", "supervised"):
        cell["detail"] = (
            "crash plans need a restartable runtime; covered by the "
            "serial and supervised cells"
        )
        return cell
    if mode == "multi" and plan.name != "none":
        cell["detail"] = (
            "the multi-query engine rejects fault-hardened configs; "
            "clean byte-identity is the invariant this mode contributes"
        )
        return cell

    if plan.crash and mode == "serial":
        report = run_crash_chaos(
            scenario,
            seed=seed,
            arrivals=total,
            kind="at_event",
            checkpoint_interval=max(50, total // 8),
        )
        recovered = bool(report.verified)
        cell.update(
            verdict=RECOVERED if recovered else FAIL,
            invariants={"recovery_convergence": recovered},
            outputs=report.outputs_recovered,
            detail=f"crash at update {report.kill_at}, kind at_event",
        )
        return cell

    if mode == "multi":
        chronology = _multi_chronology(factory, total)
        digest = chronology_digest(chronology)
        identical = digest == reference_digest
        cell.update(
            verdict=PASS if identical else FAIL,
            digest=digest,
            invariants={
                "byte_identical": identical,
                "zero_acked_loss": True,
                "dead_letter_conservation": True,
            },
            outputs=sum(len(deltas) for _seq, deltas in chronology),
        )
        return cell

    shards, batch_size = EXECUTION_MODES[mode]
    spec = _cell_spec(factory, total, fault_spec, seed, batch_size)
    if mode == "supervised":
        crashes = (
            [WorkerCrash(shard=0, after_updates=max(50, total // 8))]
            if plan.crash
            else []
        )
        run = Supervisor().run(spec, shards, crashes=crashes)
        restarts = run.total_restarts
    else:
        run = run_sharded(
            spec, ParallelConfig(shards=shards, backend="serial")
        )
        restarts = 0

    digest = chronology_digest(output_chronology(run))
    identical = (
        digest == reference_digest if reference_digest is not None else True
    )
    quarantined = run.stats.quarantined
    shed = run.stats.shed_updates
    must_quarantine = injected.get("corrupted", 0) + injected.get(
        "orphans", 0
    )
    conservation = (
        quarantined >= must_quarantine
        if fault_spec is not None
        else quarantined == 0
    )
    zero_loss = shed == 0
    invariants = {
        "byte_identical": identical,
        "zero_acked_loss": zero_loss,
        "dead_letter_conservation": conservation,
    }
    if plan.crash:
        invariants["recovery_convergence"] = identical
        verdict = RECOVERED if all(invariants.values()) else FAIL
    else:
        verdict = PASS if all(invariants.values()) else FAIL
    cell.update(
        verdict=verdict,
        digest=digest,
        invariants=invariants,
        outputs=len(run.merged_deltas()),
        updates=run.stats.updates_processed,
        quarantined=quarantined,
        shed=shed,
        restarts=restarts,
    )
    return cell


def run_matrix(
    scenarios: Optional[Sequence[str]] = None,
    plans: Optional[Sequence[str]] = None,
    modes: Optional[Sequence[str]] = None,
    arrivals: int = 1500,
    seed: int = 11,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Run the campaign; return the deterministic ``chaos_matrix`` payload.

    ``scenarios`` entries are experiment names — bare built-in scenario
    names (``flash_crowd``), ``scenario:NAME``, ``scenario-file:PATH``,
    or ``trace:PATH``. Every (scenario, fault plan) pair's serial run is
    the byte-identity reference for the other modes of that pair; crash
    cells reference the clean (``none``-plan) serial digest.
    """
    names = list(
        scenarios
        if scenarios is not None
        else [SCENARIO_PREFIX + key for key in SCENARIOS]
    )
    names = [
        SCENARIO_PREFIX + name if name in SCENARIOS else name
        for name in names
    ]
    plan_names = list(plans if plans is not None else FAULT_PLANS)
    mode_names = list(modes if modes is not None else EXECUTION_MODES)
    for plan in plan_names:
        if plan not in FAULT_PLANS:
            raise ScenarioError(
                f"unknown fault plan {plan!r}; available: "
                f"{sorted(FAULT_PLANS)}"
            )
    for mode in mode_names:
        if mode not in EXECUTION_MODES:
            raise ScenarioError(
                f"unknown execution mode {mode!r}; available: "
                f"{sorted(EXECUTION_MODES)}"
            )
    if arrivals < 1:
        raise ScenarioError("arrivals must be >= 1")

    say = progress if progress is not None else (lambda line: None)
    cells: List[Dict[str, object]] = []
    for name in names:
        experiment = resolve_experiment(name)  # validates the reference
        total = min(arrivals, experiment.arrivals) if name.startswith(
            "trace:"
        ) else arrivals
        # Module-level partial: built-in experiments build via lambdas,
        # and supervised cells must ship the factory to worker processes.
        factory = partial(_build_workload, name, total)
        references: Dict[str, str] = {}

        def serial_reference(plan: FaultPlanDef) -> str:
            """The plan's serial digest (computed once per pair)."""
            if plan.name not in references:
                fault_spec = (
                    plan.spec(experiment.burst_stream, total)
                    if plan.spec is not None
                    else None
                )
                run = run_sharded(
                    _cell_spec(factory, total, fault_spec, seed, 1),
                    ParallelConfig(shards=1, backend="serial"),
                )
                references[plan.name] = chronology_digest(
                    output_chronology(run)
                )
            return references[plan.name]

        for plan_name in plan_names:
            plan = FAULT_PLANS[plan_name]
            fault_spec = (
                plan.spec(experiment.burst_stream, total)
                if plan.spec is not None
                else None
            )
            injected = _injected_counts(factory, total, fault_spec, seed)
            reference = serial_reference(
                FAULT_PLANS["none"] if plan.crash else plan
            )
            for mode in mode_names:
                if plan.crash and mode == "serial":
                    # The crash harness replaces the serial engine run;
                    # its reference is its own internal clean pass.
                    cell_reference: Optional[str] = None
                elif mode == "serial" and not plan.crash:
                    cell_reference = reference
                else:
                    cell_reference = reference
                cell = _run_cell(
                    name,
                    factory,
                    total,
                    plan,
                    mode,
                    seed,
                    fault_spec,
                    injected,
                    cell_reference,
                )
                cells.append(cell)
                say(
                    f"{name} / {plan_name} / {mode}: {cell['verdict']}"
                    + (f" — {cell['detail']}" if cell["detail"] else "")
                )

    verdicts = [c["verdict"] for c in cells]
    return {
        "kind": MATRIX_KIND,
        "version": MATRIX_VERSION,
        "seed": seed,
        "arrivals": arrivals,
        "scenarios": names,
        "plans": plan_names,
        "modes": mode_names,
        "cells": cells,
        "totals": {
            "cells": len(cells),
            "pass": verdicts.count(PASS),
            "fail": verdicts.count(FAIL),
            "recovered": verdicts.count(RECOVERED),
            "skipped": verdicts.count(SKIPPED),
        },
    }


def matrix_to_json(payload: Dict[str, object]) -> str:
    """Stable JSON rendering for the committed artifact."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def format_matrix_report(payload: Dict[str, object]) -> str:
    """Human-readable campaign summary for the CLI."""
    totals = payload["totals"]
    lines = [
        f"chaos matrix — seed {payload['seed']}, "
        f"{payload['arrivals']} arrivals/cell",
        "=" * 60,
        f"{len(payload['scenarios'])} scenarios x "
        f"{len(payload['plans'])} fault plans x "
        f"{len(payload['modes'])} modes = {totals['cells']} cells",
    ]
    for cell in payload["cells"]:
        if cell["verdict"] == SKIPPED:
            continue
        flags = "".join(
            "+" if ok else "!" for ok in cell["invariants"].values()
        )
        lines.append(
            f"  {cell['scenario']:<28} {cell['plan']:<20} "
            f"{cell['mode']:<10} {cell['verdict']:<9} [{flags}]"
        )
    lines.append(
        f"verdicts: {totals['pass']} pass, {totals['recovered']} "
        f"recovered, {totals['skipped']} skipped, {totals['fail']} FAILED"
    )
    return "\n".join(lines)
