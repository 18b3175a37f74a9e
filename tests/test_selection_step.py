"""One selection step: the shard coordinator decides what the serial
re-optimizer decides.

Selection (§4.5) and memory admission (§5) run in two places: the
serial :class:`~repro.core.reoptimizer.Reoptimizer` and, for sharded
runs, the :class:`~repro.parallel.adaptivity.EpochCoordinator`. A
1-shard coordinator fed one snapshot of an engine pools nothing, so its
plan must equal what that engine's own forced re-optimization admits:
the same cache set and the same bucket counts. The memory budgets are
chosen so admission rejects some selected caches (n = 6, 1600 arrivals
admits 1, 2 and 3 caches under the three finite budgets).

The second half pins the coordinator's epoch plans and decision records
on 2- and 4-shard runs to ``tests/data/coordinator_plans.json``, so any
change to the coordinated decision shows up as a diff of that file.
Regenerate it with ``PYTHONPATH=src python tests/test_selection_step.py``
only for a deliberate change of the decision.
"""

import json
import pathlib
from functools import partial

import pytest

from repro.api import EngineConfig
from repro.core.acaching import ACachingConfig
from repro.core.profiler import ProfilerConfig
from repro.core.reoptimizer import ReoptimizerConfig
from repro.engine.drive import drive
from repro.parallel.adaptivity import (
    AdaptivityConfig,
    EpochCoordinator,
    snapshot_from_plan,
)
from repro.parallel.engine import ParallelConfig, run_sharded
from repro.parallel.spec import ExperimentSpec
from repro.streams.workloads import fig9_workload

SYNC = 200
GOLDEN = pathlib.Path(__file__).parent / "data" / "coordinator_plans.json"


def _spec(relations, arrivals, budget, **overrides):
    config = ACachingConfig(
        profiler=ProfilerConfig(
            deterministic_gate=True, profile_probability=0.5
        ),
        reoptimizer=ReoptimizerConfig(
            reopt_interval_updates=SYNC, memory_budget_bytes=budget
        ),
        adaptive_ordering=False,
    )
    base = dict(
        workload_factory=partial(fig9_workload, relations, window=48),
        arrivals=arrivals,
        engine=EngineConfig(tuning=config).engine_spec("adaptive"),
        adaptivity=AdaptivityConfig(sync_every_updates=SYNC),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


@pytest.mark.parametrize("arrivals", [800, 1600])
@pytest.mark.parametrize("budget", [None, 4096, 20000, 60000])
@pytest.mark.parametrize("relations", [3, 4, 6])
def test_one_shard_coordinator_decides_like_the_reoptimizer(
    relations, budget, arrivals
):
    spec = _spec(relations, arrivals, budget)
    workload = spec.workload_factory()
    engine = spec.engine.build(workload)
    drive(engine, workload.updates(arrivals))

    coordinator = EpochCoordinator(spec, 1)
    deliveries = coordinator.submit(1, 0, snapshot_from_plan(engine, 0, 1))
    assert [shard for shard, _ in deliveries] == [0]
    plan = deliveries[0][1]

    reoptimizer = engine.reoptimizer
    admitted = reoptimizer.reoptimize(force=True)
    assert plan.candidate_ids == tuple(
        sorted(c.candidate_id for c in admitted)
    )
    assert plan.buckets == tuple(
        sorted(
            (c.candidate_id, reoptimizer._bucket_estimate(c))
            for c in admitted
        )
    )


# ---------------------------------------------------------------------------
# golden coordinator logs
# ---------------------------------------------------------------------------
GOLDEN_CASES = [
    (budget, shards) for budget in (None, 20000) for shards in (2, 4)
]


def _case_key(budget, shards):
    return f"budget={budget},shards={shards}"


def _coordinated_log(budget, shards):
    spec = _spec(4, 800, budget)
    run = run_sharded(spec, ParallelConfig(shards=shards, backend="serial"))
    return {
        "plans": [
            [
                plan.epoch,
                list(plan.candidate_ids),
                [list(pair) for pair in plan.buckets],
                plan.applied,
            ]
            for plan in run.cache_plans
        ],
        "decisions": run.coordinator_decisions,
    }


def _normalised(value):
    # JSON round trip: tuples become lists and floats keep their repr.
    return json.loads(json.dumps(value, sort_keys=True))


@pytest.mark.parametrize("budget,shards", GOLDEN_CASES)
def test_coordinator_logs_match_the_golden_file(budget, shards):
    golden = json.loads(GOLDEN.read_text())
    expected = golden[_case_key(budget, shards)]
    assert _normalised(_coordinated_log(budget, shards)) == expected


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {
                _case_key(budget, shards): _normalised(
                    _coordinated_log(budget, shards)
                )
                for budget, shards in GOLDEN_CASES
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN}")
