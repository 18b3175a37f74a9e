"""Property: quarantine makes duplicate/orphan faults state-invisible.

A :class:`FaultPlan` injecting only duplicate inserts (whose matching
deletes also ride twice) and orphaned deletes perturbs the *stream* but
not the *information* in it. A guarded engine must therefore end in
exactly the clean run's state: same live window contents, same cache
store entries, same emitted-result multiset — with every injected update
accounted for in the dead-letter counters.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EngineConfig, build_static_plan
from repro.bench.figures import CHAIN_ORDERS, FORCED_CACHE
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.resilience import ResilienceConfig
from repro.streams.workloads import three_way_chain

ARRIVALS = 300


def build_plan(guarded: bool):
    workload = three_way_chain(t_multiplicity=3.0, window_r=32, window_s=32)
    resilience = (
        ResilienceConfig(shedding=None, auditor=None) if guarded else None
    )
    plan = build_static_plan(
        workload,
        EngineConfig(
            orders=CHAIN_ORDERS,
            candidate_ids=[FORCED_CACHE],
            resilience=resilience,
        ),
    )
    return plan, workload


def canonical(delta):
    composite = delta.composite
    return (
        int(delta.sign),
        tuple(
            sorted(
                (relation, composite.row(relation).values)
                for relation in composite.relations()
            )
        ),
    )


def drive(plan, updates):
    outputs = Counter()
    for update in updates:
        for delta in plan.process(update):
            outputs[canonical(delta)] += 1
    return outputs


def state_snapshot(plan):
    relations = {
        name: frozenset((row.rid, row.values) for row in rel.rows())
        for name, rel in plan.executor.relations.items()
    }
    stores = {
        cid: {
            key: frozenset(value.keys())
            for key, value in wired.cache.store.entries()
            if value
        }
        for cid, wired in plan.wiring.wired.items()
    }
    return relations, stores


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    duplicate_prob=st.floats(0.0, 0.3),
    orphan_prob=st.floats(0.0, 0.3),
)
def test_duplicate_and_orphan_faults_leave_no_trace(
    seed, duplicate_prob, orphan_prob
):
    clean_plan, clean_workload = build_plan(guarded=False)
    clean_outputs = drive(clean_plan, clean_workload.updates(ARRIVALS))
    clean_state = state_snapshot(clean_plan)

    spec = FaultSpec(
        duplicate_prob=duplicate_prob, orphan_delete_prob=orphan_prob
    )
    fault_plan = FaultPlan(spec, seed=seed)
    guarded_plan, workload = build_plan(guarded=True)
    faulted_outputs = drive(
        guarded_plan, fault_plan.updates(workload.updates(ARRIVALS))
    )

    assert faulted_outputs == clean_outputs
    assert state_snapshot(guarded_plan) == clean_state
    # Every injected update was quarantined, none slipped through.
    expected = (
        fault_plan.counts["duplicates"]
        + fault_plan.counts["duplicate_deletes"]
        + fault_plan.counts["orphans"]
    )
    assert guarded_plan.resilience.quarantined == expected


def test_orphan_deletes_quarantined_without_state_change():
    clean_plan, clean_workload = build_plan(guarded=False)
    clean_outputs = drive(clean_plan, clean_workload.updates(ARRIVALS))
    clean_state = state_snapshot(clean_plan)

    fault_plan = FaultPlan(FaultSpec(orphan_delete_prob=0.2), seed=42)
    guarded_plan, workload = build_plan(guarded=True)
    faulted_outputs = drive(
        guarded_plan, fault_plan.updates(workload.updates(ARRIVALS))
    )

    assert fault_plan.counts["orphans"] > 0
    assert faulted_outputs == clean_outputs
    assert state_snapshot(guarded_plan) == clean_state
    guard = guarded_plan.resilience.guard
    assert guard.by_reason == {"orphan_delete": fault_plan.counts["orphans"]}
