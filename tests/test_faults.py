"""Fault injection and graceful degradation (repro.faults)."""

import math

import pytest

from repro.api import EngineConfig, build_static_plan
from repro.bench.figures import CHAIN_ORDERS, FORCED_CACHE
from repro.engine.drive import drive
from repro.engine.runtime import run_with_series
from repro.errors import ResilienceError, WorkloadError
from repro.faults.auditor import AuditorConfig
from repro.faults.guard import (
    ARITY_MISMATCH,
    CORRUPT_VALUE,
    DUPLICATE_DELETE,
    DUPLICATE_INSERT,
    ORPHAN_DELETE,
    UNKNOWN_RELATION,
    DeadLetterBuffer,
    QuarantinedUpdate,
)
from repro.faults.plan import CORRUPT, FaultPlan, FaultSpec
from repro.faults.resilience import ResilienceConfig, ResilienceController
from repro.faults.shedding import LoadShedder, SheddingConfig
from repro.mjoin.executor import MJoinExecutor
from repro.obs.decisions import (
    COHERENCE_DETACH,
    COHERENCE_REBUILD,
    QUARANTINE,
    SHED_START,
    SHED_STOP,
)
from repro.operators.base import ExecContext
from repro.streams.events import Sign, Update
from repro.streams.sources import DeficitScheduler
from repro.streams.tuples import Row
from repro.streams.workloads import three_way_chain


def small_chain():
    return three_way_chain(t_multiplicity=3.0, window_r=48, window_s=48)


# ----------------------------------------------------------------------
# FaultSpec / FaultPlan
# ----------------------------------------------------------------------
def fingerprint(plan, source):
    return [
        (u.relation, u.row.rid, u.sign, u.seq, repr(u.row.values))
        for u in plan.updates(source)
    ]


MIXED_SPEC = FaultSpec(
    duplicate_prob=0.05,
    drop_delete_prob=0.02,
    orphan_delete_prob=0.02,
    corrupt_prob=0.01,
    reorder_prob=0.05,
    reorder_skew=3,
    burst_stream="R",
    burst_start=50,
    burst_length=40,
    burst_copies=2,
    burst_linger=16,
)


def test_fault_plan_is_deterministic_per_seed():
    # Fresh workloads per run: stream generators are stateful.
    one = fingerprint(FaultPlan(MIXED_SPEC, seed=7), small_chain().updates(600))
    two = fingerprint(FaultPlan(MIXED_SPEC, seed=7), small_chain().updates(600))
    other = fingerprint(
        FaultPlan(MIXED_SPEC, seed=8), small_chain().updates(600)
    )
    assert one == two
    assert one != other


def test_fault_plan_renumbers_sequences_consecutively():
    workload = small_chain()
    plan = FaultPlan(MIXED_SPEC, seed=1)
    seqs = [u.seq for u in plan.updates(workload.updates(400))]
    assert seqs == list(range(1, len(seqs) + 1))
    assert plan.injected_total > 0


def test_fault_plan_counts_every_kind():
    workload = small_chain()
    plan = FaultPlan(MIXED_SPEC, seed=2)
    list(plan.updates(workload.updates(2000)))
    for kind in (
        "duplicates",
        "dropped_deletes",
        "orphans",
        "corrupted",
        "reordered",
        "burst_inserts",
        "burst_deletes",
    ):
        assert plan.counts[kind] > 0, kind


def test_fault_spec_validation():
    with pytest.raises(ResilienceError):
        FaultSpec(duplicate_prob=1.5).validate()
    with pytest.raises(ResilienceError):
        FaultSpec(reorder_prob=0.1, reorder_skew=0).validate()
    with pytest.raises(ResilienceError):
        FaultSpec(burst_length=-1).validate()


def test_fault_spec_overrides_coerce_and_reject():
    spec = FaultSpec().with_overrides(
        {"duplicate_prob": "0.2", "burst_copies": "3", "burst_stream": "R"}
    )
    assert spec.duplicate_prob == pytest.approx(0.2)
    assert spec.burst_copies == 3
    assert spec.burst_stream == "R"
    with pytest.raises(ResilienceError):
        FaultSpec().with_overrides({"bogus": "1"})
    with pytest.raises(ResilienceError):
        FaultSpec().with_overrides({"duplicate_prob": "not-a-number"})


# ----------------------------------------------------------------------
# Ingress guard
# ----------------------------------------------------------------------
def guarded_executor():
    workload = small_chain()
    executor = MJoinExecutor(
        workload.graph, indexed_attributes=workload.indexed_attributes
    )
    controller = ResilienceController(
        executor, ResilienceConfig(shedding=None, auditor=None)
    )
    executor.resilience = controller
    return executor, controller


def test_guard_quarantines_duplicate_insert_and_extra_delete():
    executor, controller = guarded_executor()
    ins = Update("R", Row(1, (5,)), Sign.INSERT, 1)
    executor.process(ins)
    executor.process(ins)  # the duplicate: quarantined
    assert controller.guard.by_reason == {DUPLICATE_INSERT: 1}
    assert executor.relations["R"].live_row(1) is not None

    dele = Update("R", Row(1, (5,)), Sign.DELETE, 2)
    executor.process(dele)  # pairs with the quarantined duplicate
    executor.process(dele)  # the real delete: admitted
    assert controller.guard.by_reason[DUPLICATE_DELETE] == 1
    assert executor.relations["R"].live_row(1) is None
    assert controller.quarantined == 2


def test_guard_quarantines_malformed_updates():
    executor, controller = guarded_executor()
    cases = [
        (Update("Z", Row(1, (5,)), Sign.INSERT, 1), UNKNOWN_RELATION),
        (Update("S", Row(2, (5,)), Sign.INSERT, 2), ARITY_MISMATCH),
        (Update("R", Row(3, (CORRUPT,)), Sign.INSERT, 3), CORRUPT_VALUE),
        (
            Update("R", Row(4, (float("nan"),)), Sign.INSERT, 4),
            CORRUPT_VALUE,
        ),
        (Update("R", Row(99, (5,)), Sign.DELETE, 5), ORPHAN_DELETE),
    ]
    for update, reason in cases:
        assert executor.process(update) == []
        assert controller.guard.by_reason.get(reason, 0) >= 1, reason
    assert controller.quarantined == len(cases)
    assert len(executor.relations["R"]) == 0
    # Every quarantine landed in the decision log as well.
    actions = [
        r.action for r in executor.ctx.obs.decisions.entries()
    ]
    assert actions.count(QUARANTINE) == len(cases)


def test_dead_letter_buffer_is_bounded():
    buffer = DeadLetterBuffer(capacity=2)
    for i in range(5):
        buffer.add(QuarantinedUpdate("R", i, "INSERT", ORPHAN_DELETE, i))
    assert len(buffer) == 2
    assert buffer.total == 5
    assert buffer.dropped == 3
    assert [e.rid for e in buffer.entries()] == [3, 4]
    with pytest.raises(ValueError):
        DeadLetterBuffer(capacity=0)


# ----------------------------------------------------------------------
# Load shedding
# ----------------------------------------------------------------------
def test_shedder_enters_and_leaves_degraded_mode():
    ctx = ExecContext()
    shedder = LoadShedder(
        SheddingConfig(
            budget_us_per_update=5.0,
            window_updates=2,
            shed_fraction=1.0,
            recover_windows=1,
        )
    )
    for _ in range(2):  # expensive window: 20µs/update
        ctx.clock.charge(20.0)
        shedder.after_update(ctx)
    assert shedder.degraded
    assert shedder.shed_events == 1

    insert = Update("R", Row(1, (5,)), Sign.INSERT, 1)
    assert shedder.should_shed(insert, ctx)
    assert shedder.shed_by_stream == {"R": 1}
    # The shed insert's paired delete vanishes too — even after recovery.
    for _ in range(2):  # cheap window: 0µs/update
        shedder.after_update(ctx)
    assert not shedder.degraded
    dele = Update("R", Row(1, (5,)), Sign.DELETE, 2)
    assert shedder.should_shed(dele, ctx)
    assert not shedder.should_shed(dele, ctx)  # only once per shed rid
    actions = [r.action for r in ctx.obs.decisions.entries()]
    assert actions == [SHED_START, SHED_STOP]


def test_run_with_series_reports_degraded_windows():
    workload = small_chain()
    plan = build_static_plan(
        workload,
        EngineConfig(
            orders=CHAIN_ORDERS,
            candidate_ids=[],
            resilience=ResilienceConfig(
                shedding=SheddingConfig(
                    budget_us_per_update=0.001, window_updates=50
                ),
                auditor=None,
            ),
        ),
    )
    series = run_with_series(
        plan, workload.updates(1200), sample_every_updates=200
    )
    assert any(p.degraded for p in series)
    assert sum(p.shed_updates for p in series) > 0
    assert plan.resilience.shed_total > 0


# ----------------------------------------------------------------------
# Coherence auditor
# ----------------------------------------------------------------------
def test_auditor_detaches_poisoned_cache_and_rebuilds():
    workload = small_chain()
    plan = build_static_plan(
        workload,
        EngineConfig(
            orders=CHAIN_ORDERS,
            candidate_ids=[FORCED_CACHE],
            resilience=ResilienceConfig(
                shedding=None,
                auditor=AuditorConfig(
                    audit_every_updates=50,
                    entries_per_audit=16,
                    rebuild_after_updates=100,
                ),
            ),
        ),
    )
    updates = iter(workload.updates(6000))
    wired = plan.wiring.wired[FORCED_CACHE]

    def first_live_entry():
        for _key, value in wired.cache.store.entries():
            if value:  # an entry's composite dict empties on deletes
                return value
        return None

    value = first_live_entry()
    while value is None:
        plan.process(next(updates))
        value = first_live_entry()

    # Poison one cached row: a rid no generator ever assigns.
    # Entries hold segment row tuples laid out as cache.segment.
    identity, rows = next(iter(value.items()))
    value[identity] = (Row(999_999_983, rows[0].values),) + rows[1:]

    auditor = plan.resilience.auditor
    for _ in range(200):
        plan.process(next(updates))
        if auditor.detached:
            break
    assert auditor.detached == 1
    assert FORCED_CACHE not in plan.wiring.wired

    for _ in range(300):
        plan.process(next(updates))
        if auditor.rebuilt:
            break
    assert auditor.rebuilt == 1
    assert FORCED_CACHE in plan.wiring.wired
    actions = [r.action for r in plan.ctx.obs.decisions.entries()]
    assert COHERENCE_DETACH in actions
    assert COHERENCE_REBUILD in actions


def test_auditor_passes_healthy_caches():
    workload = small_chain()
    plan = build_static_plan(
        workload,
        EngineConfig(
            orders=CHAIN_ORDERS,
            candidate_ids=[FORCED_CACHE],
            resilience=ResilienceConfig(
                shedding=None,
                auditor=AuditorConfig(audit_every_updates=50),
            ),
        ),
    )
    drive(plan, workload.updates(1500))
    auditor = plan.resilience.auditor
    assert auditor.entries_checked > 0
    assert auditor.detached == 0
    assert FORCED_CACHE in plan.wiring.wired


# ----------------------------------------------------------------------
# Deficit scheduler: zero-rate gaps (satellite fix)
# ----------------------------------------------------------------------
def test_scheduler_rides_out_zero_rate_gap():
    def rate_function(emitted):
        if 10 <= emitted < 25:
            return {"R": 0.0, "S": 0.0}
        return {"R": 1.0, "S": 1.0}

    scheduler = DeficitScheduler({"R": 1.0, "S": 1.0}, rate_function)
    names = list(scheduler.schedule(30))
    assert len(names) == 30
    assert set(names) == {"R", "S"}
    # The idle stretch advanced the schedule clock past the gap.
    assert scheduler.emitted > 30


def test_scheduler_raises_when_rates_never_recover():
    def rate_function(emitted):
        return {"R": 0.0} if emitted >= 5 else {"R": 1.0}

    scheduler = DeficitScheduler({"R": 1.0}, rate_function)
    scheduler.MAX_IDLE_TICKS = 100
    for _ in range(5):
        scheduler.next_stream()
    with pytest.raises(WorkloadError):
        scheduler.next_stream()


def test_scheduler_still_rejects_all_zero_base_rates():
    with pytest.raises(WorkloadError):
        DeficitScheduler({"R": 0.0, "S": 0.0})
