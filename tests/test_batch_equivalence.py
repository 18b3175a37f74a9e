"""Property: micro-batched execution is byte-identical to per-update.

The batching contract (ISSUE 4's hard guarantee): for any batch size,
the emitted delta sequence — rids included, not just canonical values —
and the final per-relation window contents equal the batch-1 run's,
on the serial engine and on every sharded backend, including streams
rewritten by a fault plan and engines hardened by guard + auditor
resilience (no shedding: load shedding triggers on virtual *time*,
which batching changes by design).
"""

from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.api import EngineConfig, Session, build_adaptive_engine
from repro.engine.drive import drive
from repro.faults.auditor import AuditorConfig
from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.resilience import ResilienceConfig
from repro.operators.base import BatchProbeMemo
from repro.parallel.bench import bench_engine_config, bench_tuning
from repro.parallel.engine import ParallelConfig, run_sharded
from repro.planner.enumeration import measured_run
from repro.scenarios.library import SCENARIOS, build_scenario_workload
from repro.streams.events import DeltaBatch
from repro.streams.workloads import fig9_workload, three_way_chain

WORKLOADS = {
    "chain": partial(
        three_way_chain, t_multiplicity=4.0, window_r=48, window_s=48
    ),
    "star3": partial(fig9_workload, 3, window=24),
    "star4": partial(fig9_workload, 4, window=24),
}

# Guard + auditor on, shedding off: the one resilience shape whose
# decisions depend only on update contents and counts, never on time.
NO_SHED_RESILIENCE = ResilienceConfig(
    shedding=None,
    auditor=AuditorConfig(audit_every_updates=150, entries_per_audit=4),
)


def exact_delta(delta):
    """A rid-preserving identity for one emitted OutputDelta."""
    composite = delta.composite
    return (
        delta.sign,
        tuple(
            (name, composite.row(name).rid, composite.row(name).values)
            for name in sorted(composite.relations())
        ),
    )


def window_contents(plan):
    executor = getattr(plan, "executor", plan)
    return {
        name: sorted((row.rid, row.values) for row in relation.rows())
        for name, relation in executor.relations.items()
    }


def serial_run(workload_key, arrivals, batch_size, fault_spec=None, seed=0,
               resilience=None):
    """One fresh engine driven at ``batch_size``; exact deltas + windows."""
    workload = WORKLOADS[workload_key]()
    engine = build_adaptive_engine(
        workload, EngineConfig(resilience=resilience)
    )
    updates = workload.updates(arrivals)
    if fault_spec is not None:
        updates = FaultPlan(fault_spec, seed=seed).updates(updates)
    deltas = [
        exact_delta(d)
        for d in drive(engine, updates, batch_size=batch_size)
    ]
    return deltas, window_contents(engine)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    workload_key=st.sampled_from(sorted(WORKLOADS)),
    batch_size=st.integers(min_value=2, max_value=97),
    arrivals=st.integers(min_value=150, max_value=450),
)
def test_batched_serial_run_equals_per_update_run(
    workload_key, batch_size, arrivals
):
    baseline = serial_run(workload_key, arrivals, 1)
    batched = serial_run(workload_key, arrivals, batch_size)
    assert batched == baseline


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    batch_size=st.integers(min_value=2, max_value=64),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_batched_equivalence_under_faults_and_resilience(batch_size, seed):
    """Fault-rewritten stream + guard/auditor engine, still identical."""
    fault_spec = FaultSpec(
        duplicate_prob=0.08, orphan_delete_prob=0.05, corrupt_prob=0.04
    )
    baseline = serial_run(
        "chain", 400, 1,
        fault_spec=fault_spec, seed=seed, resilience=NO_SHED_RESILIENCE,
    )
    batched = serial_run(
        "chain", 400, batch_size,
        fault_spec=fault_spec, seed=seed, resilience=NO_SHED_RESILIENCE,
    )
    assert batched == baseline


def sharded_observation(workload_key, arrivals, batch_size, shards, backend,
                        fault_spec=None):
    session = Session.adaptive(
        WORKLOADS[workload_key],
        EngineConfig(
            batch_size=batch_size, shards=shards, parallel_backend=backend
        ),
    )
    run = run_sharded(
        session.experiment(
            arrivals,
            fault_spec=fault_spec,
            output_mode="deltas",
            collect_windows=True,
        ),
        session.config.parallel(),
    )
    deltas = [
        (seq, index, exact_delta(delta))
        for seq, index, delta in run.merged_deltas()
    ]
    return deltas, run.merged_windows()


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    workload_key=st.sampled_from(sorted(WORKLOADS)),
    batch_size=st.integers(min_value=2, max_value=64),
    shards=st.integers(min_value=1, max_value=3),
)
def test_batched_sharded_run_equals_per_update_run(
    workload_key, batch_size, shards
):
    baseline = sharded_observation(workload_key, 300, 1, shards, "serial")
    batched = sharded_observation(
        workload_key, 300, batch_size, shards, "serial"
    )
    assert batched == baseline


def test_batched_process_backend_equals_per_update_run():
    """The process backend, with a fault-rewritten stream on top."""
    fault_spec = FaultSpec(duplicate_prob=0.06, orphan_delete_prob=0.04)
    baseline = sharded_observation(
        "chain", 400, 1, 2, "process", fault_spec=fault_spec
    )
    batched = sharded_observation(
        "chain", 400, 64, 2, "process", fault_spec=fault_spec
    )
    assert batched == baseline


def test_batch_one_is_charge_identical_to_unbatched():
    """batch_size=1 must not even differ in virtual cost (no memo)."""
    wl_a = WORKLOADS["chain"]()
    wl_b = WORKLOADS["chain"]()
    a = build_adaptive_engine(wl_a, EngineConfig())
    b = build_adaptive_engine(wl_b, EngineConfig(batch_size=1))
    for update in wl_a.updates(300):
        a.process(update)
    drive(b, wl_b.updates(300), batch_size=1)
    assert a.ctx.clock.now_us == b.ctx.clock.now_us
    assert a.ctx.metrics.updates_processed == b.ctx.metrics.updates_processed


# ----------------------------------------------------------------------
# the executor's batch loop
# ----------------------------------------------------------------------
BATCH_LOOP_WORKLOADS = {
    "star6": partial(fig9_workload, 6, window=48),
    "delete_storm": lambda: build_scenario_workload(
        SCENARIOS["delete_storm"], 3_000
    ),
}


def _memo_per_batch(executor, process_batch, memos):
    """Route ``executor.process_batch`` through ``process_batch`` under a
    fresh ``BatchProbeMemo``, kept in ``memos``."""
    ctx = executor.ctx

    def run(batch):
        ctx.probe_memo = memo = BatchProbeMemo()
        memos.append(memo)
        try:
            return process_batch(batch)
        finally:
            ctx.probe_memo = None

    executor.process_batch = run


@pytest.mark.parametrize("name", sorted(BATCH_LOOP_WORKLOADS))
def test_batch_loop_equals_per_update_process(name):
    """``process_batch`` calls the update step directly when nothing
    guards or times an update; under the same memo that must equal a
    ``process`` call per update, deltas, clock and counters alike."""
    engines, memos = [], ([], [])
    for per_update, kept in zip((False, True), memos):
        workload = BATCH_LOOP_WORKLOADS[name]()
        engine = build_adaptive_engine(workload, bench_engine_config(64))
        executor = engine.executor
        process_batch = (
            (lambda batch, ex=executor: [ex.process(u) for u in batch])
            if per_update else executor.process_batch
        )
        _memo_per_batch(executor, process_batch, kept)
        engines.append(engine)
    updates = list(BATCH_LOOP_WORKLOADS[name]().updates(3_000))
    for start in range(0, len(updates), 64):
        batch = DeltaBatch(updates[start:start + 64])
        batched, looped = (engine.process_batch(batch) for engine in engines)
        assert [[exact_delta(d) for d in deltas] for deltas in batched] == [
            [exact_delta(d) for d in deltas] for deltas in looped
        ]
        batched_ctx, looped_ctx = (engine.ctx for engine in engines)
        assert repr(batched_ctx.clock.now_us) == repr(looped_ctx.clock.now_us)
        assert batched_ctx.metrics == looped_ctx.metrics
        assert (memos[0][-1].hits, memos[0][-1].misses) == (
            memos[1][-1].hits, memos[1][-1].misses
        )
    metrics = engines[0].ctx.metrics
    assert metrics.updates_processed == len(updates)
    assert metrics.profiled_tuples > 0
    assert sum(memo.hits for memo in memos[0]) > 0
    if name == "star6":
        assert metrics.cache_hits > 0


@pytest.mark.parametrize(
    "resilience", [None, NO_SHED_RESILIENCE], ids=["plain", "guarded"]
)
def test_instrumented_batch_keeps_per_update_events(resilience):
    """An instrumented engine still runs every batched update through
    ``process``: one ``update_processed`` event each, with ``profiled``."""
    with obs.session() as active:
        workload = fig9_workload(4, window=24)
        engine = build_adaptive_engine(
            workload,
            EngineConfig(tuning=bench_tuning(), resilience=resilience),
        )
        drive(engine, workload.updates(800), batch_size=32)
    events = active.tracer.events("update_processed")
    dropped = active.tracer.dropped.get("update_processed", 0)
    assert len(events) + dropped == engine.ctx.metrics.updates_processed
    assert all(isinstance(e.data["profiled"], bool) for e in events)
    assert any(e.data["profiled"] for e in events)


# ----------------------------------------------------------------------
# the modeled gain of batching
# ----------------------------------------------------------------------
def _steady_star6(batch_size):
    """The 6-way star at ``batch_size``: steady-state virtual throughput
    (warmup excluded) and the session that produced it."""
    workload = fig9_workload(6, window=48)
    session = Session.adaptive(workload, bench_engine_config(batch_size))
    steady = measured_run(session, workload, 4_000, batch_size=batch_size)
    return steady, session


def test_batch_64_meets_the_modeled_speedup_floor():
    """Batch 64 emits what batch 1 emits at >= 1.2x the steady virtual
    throughput, i.e. <= 1/1.2 of its virtual us/update (1.55x when this
    floor was set). Virtual time is deterministic, so the floor cannot
    flake; wall-clock batching lives in the ledger's ``star6_batch64``."""
    per_update, one = _steady_star6(1)
    batched, sixty_four = _steady_star6(64)
    outputs = one.ctx.metrics.outputs_emitted
    assert outputs > 0 and one.used_caches(), "no joins or caches: vacuous"
    assert sixty_four.ctx.metrics.outputs_emitted == outputs
    assert batched / per_update >= 1.2
