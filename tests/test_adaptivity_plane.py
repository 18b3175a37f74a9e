"""The global adaptivity plane: sharded selection equals serial selection.

The coordinator merges per-shard profiler snapshots (rates summed, δ/τ
windows pooled) and runs the paper's selection once per epoch, so a
sharded run must choose the same caches a serial run does — the
property the plane exists to restore. Alongside the end-to-end
property: the barrier protocol's unit semantics (decided epochs
answered from the log, retirement shrinking barriers) and the
rate-aware rescale trigger.
"""

from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.api import EngineConfig
from repro.core.acaching import ACachingConfig
from repro.core.profiler import ProfilerConfig
from repro.core.reoptimizer import ReoptimizerConfig
from repro.errors import ParallelError
from repro.parallel.adaptivity import (
    AdaptivityConfig,
    EpochCoordinator,
    RescalePolicy,
    recommend_rescale,
    snapshot_from_plan,
)
from repro.parallel.engine import ParallelConfig, run_sharded
from repro.parallel.spec import EngineSpec, ExperimentSpec
from repro.parallel.supervisor import (
    SupervisionConfig,
    Supervisor,
    WorkerCrash,
)
from repro.streams.workloads import fig9_workload

SYNC = 200

FAST_SUPERVISION = SupervisionConfig(
    heartbeat_every_updates=50,
    backoff_base_s=0.01,
    backoff_max_s=0.05,
)


def _config():
    # The determinism the selection-equivalence property needs: the
    # profile gate samples by global seq (so every worker and the serial
    # run profile the same update set), local re-opt runs on the same
    # update cadence the coordinator epochs use, and pipeline orders
    # stay pinned so selection is the only moving part.
    return ACachingConfig(
        profiler=ProfilerConfig(
            deterministic_gate=True,
            # Warm every candidate within the first epochs at test
            # scale (the 5% paper default needs far longer streams).
            profile_probability=0.5,
        ),
        reoptimizer=ReoptimizerConfig(reopt_interval_updates=SYNC),
        adaptive_ordering=False,
    )


def _spec(arrivals, relations=4, **overrides):
    base = dict(
        workload_factory=partial(fig9_workload, relations, window=48),
        arrivals=arrivals,
        engine=EngineConfig(tuning=_config()).engine_spec("adaptive"),
        adaptivity=AdaptivityConfig(sync_every_updates=SYNC),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


# ---------------------------------------------------------------------------
# the barrier protocol, transport-free
# ---------------------------------------------------------------------------
def _snapshot(plan, shard, epoch):
    return snapshot_from_plan(plan, shard=shard, epoch=epoch)


@pytest.fixture(scope="module")
def fresh_plan():
    spec = _spec(400)
    return spec.engine.build(spec.workload_factory())


def test_barrier_completes_when_every_active_shard_arrives(fresh_plan):
    coordinator = EpochCoordinator(_spec(400), 2)
    assert coordinator.submit(1, 0, _snapshot(fresh_plan, 0, 1)) == []
    assert coordinator.waiting == {0}
    deliveries = coordinator.submit(1, 1, _snapshot(fresh_plan, 1, 1))
    assert sorted(shard for shard, _ in deliveries) == [0, 1]
    plans = {plan.epoch for _, plan in deliveries}
    assert plans == {1}
    assert coordinator.waiting == set()


def test_decided_epoch_answers_a_restarted_shard_immediately(fresh_plan):
    coordinator = EpochCoordinator(_spec(400), 2)
    coordinator.submit(1, 0, _snapshot(fresh_plan, 0, 1))
    coordinator.submit(1, 1, _snapshot(fresh_plan, 1, 1))
    # A supervisor-restarted worker re-traverses the stream and hits the
    # epoch-1 barrier again: it must get the logged plan without
    # re-opening the barrier for anyone else.
    replay = coordinator.submit(1, 0, _snapshot(fresh_plan, 0, 1))
    assert [shard for shard, _ in replay] == [0]
    assert replay[0][1] is coordinator.plans[1]


def test_retiring_a_shard_unblocks_the_survivors(fresh_plan):
    coordinator = EpochCoordinator(_spec(400), 2)
    assert coordinator.submit(1, 0, _snapshot(fresh_plan, 0, 1)) == []
    # Shard 1 degrades to in-parent serial execution: its retirement
    # must complete the barrier shard 0 is already waiting in.
    deliveries = coordinator.retire(1)
    assert [shard for shard, _ in deliveries] == [0]
    assert coordinator.active == {0}


def test_retiring_a_straggler_logs_an_epoch_stall(fresh_plan):
    coordinator = EpochCoordinator(_spec(400), 2)
    coordinator.submit(1, 0, _snapshot(fresh_plan, 0, 1))
    coordinator.retire(1)
    stalls = [
        record
        for record in coordinator.decisions.entries()
        if record.action == "epoch_stall"
    ]
    assert len(stalls) == 1
    # The decision names the culprit shard and the epoch it hung.
    assert "shard 1" in stalls[0].reason
    assert "[1]" in stalls[0].reason
    # Re-retiring, or retiring with nothing pending, logs nothing new.
    coordinator.retire(1)
    fresh = EpochCoordinator(_spec(400), 2)
    fresh.retire(0)
    assert sum(
        1
        for c in (coordinator, fresh)
        for r in c.decisions.entries()
        if r.action == "epoch_stall"
    ) == 1


def test_coordinator_rejects_non_acaching_engines():
    spec = _spec(400)
    bare = ExperimentSpec(
        workload_factory=spec.workload_factory,
        arrivals=400,
        engine=EngineSpec(kind="mjoin"),
    )
    with pytest.raises(ParallelError, match="acaching"):
        EpochCoordinator(bare, 2)


def test_adaptivity_config_validates():
    with pytest.raises(ParallelError, match="sync_every_updates"):
        AdaptivityConfig(sync_every_updates=0)
    with pytest.raises(ParallelError, match="acaching"):
        _spec(400, engine=EngineSpec(kind="mjoin"))


# ---------------------------------------------------------------------------
# end to end: sharded selection equals serial selection
# ---------------------------------------------------------------------------
@settings(
    max_examples=4,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    shards=st.sampled_from([2, 3, 4]),
    relations=st.sampled_from([3, 4]),
)
@example(shards=4, relations=4)
def test_coordinated_selection_matches_serial(shards, relations):
    spec = _spec(800, relations)
    serial = run_sharded(spec, ParallelConfig(shards=1))
    sharded = run_sharded(
        spec, ParallelConfig(shards=shards, backend="serial")
    )
    assert sharded.cache_plans, "no epoch was ever coordinated"
    assert set(sharded.stats.used_caches) == set(serial.stats.used_caches)
    assert any(plan.applied for plan in sharded.cache_plans), (
        "the coordinator never selected a cache at this scale — the "
        "equivalence above was vacuous"
    )
    assert sharded.stats.hit_rate > 0.0
    # Pooled profiles sum the per-shard rates, so coordinated selection
    # keeps the serial hit rate (0.61 both, at 4 relations and 4 shards).
    assert serial.stats.hit_rate - sharded.stats.hit_rate <= 0.15


def test_epoch_plans_are_invariant_to_the_shard_count():
    # Summed rates scale every d-term uniformly, so the coordinator's
    # per-epoch choices must not depend on how many ways the stream is
    # split — not just the final cache set, every boundary's.
    spec = _spec(800)
    two = run_sharded(spec, ParallelConfig(shards=2, backend="serial"))
    four = run_sharded(spec, ParallelConfig(shards=4, backend="serial"))
    assert [
        (plan.epoch, plan.candidate_ids) for plan in two.cache_plans
    ] == [(plan.epoch, plan.candidate_ids) for plan in four.cache_plans]


def test_process_backend_matches_thread_backend():
    spec = _spec(600)
    threaded = run_sharded(spec, ParallelConfig(shards=2, backend="serial"))
    processed = run_sharded(
        spec, ParallelConfig(shards=2, backend="process")
    )
    assert [
        (plan.epoch, plan.candidate_ids) for plan in threaded.cache_plans
    ] == [(plan.epoch, plan.candidate_ids) for plan in processed.cache_plans]
    assert processed.stats.used_caches == threaded.stats.used_caches


def test_restarted_worker_rejoins_coordination(tmp_path):
    spec = _spec(
        600, output_mode="canonical", collect_windows=True
    )
    clean = run_sharded(spec, ParallelConfig(shards=2, backend="serial"))
    recovery = EngineConfig(
        shards=2, wal_dir=str(tmp_path), checkpoint_interval=100
    ).recovery()
    run = Supervisor(FAST_SUPERVISION, recovery=recovery).run(
        spec, 2, crashes=[WorkerCrash(shard=1, after_updates=150)]
    )
    assert run.restarts == {1: 1}
    assert run.cache_plans, "the supervised run never coordinated"
    assert run.merged_canonical() == clean.merged_canonical()
    assert run.merged_windows() == clean.merged_windows()
    assert set(run.stats.used_caches) == set(clean.stats.used_caches)


# ---------------------------------------------------------------------------
# the rescale trigger
# ---------------------------------------------------------------------------
def _stats(per_shard_updates, per_shard_clock_us):
    return SimpleNamespace(
        shard_count=len(per_shard_updates),
        per_shard_updates=per_shard_updates,
        per_shard_clock_us=per_shard_clock_us,
    )


def test_recommend_rescale_scales_up_under_load():
    # Two shards each sustaining 60k updates/s against a 40k target:
    # 120k demand with 1.25x headroom wants four shards.
    advice = recommend_rescale(_stats([60_000, 60_000], [1e6, 1e6]))
    assert advice.action == "scale-up"
    assert advice.recommended_shards == 4
    assert advice.should_rescale


def test_recommend_rescale_scales_down_when_idle():
    advice = recommend_rescale(_stats([5_000, 5_000, 5_000, 5_000],
                                      [1e6, 1e6, 1e6, 1e6]))
    assert advice.action == "scale-down"
    assert advice.recommended_shards == 1


def test_recommend_rescale_hysteresis_suppresses_one_shard_moves():
    stats = _stats([45_000, 45_000], [1e6, 1e6])
    assert recommend_rescale(stats).action == "scale-up"
    held = recommend_rescale(stats, RescalePolicy(hysteresis=1))
    assert held.action == "hold"
    assert not held.should_rescale


def test_rescale_policy_validates():
    with pytest.raises(ParallelError):
        RescalePolicy(target_shard_rate=0.0)
    with pytest.raises(ParallelError):
        RescalePolicy(min_shards=4, max_shards=2)
