"""Supervised parallel execution: restarts, backoff, circuit breaker.

The supervisor's contract is that worker failure is invisible in the
output: a crashed shard worker is restarted from its checkpoint (or,
past ``max_restarts``, re-run serially in the parent) and the merged
result is identical to an undisturbed sharded run.
"""

from functools import partial

import pytest

from repro.api import EngineConfig, Session
from repro.errors import ConfigError
from repro.obs.decisions import WORKER_FALLBACK, WORKER_RESTART
from repro.parallel.engine import ParallelConfig, ParallelRun, run_sharded
from repro.parallel.supervisor import (
    SupervisionConfig,
    Supervisor,
    WorkerCrash,
)
from repro.streams.workloads import fig9_workload

FACTORY = partial(fig9_workload, 3, window=24)
ARRIVALS = 600
SHARDS = 2

FAST_SUPERVISION = SupervisionConfig(
    heartbeat_every_updates=50,
    backoff_base_s=0.01,
    backoff_max_s=0.05,
)


def _spec():
    return Session.adaptive(FACTORY, EngineConfig(shards=SHARDS)).experiment(
        ARRIVALS, output_mode="canonical", collect_windows=True
    )


@pytest.fixture(scope="module")
def clean():
    return run_sharded(_spec(), ParallelConfig(shards=SHARDS, backend="serial"))


def test_no_crashes_matches_plain_sharded(clean):
    run = Supervisor(FAST_SUPERVISION).run(_spec(), SHARDS)
    assert isinstance(run, ParallelRun) and run.backend == "process"
    assert run.total_restarts == 0 and run.fallbacks == []
    assert run.merged_canonical() == clean.merged_canonical()
    assert run.merged_windows() == clean.merged_windows()


def test_crashed_worker_restarts_and_output_is_identical(tmp_path, clean):
    recovery = EngineConfig(
        shards=SHARDS, wal_dir=str(tmp_path), checkpoint_interval=100
    ).recovery()
    run = Supervisor(FAST_SUPERVISION, recovery=recovery).run(
        _spec(), SHARDS, crashes=[WorkerCrash(shard=1, after_updates=80)]
    )
    assert run.restarts == {1: 1}
    assert run.fallbacks == []
    assert [d["action"] for d in run.decisions] == [WORKER_RESTART]
    assert run.merged_canonical() == clean.merged_canonical()
    assert run.merged_windows() == clean.merged_windows()


def test_repeated_crashes_trip_circuit_breaker_to_serial(tmp_path, clean):
    supervision = SupervisionConfig(
        heartbeat_every_updates=50,
        max_restarts=2,
        backoff_base_s=0.01,
        backoff_max_s=0.05,
    )
    recovery = EngineConfig(
        shards=SHARDS, wal_dir=str(tmp_path), checkpoint_interval=100
    ).recovery()
    run = Supervisor(supervision, recovery=recovery).run(
        _spec(),
        SHARDS,
        crashes=[WorkerCrash(shard=0, after_updates=60, attempts=99)],
    )
    assert run.restarts == {0: 2}
    assert run.fallbacks == [0]
    assert [d["action"] for d in run.decisions] == [
        WORKER_RESTART,
        WORKER_RESTART,
        WORKER_FALLBACK,
    ]
    assert run.merged_canonical() == clean.merged_canonical()
    assert run.merged_windows() == clean.merged_windows()


def _hang_in_workers_factory():
    """Workload factory that wedges inside worker processes only.

    The parent (``MainProcess``) builds the workload instantly, so the
    circuit breaker's in-parent serial fallback completes; every spawned
    worker stalls past the heartbeat timeout and is declared hung.
    """
    import multiprocessing
    import time as _time

    if multiprocessing.current_process().name != "MainProcess":
        _time.sleep(60.0)  # far past heartbeat_timeout_s; killed first
    return fig9_workload(3, window=24)


def test_repeated_worker_hangs_trip_circuit_breaker(clean):
    supervision = SupervisionConfig(
        heartbeat_every_updates=50,
        heartbeat_timeout_s=0.3,
        max_restarts=1,
        backoff_base_s=0.01,
        backoff_max_s=0.05,
    )
    spec = Session.adaptive(
        _hang_in_workers_factory, EngineConfig(shards=SHARDS)
    ).experiment(ARRIVALS, output_mode="canonical", collect_windows=True)
    run = Supervisor(supervision).run(spec, SHARDS)
    # Every shard hung, was killed, hung again on its one restart, and
    # was then circuit-broken to in-parent serial execution.
    assert run.restarts == {0: 1, 1: 1}
    assert sorted(run.fallbacks) == [0, 1]
    restart_reasons = [
        d["reason"] for d in run.decisions if d["action"] == WORKER_RESTART
    ]
    assert restart_reasons and all(
        "no heartbeat" in reason for reason in restart_reasons
    )
    assert run.merged_canonical() == clean.merged_canonical()
    assert run.merged_windows() == clean.merged_windows()


def test_backoff_is_bounded_exponential():
    config = SupervisionConfig(backoff_base_s=0.05, backoff_max_s=0.4)
    assert config.backoff_s(1) == pytest.approx(0.05)
    assert config.backoff_s(2) == pytest.approx(0.10)
    assert config.backoff_s(3) == pytest.approx(0.20)
    assert config.backoff_s(4) == pytest.approx(0.40)
    assert config.backoff_s(10) == pytest.approx(0.40)  # capped


@pytest.mark.parametrize(
    "kwargs, needle",
    [
        (dict(heartbeat_every_updates=0), "heartbeat_every_updates"),
        (dict(heartbeat_timeout_s=0), "heartbeat_timeout_s"),
        (dict(max_restarts=-1), "max_restarts"),
        (dict(backoff_base_s=-0.1), "backoff_base_s"),
        (dict(backoff_max_s=-1.0), "backoff_max_s"),
    ],
)
def test_supervision_config_validation(kwargs, needle):
    with pytest.raises(ConfigError) as err:
        SupervisionConfig(**kwargs)
    assert needle in str(err.value)


def test_worker_crash_validation():
    with pytest.raises(ConfigError):
        WorkerCrash(shard=-1, after_updates=5)
    with pytest.raises(ConfigError):
        WorkerCrash(shard=0, after_updates=0)
    with pytest.raises(ConfigError):
        WorkerCrash(shard=0, after_updates=5, attempts=0)


def test_session_facade_requires_supervision_for_crashes():
    session = Session.adaptive(FACTORY, EngineConfig(shards=SHARDS))
    with pytest.raises(ConfigError):
        session.execute(
            arrivals=ARRIVALS,
            crashes=[WorkerCrash(shard=0, after_updates=10)],
        )
