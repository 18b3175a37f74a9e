"""Property: a killed run, restored and resumed, is byte-identical.

The durability contract (ISSUE 5's hard guarantee): kill a journaled run
at *any* update index, under any crash damage the recovery subsystem
models (lost un-fsynced WAL tail, torn record, partial checkpoint), and
``restore() + resume`` reproduces exactly the deltas and final windows
the uninterrupted run emits — in both cache modes, serial and sharded.
"""

import os
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import EngineConfig, Session
from repro.engine.drive import drive
from repro.errors import ConfigError, RecoveryError, ReproError
from repro.parallel.bench import bench_engine_config
from repro.recovery.manager import Recorder, RecoveryConfig, RecoveryManager
from repro.recovery.snapshot import CheckpointStore, decode_snapshot, encode_snapshot
from repro.recovery.wal import WriteAheadLog, read_wal
from repro.streams.events import Sign, Update
from repro.streams.tuples import Row
from repro.streams.workloads import fig9_workload, three_way_chain

ARRIVALS = 400
CHECKPOINT_INTERVAL = 120

WORKLOAD = partial(
    three_way_chain, t_multiplicity=4.0, window_r=48, window_s=48
)


def window_contents(plan):
    executor = getattr(plan, "executor", plan)
    return {
        name: sorted((row.rid, row.values) for row in relation.rows())
        for name, relation in executor.relations.items()
    }


@pytest.fixture(scope="module")
def clean():
    session = Session.adaptive(WORKLOAD)
    deltas = session.run(arrivals=ARRIVALS)
    return deltas, window_contents(session.plan)


def crash_journaled_run(config: EngineConfig, kill_at: int) -> None:
    """Drive a journaled run and kill it after ``kill_at`` updates."""
    session = Session.adaptive(WORKLOAD, config)
    recorder = Recorder(session.plan, config.recovery())
    processed = 0
    for update in session.workload.updates(ARRIVALS):
        recorder.log(update)
        session.plan.process(update)
        processed += 1
        recorder.mark_processed()
        recorder.maybe_checkpoint(update.seq)
        if processed >= kill_at:
            break
    recorder.crash()


def assert_recovers_identically(config: EngineConfig, clean) -> None:
    clean_deltas, clean_windows = clean
    session = Session.adaptive(WORKLOAD, config)
    resumed = session.resume(ARRIVALS)
    # Resume returns every delta past the restored checkpoint; the clean
    # run emits deltas in update order, so they must match its tail.
    assert len(resumed) <= len(clean_deltas)
    assert clean_deltas[len(clean_deltas) - len(resumed):] == resumed
    assert window_contents(session.plan) == clean_windows


# ----------------------------------------------------------------------
# the core property: any kill index, both cache modes
# ----------------------------------------------------------------------
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[
        HealthCheck.function_scoped_fixture,
        HealthCheck.too_slow,
    ],
)
@given(
    kill_at=st.integers(min_value=1, max_value=850),
    cache_mode=st.sampled_from(["snapshot", "rebuild"]),
    fsync_every=st.sampled_from([1, 7, 32]),
)
def test_kill_anywhere_recovers_identically(
    tmp_path_factory, clean, kill_at, cache_mode, fsync_every
):
    wal_dir = str(
        tmp_path_factory.mktemp(f"kill-{kill_at}-{cache_mode}-{fsync_every}")
    )
    config = EngineConfig(
        wal_dir=wal_dir,
        checkpoint_interval=CHECKPOINT_INTERVAL,
        wal_fsync_every=fsync_every,
        cache_recovery=cache_mode,
    )
    crash_journaled_run(config, kill_at)
    assert_recovers_identically(config, clean)


# ----------------------------------------------------------------------
# torn writes and corrupt checkpoints
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cache_mode", ["snapshot", "rebuild"])
def test_torn_wal_tail_is_repaired(tmp_path, clean, cache_mode):
    config = EngineConfig(
        wal_dir=str(tmp_path),
        checkpoint_interval=CHECKPOINT_INTERVAL,
        wal_fsync_every=16,
        cache_recovery=cache_mode,
    )
    crash_journaled_run(config, 300)
    # The OS flushed part of a page: a record cut mid-payload.
    with open(config.recovery().wal_path, "ab") as handle:
        handle.write(b'57 {"relation":"R","rid"')
    updates, torn, _valid = read_wal(config.recovery().wal_path)
    assert torn and updates
    assert_recovers_identically(config, clean)
    # The repair truncation removed the garbage for good.
    _, torn_after, _ = read_wal(config.recovery().wal_path)
    assert not torn_after


def test_corrupt_checkpoint_falls_back_to_previous(tmp_path, clean):
    config = EngineConfig(
        wal_dir=str(tmp_path),
        checkpoint_interval=CHECKPOINT_INTERVAL,
        wal_fsync_every=16,
    )
    crash_journaled_run(config, 310)  # >= two checkpoints at interval 120
    store = CheckpointStore(config.recovery().checkpoint_dir)
    seqs = store.seqs()
    assert len(seqs) >= 2
    # Flip bytes in the newest snapshot: its checksum must now fail.
    newest = store.path_for(seqs[-1])
    data = open(newest, "rb").read()
    with open(newest, "wb") as handle:
        handle.write(data[: len(data) // 2] + b"\xff\xff" + data[len(data) // 2 + 2:])
    manager = RecoveryManager(
        config.recovery(), builder=lambda: Session.adaptive(WORKLOAD).plan
    )
    restored = manager.restore()
    assert restored.skipped_checkpoints == 1
    assert restored.checkpoint_seq == seqs[-2]
    assert_recovers_identically(config, clean)


def test_truncated_checkpoint_mid_write_is_skipped(tmp_path, clean):
    config = EngineConfig(
        wal_dir=str(tmp_path),
        checkpoint_interval=CHECKPOINT_INTERVAL,
        wal_fsync_every=16,
    )
    crash_journaled_run(config, 300)
    store = CheckpointStore(config.recovery().checkpoint_dir)
    newest = store.seqs()[-1]
    # A kill mid-checkpoint-write leaves a partial file newer than any
    # complete one; it must fail validation, not win latest_valid().
    data = encode_snapshot({"seq": newest + 50, "cache_mode": "snapshot"})
    with open(store.path_for(newest + 50), "wb") as handle:
        handle.write(data[: len(data) // 3])
    seq, payload, skipped = store.latest_valid()
    assert seq == newest and payload is not None and skipped == 1
    assert_recovers_identically(config, clean)


def test_everything_lost_means_full_rerun(tmp_path, clean):
    """No checkpoint, no WAL: restore degenerates to a clean run."""
    config = EngineConfig(wal_dir=str(tmp_path))
    session = Session.adaptive(WORKLOAD, config)
    resumed = session.resume(ARRIVALS)
    clean_deltas, clean_windows = clean
    assert resumed == clean_deltas
    assert window_contents(session.plan) == clean_windows


# ----------------------------------------------------------------------
# sharded: supervised restarts recover per-shard journals
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cache_mode", ["snapshot", "rebuild"])
@pytest.mark.parametrize("kill_after", [40, 250])
def test_sharded_crash_recovers_identically(tmp_path, cache_mode, kill_after):
    from repro.parallel.supervisor import SupervisionConfig, WorkerCrash

    factory = partial(fig9_workload, 3, window=24)
    arrivals = 600
    clean = Session.adaptive(factory, EngineConfig(shards=2)).run(
        arrivals=arrivals
    )
    config = EngineConfig(
        shards=2,
        wal_dir=str(tmp_path),
        checkpoint_interval=100,
        wal_fsync_every=16,
        cache_recovery=cache_mode,
        supervision=SupervisionConfig(
            heartbeat_every_updates=50,
            backoff_base_s=0.01,
            backoff_max_s=0.05,
        ),
    )
    session = Session.adaptive(factory, config)
    run = session.execute(
        arrivals=arrivals,
        output_mode="deltas",
        crashes=[WorkerCrash(shard=1, after_updates=kill_after)],
    )
    assert run.restarts == {1: 1}
    assert [d for _, _, d in run.merged_deltas()] == clean


# ----------------------------------------------------------------------
# the modeled cost of durability
# ----------------------------------------------------------------------
def _star6_run(recorder_dir=None):
    """The 6-way star, 4,000 arrivals per update, journaled into
    ``recorder_dir`` when given: deltas, virtual us/update, recorder."""
    session = Session.adaptive(
        fig9_workload(6, window=48), bench_engine_config()
    )
    recorder = None
    if recorder_dir is not None:
        recorder = Recorder(
            session.plan,
            RecoveryConfig(
                wal_dir=recorder_dir,
                checkpoint_interval=1000,
                fsync_every=64,
            ),
        )
    deltas = drive(
        session.plan, session.workload.updates(4_000), recorder=recorder
    )
    metrics = session.ctx.metrics
    return deltas, session.ctx.clock.now_us / metrics.updates_processed, recorder


def test_journaling_overhead_stays_within_ten_percent(tmp_path):
    """WAL appends, fsync batches of 64 and a checkpoint every 1,000
    updates cost at most 10% of the unjournaled virtual us/update (2.0%
    when this bound was set) and change no delta."""
    plain, plain_us, _ = _star6_run()
    journaled, journaled_us, recorder = _star6_run(str(tmp_path))
    assert recorder.checkpoints > 0 and recorder.wal.fsyncs > 0, (
        "nothing was checkpointed or fsynced: the bound would be vacuous"
    )
    assert plain and journaled == plain
    assert plain_us < journaled_us <= 1.10 * plain_us


# ----------------------------------------------------------------------
# WAL and snapshot container units
# ----------------------------------------------------------------------
def _update(seq, rid=None, relation="R", sign=Sign.INSERT):
    return Update(relation, Row(rid if rid is not None else seq, (seq,)), sign, seq)


def test_wal_round_trip(tmp_path):
    path = str(tmp_path / "wal.jsonl")
    wal = WriteAheadLog(path, fsync_every=2)
    updates = [_update(i, sign=Sign.INSERT if i % 2 else Sign.DELETE) for i in range(7)]
    for update in updates:
        wal.append(update)
    wal.close()
    decoded, torn, valid = read_wal(path)
    assert decoded == updates
    assert not torn
    assert valid == os.path.getsize(path)


def test_wal_corrupt_value_round_trips(tmp_path):
    from repro.faults.plan import CORRUPT

    path = str(tmp_path / "wal.jsonl")
    wal = WriteAheadLog(path)
    update = Update("R", Row(5, (1, CORRUPT, "x")), Sign.INSERT, 5)
    wal.append(update)
    wal.close()
    (decoded,), torn, _ = read_wal(path)
    assert not torn
    assert decoded.row.values[1] is CORRUPT
    assert decoded.row.values[::2] == (1, "x")


def test_wal_abandon_loses_only_unfsynced_tail(tmp_path):
    path = str(tmp_path / "wal.jsonl")
    wal = WriteAheadLog(path, fsync_every=4)
    for i in range(10):  # fsyncs at 4 and 8; records 9 and 10 are in limbo
        wal.append(_update(i))
    wal.abandon()
    decoded, torn, _ = read_wal(path)
    assert [u.seq for u in decoded] == list(range(8))
    assert not torn


def test_read_wal_stops_at_torn_record(tmp_path):
    path = str(tmp_path / "wal.jsonl")
    wal = WriteAheadLog(path, fsync_every=1)
    for i in range(3):
        wal.append(_update(i))
    wal.close()
    good_size = os.path.getsize(path)
    with open(path, "ab") as handle:
        handle.write(b"999 {\"relation\"")
    decoded, torn, valid = read_wal(path)
    assert [u.seq for u in decoded] == [0, 1, 2]
    assert torn and valid == good_size


def test_snapshot_checksum_rejects_corruption():
    payload = {"seq": 7, "cache_mode": "rebuild", "windows": {"R": []}}
    data = encode_snapshot(payload)
    assert decode_snapshot(data) == payload
    corrupted = data[:-3] + b"\x00\x00\x00"
    with pytest.raises(RecoveryError):
        decode_snapshot(corrupted)
    with pytest.raises(RecoveryError):
        decode_snapshot(data[: len(data) - 5])  # short payload
    with pytest.raises(RecoveryError):
        decode_snapshot(b"NOPE 1 3 abc\nxyz")  # bad magic


def test_checkpoint_store_prunes_oldest(tmp_path):
    store = CheckpointStore(str(tmp_path))
    for seq in (10, 20, 30):
        store.write(seq, {"seq": seq})
    store.prune(keep=2)
    assert store.seqs() == [20, 30]


# ----------------------------------------------------------------------
# validation: ReproError subclasses naming the offending field
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs, needle",
    [
        (dict(checkpoint_interval=0), "checkpoint_interval"),
        (dict(wal_fsync_every=0), "wal_fsync_every"),
        (dict(cache_recovery="magic"), "cache_recovery"),
    ],
)
def test_engine_config_recovery_validation(kwargs, needle):
    with pytest.raises(ConfigError) as err:
        EngineConfig(wal_dir="/tmp/x", **kwargs)
    assert needle in str(err.value)
    assert isinstance(err.value, ReproError)
    assert isinstance(err.value, ValueError)  # seed-era except clauses


@pytest.mark.parametrize(
    "kwargs, needle",
    [
        (dict(wal_dir=""), "wal_dir"),
        (dict(wal_dir="x", checkpoint_interval=0), "checkpoint_interval"),
        (dict(wal_dir="x", fsync_every=0), "fsync_every"),
        (dict(wal_dir="x", cache_mode="none"), "cache_mode"),
        (dict(wal_dir="x", keep_checkpoints=0), "keep_checkpoints"),
    ],
)
def test_recovery_config_validation(kwargs, needle):
    with pytest.raises(ConfigError) as err:
        RecoveryConfig(**kwargs)
    assert needle in str(err.value)


def test_restore_without_wal_dir_is_a_config_error():
    session = Session.adaptive(WORKLOAD)
    with pytest.raises(ConfigError):
        session.restore()
