"""Crash-injection chaos: kill a journaled run, recover it, verify.

``python -m repro chaos <experiment> --crash <kind>`` drives the same
experiment twice:

1. a **clean** run — no journaling, no crash — establishing the exact
   output multiset and final window contents;
2. a **recorded** run under a :class:`~repro.recovery.manager.Recorder`
   that is killed at a seeded point, damaged on disk according to the
   crash kind, restored through :class:`~repro.recovery.manager.
   RecoveryManager`, and resumed to completion.

The report's one-line verdict is whether the recovered run's outputs and
windows are **identical** to the clean run's — the durability contract.

Crash kinds model the distinct ways a real kill hurts the on-disk state:

* ``at_event`` — plain ``kill -9`` between updates: every WAL byte past
  the last fsync is lost (truncate to ``durable_offset``).
* ``torn_tail`` — the OS flushed part of a page before the kill: the WAL
  ends mid-record, exercising the reader's framing check and the
  restore-time repair truncation.
* ``during_checkpoint`` — the kill lands inside a checkpoint write: a
  partial snapshot file sits newest in the store and must fail its
  checksum so restore falls back to the previous valid checkpoint.

Sharded runs (``--shards N``) go through the
:class:`~repro.parallel.supervisor.Supervisor` instead: a seeded shard's
worker is killed with ``os._exit`` mid-run and the supervisor restarts
it from its last checkpoint — the ``at_event`` kind at process
granularity (a real kill naturally produces the torn tail too).

With ``--wal-dir DIR`` the journal survives the command and a
``manifest.json`` describing the run is dropped next to it, so
``python -m repro recover DIR`` can restore and verify it later — with
``--no-recover`` the command stops right after the damage, leaving a
genuinely crashed directory for ``recover`` to pick up.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Tuple

from repro.api import EngineConfig
from repro.engine.drive import Driver, drive
from repro.errors import RecoveryError, ReproError
from repro.faults.chaos import (
    _build_workload,
    _chaos_config,
    _engine,
    resolve_experiment,
)
from repro.parallel.engine import ParallelConfig, ParallelRun, run_sharded
from repro.parallel.spec import ExperimentSpec
from repro.parallel.supervisor import (
    SupervisionConfig,
    Supervisor,
    WorkerCrash,
)
from repro.recovery.manager import (
    CACHE_MODES,
    Recorder,
    RecoveryConfig,
    RecoveryManager,
    _window_rows,
    build_payload,
)
from repro.recovery.snapshot import encode_snapshot
from repro.streams.events import canonical_delta

CRASH_KINDS = ("at_event", "torn_tail", "during_checkpoint")

MANIFEST_NAME = "manifest.json"


@dataclass
class CrashReport:
    """One crash-and-recover cycle, measured."""

    experiment: str
    seed: int
    arrivals: int
    kind: str
    cache_mode: str
    checkpoint_interval: int
    fsync_every: int
    shards: int = 1
    kill_at: int = 0               # processed-update count the kill fired at
    crash_shard: Optional[int] = None
    checkpoint_seq: int = 0        # checkpoint restore resumed from
    replayed: int = 0              # WAL records replayed past it
    wal_torn: bool = False
    skipped_checkpoints: int = 0   # corrupt/partial snapshots skipped
    restarts: int = 0              # supervised restarts (sharded runs)
    fallbacks: int = 0             # circuit-broken shards (sharded runs)
    outputs_clean: int = 0
    outputs_recovered: int = 0
    outputs_identical: bool = False
    windows_identical: bool = False
    recovered: bool = True         # False when --no-recover left the crash
    wal_dir: Optional[str] = None

    @property
    def verified(self) -> bool:
        return self.outputs_identical and self.windows_identical


def _seeded_kill_point(seed: int, total_updates: int) -> int:
    """A deterministic kill index in the middle half of the stream."""
    rng = random.Random(seed)
    low = max(1, total_updates // 4)
    high = max(low, (3 * total_updates) // 4)
    return rng.randint(low, high)


class _Tally:
    """A driver sink: canonical output counts plus the processed count,
    which together are the runner state a checkpoint carries."""

    def __init__(self, state: Optional[dict] = None):
        state = state or {}
        self.outputs: Counter = Counter(state.get("canonical") or {})
        self.processed: int = state.get("processed", 0)

    def __call__(self, _update, deltas) -> None:
        for delta in deltas:
            self.outputs[canonical_delta(delta)] += 1
        self.processed += 1

    def state(self) -> dict:
        return {"canonical": dict(self.outputs), "processed": self.processed}


def _clean_serial(
    experiment: str, total: int
) -> Tuple[Counter, Dict[str, list]]:
    """Ground truth: outputs + final windows of an unjournaled run."""
    exp = resolve_experiment(experiment)
    engine = _engine(exp.build(total), None)
    deltas = drive(engine, exp.build(total).updates(total))
    return Counter(map(canonical_delta, deltas)), _window_rows(engine)


def _run_recorded_until_crash(
    experiment: str,
    total: int,
    config: RecoveryConfig,
    kill_at: int,
    kind: str,
) -> int:
    """Drive a journaled run to the kill point, then damage the disk.

    Returns the seq of the last update the doomed process handled. The
    engine object is simply dropped — exactly what ``kill -9`` leaves.
    """
    exp = resolve_experiment(experiment)
    engine = _engine(exp.build(total), None)
    recorder = Recorder(engine, config)
    tally = _Tally()
    driver = Driver(engine, tally, recorder=recorder, state=tally.state)
    crash_seq = 0
    for update in exp.build(total).updates(total):
        driver.offer(update)
        if tally.processed >= kill_at:
            crash_seq = update.seq
            break
    if kind == "during_checkpoint":
        # The kill lands inside a checkpoint write: the WAL was synced
        # first (the Recorder's ordering), then the snapshot file got
        # half its bytes. It must fail its checksum on restore.
        recorder.wal.sync()
        payload = build_payload(
            engine, config.cache_mode, crash_seq, tally.state()
        )
        data = encode_snapshot(payload)
        with open(recorder.store.path_for(crash_seq), "wb") as handle:
            handle.write(data[: max(1, len(data) // 2)])
    recorder.crash()  # truncate the WAL back to its last fsync
    if kind == "torn_tail":
        # Some of the lost page made it to disk: a record cut mid-payload.
        with open(config.wal_path, "ab") as handle:
            handle.write(b'120 {"relation":"R","rid":')
    return crash_seq


def _resume_serial(
    experiment: str, total: int, config: RecoveryConfig
) -> Tuple[Counter, Dict[str, list], "RecoveredState"]:
    """Restore from ``config``'s directory and run to completion."""
    exp = resolve_experiment(experiment)
    manager = RecoveryManager(
        config, builder=lambda: _engine(exp.build(total), None)
    )
    restored = manager.restore()
    engine = restored.plan
    tally = _Tally(restored.runner_state)
    for seq, deltas in restored.replayed:
        tally(seq, deltas)
    driver = Driver(
        engine,
        tally,
        recorder=Recorder(engine, config),
        state=tally.state,
        replayed=len(restored.replayed),
    )
    for update in exp.build(total).updates(total):
        if update.seq > restored.last_seq:
            driver.offer(update)
    driver.close()
    return tally.outputs, _window_rows(engine), restored


def _experiment_spec(experiment: str, total: int) -> ExperimentSpec:
    return ExperimentSpec(
        workload_factory=partial(_build_workload, experiment, total),
        arrivals=total,
        engine=EngineConfig(tuning=_chaos_config(None)).engine_spec(
            "adaptive"
        ),
        output_mode="canonical",
        collect_windows=True,
    )


def _run_crash_sharded(
    experiment: str,
    seed: int,
    total: int,
    config: RecoveryConfig,
    shards: int,
) -> Tuple[ParallelRun, ParallelRun, int, int]:
    """Supervised sharded crash: kill one worker, let supervision heal."""
    spec = _experiment_spec(experiment, total)
    clean = run_sharded(spec, ParallelConfig(shards=shards, backend="serial"))
    rng = random.Random(seed)
    crash_shard = rng.randrange(shards)
    per_shard = max(2, clean.stats.updates_processed // shards)
    kill_after = rng.randint(max(1, per_shard // 4), max(1, (3 * per_shard) // 4))
    supervisor = Supervisor(
        SupervisionConfig(
            heartbeat_every_updates=200, backoff_base_s=0.01, backoff_max_s=0.1
        ),
        recovery=config,
    )
    run = supervisor.run(
        spec, shards, crashes=[WorkerCrash(crash_shard, kill_after)]
    )
    return run, clean, crash_shard, kill_after


def write_manifest(wal_dir: str, report: CrashReport) -> str:
    """Persist the run parameters ``repro recover`` needs next to the WAL."""
    manifest = {
        "experiment": report.experiment,
        "seed": report.seed,
        "arrivals": report.arrivals,
        "kind": report.kind,
        "cache_mode": report.cache_mode,
        "checkpoint_interval": report.checkpoint_interval,
        "fsync_every": report.fsync_every,
        "shards": report.shards,
    }
    path = os.path.join(wal_dir, MANIFEST_NAME)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def read_manifest(wal_dir: str) -> Dict[str, object]:
    path = os.path.join(wal_dir, MANIFEST_NAME)
    if not os.path.exists(path):
        raise RecoveryError(
            f"no {MANIFEST_NAME} in {wal_dir!r} — was this directory "
            f"written by `repro chaos --crash ... --wal-dir`?"
        )
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except ValueError as error:
            raise RecoveryError(
                f"unreadable {MANIFEST_NAME} in {wal_dir!r}: {error}"
            ) from None


def run_crash_chaos(
    experiment: str,
    seed: int = 0,
    arrivals: Optional[int] = None,
    kind: str = "at_event",
    cache_mode: str = "snapshot",
    checkpoint_interval: int = 500,
    fsync_every: int = 32,
    wal_dir: Optional[str] = None,
    shards: int = 1,
    recover: bool = True,
) -> CrashReport:
    """One full crash-and-recover cycle; see the module docstring."""
    try:
        exp = resolve_experiment(experiment)
    except ReproError as exc:
        raise RecoveryError(str(exc)) from None
    if kind not in CRASH_KINDS:
        raise RecoveryError(
            f"crash kind must be one of {CRASH_KINDS}, got {kind!r}"
        )
    if cache_mode not in CACHE_MODES:
        raise RecoveryError(
            f"cache mode must be one of {CACHE_MODES}, got {cache_mode!r}"
        )
    total = arrivals if arrivals is not None else max(
        1_000, exp.arrivals // 4
    )
    if shards > 1 and kind != "at_event":
        raise RecoveryError(
            f"sharded crash chaos only supports kind 'at_event' (a worker "
            f"kill); {kind!r} damages files a single serial journal owns"
        )
    if not recover and shards > 1:
        raise RecoveryError(
            "--no-recover needs a serial run: the supervisor recovers "
            "crashed shards as part of the run itself"
        )
    if not recover and wal_dir is None:
        raise RecoveryError(
            "--no-recover needs --wal-dir: the crashed journal must "
            "outlive the command for `repro recover` to restore it"
        )

    owns_dir = wal_dir is None
    directory = wal_dir or tempfile.mkdtemp(prefix="repro-crash-")
    config = RecoveryConfig(
        wal_dir=directory,
        checkpoint_interval=checkpoint_interval,
        fsync_every=fsync_every,
        cache_mode=cache_mode,
    )
    report = CrashReport(
        experiment=experiment,
        seed=seed,
        arrivals=total,
        kind=kind,
        cache_mode=cache_mode,
        checkpoint_interval=checkpoint_interval,
        fsync_every=fsync_every,
        shards=shards,
        wal_dir=None if owns_dir else directory,
    )
    try:
        if shards > 1:
            run, clean, crash_shard, kill_after = _run_crash_sharded(
                experiment, seed, total, config, shards
            )
            report.crash_shard = crash_shard
            report.kill_at = kill_after
            report.restarts = run.total_restarts
            report.fallbacks = len(run.fallbacks)
            clean_outputs = clean.merged_canonical()
            recovered_outputs = run.merged_canonical()
            report.outputs_identical = recovered_outputs == clean_outputs
            report.windows_identical = (
                run.merged_windows() == clean.merged_windows()
            )
            report.outputs_clean = sum(clean_outputs.values())
            report.outputs_recovered = sum(recovered_outputs.values())
        else:
            clean_outputs, clean_windows = _clean_serial(experiment, total)
            total_updates = sum(
                1 for _ in exp.build(total).updates(total)
            )
            report.kill_at = _seeded_kill_point(seed, total_updates)
            _run_recorded_until_crash(
                experiment, total, config, report.kill_at, kind
            )
            if not recover:
                report.recovered = False
                report.outputs_clean = sum(clean_outputs.values())
                write_manifest(directory, report)
                return report
            outputs, windows, restored = _resume_serial(
                experiment, total, config
            )
            report.checkpoint_seq = restored.checkpoint_seq
            report.replayed = len(restored.replayed)
            report.wal_torn = restored.wal_torn
            report.skipped_checkpoints = restored.skipped_checkpoints
            report.outputs_identical = outputs == clean_outputs
            report.windows_identical = windows == clean_windows
            report.outputs_clean = sum(clean_outputs.values())
            report.outputs_recovered = sum(outputs.values())
        if not owns_dir:
            write_manifest(directory, report)
        return report
    finally:
        if owns_dir:
            shutil.rmtree(directory, ignore_errors=True)


def recover_and_verify(wal_dir: str) -> CrashReport:
    """``repro recover DIR``: restore a journaled directory and verify.

    Reads the manifest ``chaos --crash --wal-dir`` left, restores from
    whatever checkpoints + WAL survive, resumes the deterministic source
    to completion, and checks the result against a fresh clean run.
    Idempotent: recovering an already-recovered directory replays its
    (complete) journal and verifies again.
    """
    manifest = read_manifest(wal_dir)
    experiment = str(manifest["experiment"])
    try:
        resolve_experiment(experiment)
    except ReproError:
        raise RecoveryError(
            f"manifest names unknown experiment {experiment!r}"
        ) from None
    total = int(manifest["arrivals"])
    shards = int(manifest.get("shards", 1))
    config = RecoveryConfig(
        wal_dir=wal_dir,
        checkpoint_interval=int(manifest["checkpoint_interval"]),
        fsync_every=int(manifest["fsync_every"]),
        cache_mode=str(manifest["cache_mode"]),
    )
    report = CrashReport(
        experiment=experiment,
        seed=int(manifest.get("seed", 0)),
        arrivals=total,
        kind=str(manifest.get("kind", "at_event")),
        cache_mode=config.cache_mode,
        checkpoint_interval=config.checkpoint_interval,
        fsync_every=config.fsync_every,
        shards=shards,
        wal_dir=wal_dir,
    )
    if shards > 1:
        spec = _experiment_spec(experiment, total)
        clean = run_sharded(
            spec, ParallelConfig(shards=shards, backend="serial")
        )
        run = Supervisor(SupervisionConfig(), recovery=config).run(
            spec, shards
        )
        clean_outputs = clean.merged_canonical()
        recovered_outputs = run.merged_canonical()
        report.outputs_identical = recovered_outputs == clean_outputs
        report.windows_identical = (
            run.merged_windows() == clean.merged_windows()
        )
        report.outputs_clean = sum(clean_outputs.values())
        report.outputs_recovered = sum(recovered_outputs.values())
        return report
    clean_outputs, clean_windows = _clean_serial(experiment, total)
    outputs, windows, restored = _resume_serial(experiment, total, config)
    report.checkpoint_seq = restored.checkpoint_seq
    report.replayed = len(restored.replayed)
    report.wal_torn = restored.wal_torn
    report.skipped_checkpoints = restored.skipped_checkpoints
    report.outputs_identical = outputs == clean_outputs
    report.windows_identical = windows == clean_windows
    report.outputs_clean = sum(clean_outputs.values())
    report.outputs_recovered = sum(outputs.values())
    return report


def format_crash_report(report: CrashReport) -> str:
    """Human-readable crash-chaos summary for the CLI."""
    sharding = f", {report.shards} shards" if report.shards > 1 else ""
    lines = [
        f"crash chaos {report.experiment} — kind {report.kind}, seed "
        f"{report.seed}, {report.arrivals} arrivals{sharding}",
        "=" * 60,
        f"journal: mode={report.cache_mode} "
        f"checkpoint_interval={report.checkpoint_interval} "
        f"fsync_every={report.fsync_every}",
    ]
    if report.shards > 1:
        lines.append(
            f"killed shard {report.crash_shard} after {report.kill_at} "
            f"updates; supervisor restarts={report.restarts} "
            f"fallbacks={report.fallbacks}"
        )
    else:
        lines.append(f"killed after {report.kill_at} processed updates")
    if not report.recovered:
        lines.append(
            f"left crashed (--no-recover); restore with: "
            f"python -m repro recover {report.wal_dir}"
        )
        return "\n".join(lines)
    if report.shards == 1:
        lines.append(
            f"restore: checkpoint seq {report.checkpoint_seq}, "
            f"{report.replayed} WAL records replayed, "
            f"{report.skipped_checkpoints} corrupt checkpoints skipped, "
            f"torn tail: {'yes' if report.wal_torn else 'no'}"
        )
    lines.append(
        f"outputs: clean {report.outputs_clean}, recovered "
        f"{report.outputs_recovered} — "
        f"{'identical' if report.outputs_identical else 'DIVERGED'}"
    )
    lines.append(
        f"windows: "
        f"{'identical' if report.windows_identical else 'DIVERGED'}"
    )
    lines.append(
        f"verdict: {'RECOVERED' if report.verified else 'FAILED'}"
    )
    if report.wal_dir:
        lines.append(f"journal kept at {report.wal_dir}")
    return "\n".join(lines)
