"""Checkpointing a live run, and restoring one after a crash.

The :class:`Recorder` rides along any run loop: every update is
journaled to the WAL *before* processing, and at safe points (an update
boundary, or a micro-batch flush boundary) a checkpoint captures the
engine at the seq of the last processed update. The
:class:`RecoveryManager` inverts that: load the newest valid checkpoint
(falling back past corrupt/partial files), replay the durable WAL suffix
through the engine, and hand back the seq the caller must resume the
deterministic source from.

Two cache modes trade checkpoint size against restore work:

* ``"snapshot"`` pickles the whole engine — caches, profiler,
  re-optimizer, clock, resilience — so restore is byte-for-byte the
  crashed process's state. (Telemetry rings are not engine state: the
  tracer and the span profiler an engine carries pickle as empty ones.)
* ``"rebuild"`` persists only what recomputation cannot reproduce: the
  windowed relations, virtual-clock reading, metrics, and the ingress
  guard's pairing state. Caches are subresults (Definition 3.1 promises
  present-key equality, never completeness), so a fresh engine simply
  re-converges its profiler/re-optimizer and repopulates caches through
  the normal miss path. Emitted deltas are unaffected either way — the
  same cache/order independence the micro-batching equivalence tests
  already pin down — which is why both modes satisfy the byte-identity
  property. (Load shedding is the one exception: it triggers on virtual
  time, which rebuild mode does not preserve beyond the restored
  reading, so shedding runs are excluded from byte-identity just as they
  are for batching.)
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigError, RecoveryError
from repro.obs.decisions import CHECKPOINT, RECOVER
from repro.recovery.snapshot import CheckpointStore
from repro.recovery.wal import WriteAheadLog, read_wal
from repro.streams.events import OutputDelta, Update
from repro.streams.tuples import Row

CACHE_MODES = ("snapshot", "rebuild")

WAL_NAME = "wal.jsonl"
CHECKPOINT_SUBDIR = "checkpoints"


@dataclass(frozen=True)
class RecoveryConfig:
    """Where and how often to persist one run's durable state."""

    wal_dir: str
    checkpoint_interval: int = 1000   # processed updates between snapshots
    fsync_every: int = 64             # WAL records per fsync batch
    cache_mode: str = "snapshot"      # or "rebuild" (drop-and-rebuild caches)
    keep_checkpoints: int = 2

    def __post_init__(self) -> None:
        if not self.wal_dir:
            raise ConfigError("recovery wal_dir must be a non-empty path")
        if self.checkpoint_interval < 1:
            raise ConfigError(
                "recovery checkpoint_interval must be >= 1, got "
                f"{self.checkpoint_interval}"
            )
        if self.fsync_every < 1:
            raise ConfigError(
                f"recovery fsync_every must be >= 1, got {self.fsync_every}"
            )
        if self.cache_mode not in CACHE_MODES:
            raise ConfigError(
                f"recovery cache_mode must be one of {CACHE_MODES}, got "
                f"{self.cache_mode!r}"
            )
        if self.keep_checkpoints < 1:
            raise ConfigError(
                "recovery keep_checkpoints must be >= 1, got "
                f"{self.keep_checkpoints}"
            )

    @property
    def wal_path(self) -> str:
        return os.path.join(self.wal_dir, WAL_NAME)

    @property
    def checkpoint_dir(self) -> str:
        return os.path.join(self.wal_dir, CHECKPOINT_SUBDIR)

    def for_shard(self, shard: int) -> "RecoveryConfig":
        """The per-shard sub-config (own WAL + checkpoints directory)."""
        from dataclasses import replace

        return replace(
            self, wal_dir=os.path.join(self.wal_dir, f"shard-{shard}")
        )


def _relations_of(plan) -> Dict[str, object]:
    executor = getattr(plan, "executor", plan)
    return executor.relations


def _window_rows(plan) -> Dict[str, List[Tuple[int, tuple]]]:
    return {
        name: sorted(
            ((row.rid, row.values) for row in relation.rows()),
            key=lambda pair: pair[0],
        )
        for name, relation in _relations_of(plan).items()
    }


def _guard_of(plan):
    resilience = getattr(plan, "resilience", None)
    return getattr(resilience, "guard", None) if resilience else None


def build_payload(
    plan,
    cache_mode: str,
    last_seq: int,
    runner_state: Optional[dict] = None,
) -> dict:
    """The checkpoint payload capturing ``plan`` just after ``last_seq``."""
    payload: dict = {
        "seq": last_seq,
        "cache_mode": cache_mode,
        "runner_state": runner_state,
    }
    if cache_mode == "snapshot":
        payload["engine"] = plan
        return payload
    payload["windows"] = _window_rows(plan)
    payload["clock_us"] = plan.ctx.clock.now_us
    payload["metrics"] = plan.ctx.metrics.snapshot()
    guard = _guard_of(plan)
    if guard is not None:
        payload["guard"] = {
            "pending_extra_deletes": dict(guard._pending_extra_deletes),
            "by_reason": dict(guard.by_reason),
            "entries": guard.dead_letters.entries(),
            "total": guard.dead_letters.total,
            "dropped": guard.dead_letters.dropped,
        }
    return payload


class Recorder:
    """Journals one run: WAL every update, checkpoint at safe points."""

    def __init__(self, plan, config: RecoveryConfig):
        self.plan = plan
        self.config = config
        os.makedirs(config.wal_dir, exist_ok=True)
        self.wal = WriteAheadLog(
            config.wal_path, fsync_every=config.fsync_every, ctx=plan.ctx
        )
        self.store = CheckpointStore(config.checkpoint_dir)
        self._since_checkpoint = 0
        self.checkpoints = 0
        self.last_checkpoint_seq = 0
        self._crashed = False

    def log(self, update: Update) -> None:
        """Write-ahead: journal before the engine sees the update."""
        self.wal.append(update)

    def mark_processed(self, count: int = 1) -> None:
        self._since_checkpoint += count

    def due(self) -> bool:
        """True when the next safe point should checkpoint."""
        return self._since_checkpoint >= self.config.checkpoint_interval

    def maybe_checkpoint(
        self, last_seq: int, runner_state: Optional[dict] = None
    ) -> bool:
        """Checkpoint if due. Call only at safe points — an update (or
        flushed-batch) boundary, where the engine state reflects exactly
        the updates with seq <= ``last_seq``."""
        if not self.due():
            return False
        self.checkpoint(last_seq, runner_state)
        return True

    def checkpoint(
        self, last_seq: int, runner_state: Optional[dict] = None
    ) -> str:
        """Force a checkpoint at ``last_seq``; returns its path."""
        # WAL first: a checkpoint must never be newer than the durable log.
        self.wal.sync()
        ctx = self.plan.ctx
        rows = sum(len(rows) for rows in _window_rows(self.plan).values())
        ctx.clock.charge(
            ctx.cost_model.checkpoint_base + ctx.cost_model.checkpoint_row * rows
        )
        payload = build_payload(
            self.plan, self.config.cache_mode, last_seq, runner_state
        )
        path = self.store.write(last_seq, payload)
        self.store.prune(self.config.keep_checkpoints)
        self.checkpoints += 1
        self.last_checkpoint_seq = last_seq
        self._since_checkpoint = 0
        ctx.obs.decisions.record(
            ctx.clock.now_us,
            CHECKPOINT,
            "engine",
            reason=(
                f"seq={last_seq} mode={self.config.cache_mode} rows={rows}"
            ),
        )
        return path

    def close(self) -> None:
        """Graceful end of run: the whole WAL becomes durable."""
        self.wal.close()

    def crash(self) -> None:
        """Simulate a kill: lose every record past the last fsync."""
        self._crashed = True
        self.wal.abandon()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Recorder(checkpoints={self.checkpoints}, "
            f"last={self.last_checkpoint_seq}, wal={self.wal.appended})"
        )


@dataclass
class RecoveredState:
    """What :meth:`RecoveryManager.restore` hands back."""

    plan: object
    checkpoint_seq: int            # -1 when no checkpoint survived
    last_seq: int                  # resume the source strictly after this
    replayed: List[Tuple[int, List[OutputDelta]]]  # per replayed update
    wal_records: int               # complete records found in the log
    wal_torn: bool                 # the log ended in a torn record
    skipped_checkpoints: int       # corrupt/partial snapshots skipped
    runner_state: Optional[dict]   # caller state stored at the checkpoint


class RecoveryManager:
    """Restores a journaled run: checkpoint + WAL replay."""

    def __init__(self, config: RecoveryConfig, builder: Callable[[], object]):
        self.config = config
        self.builder = builder
        self.store = CheckpointStore(config.checkpoint_dir)

    def restore(self) -> RecoveredState:
        """Load the newest valid checkpoint and replay the WAL suffix.

        Falls back past corrupt/partial checkpoints (and a torn WAL
        tail); with nothing durable at all it returns a fresh engine at
        seq 0, which is simply a full deterministic re-run.
        """
        seq0, payload, skipped = self.store.latest_valid()
        if payload is None:
            seq0 = -1  # seqs start at 0; nothing durable covers any of them
        plan = self._restore_plan(payload)
        runner_state = payload.get("runner_state") if payload else None
        updates, torn, valid_bytes = read_wal(self.config.wal_path)
        if torn:
            # Repair: drop the torn tail so appends can safely resume.
            with open(self.config.wal_path, "ab") as handle:
                handle.truncate(valid_bytes)
        replayed: List[Tuple[int, List[OutputDelta]]] = []
        last = seq0
        for update in updates:
            if update.seq <= seq0:
                continue
            if update.seq <= last:
                raise RecoveryError(
                    f"WAL is not seq-ordered: {update.seq} after {last}"
                )
            replayed.append((update.seq, plan.process(update)))
            last = update.seq
        ctx = plan.ctx
        ctx.obs.decisions.record(
            ctx.clock.now_us,
            RECOVER,
            "engine",
            reason=(
                f"checkpoint={seq0} replayed={len(replayed)} "
                f"skipped={skipped} torn={'yes' if torn else 'no'}"
            ),
        )
        return RecoveredState(
            plan=plan,
            checkpoint_seq=seq0,
            last_seq=last,
            replayed=replayed,
            wal_records=len(updates),
            wal_torn=torn,
            skipped_checkpoints=skipped,
            runner_state=runner_state,
        )

    def _restore_plan(self, payload: Optional[dict]):
        if payload is None:
            return self.builder()
        if payload["cache_mode"] == "snapshot":
            return payload["engine"]
        return self._rebuild(payload)

    def _rebuild(self, payload: dict):
        """Fresh engine + persisted windows; caches re-converge."""
        plan = self.builder()
        relations = _relations_of(plan)
        for name, rows in payload["windows"].items():
            relation = relations.get(name)
            if relation is None:
                raise RecoveryError(
                    f"checkpoint has window for unknown relation {name!r}"
                )
            for rid, values in rows:
                # Relation.insert is idempotent by rid and charges no
                # virtual time; the clock is restored wholesale below.
                relation.insert(Row(rid, tuple(values)))
        plan.ctx.clock._now_us = payload["clock_us"]
        plan.ctx.metrics.__dict__.update(payload["metrics"].__dict__)
        guard = _guard_of(plan)
        saved = payload.get("guard")
        if guard is not None and saved is not None:
            guard._pending_extra_deletes = dict(saved["pending_extra_deletes"])
            guard.by_reason = dict(saved["by_reason"])
            for entry in saved["entries"]:
                guard.dead_letters._entries.append(entry)
            guard.dead_letters.total = saved["total"]
            guard.dead_letters.dropped = saved["dropped"]
        # Align the periodic memory check with the restored counters so
        # its cadence resumes where the crashed run left off.
        if hasattr(plan, "_updates_at_memory_check"):
            plan._updates_at_memory_check = plan.ctx.metrics.updates_processed
        return plan
