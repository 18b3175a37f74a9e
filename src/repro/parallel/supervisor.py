"""The process backend: supervised workers with heartbeats and restarts.

Every ``backend="process"`` sharded run goes through one
:class:`Supervisor` loop, which runs one monitored
:class:`multiprocessing.Process` per shard:

* each worker streams per-shard **heartbeats** (its processed-update
  count) over a pipe; a worker that stops beating for
  ``heartbeat_timeout_s`` is declared hung and killed;
* a dead or hung worker is **restarted with bounded exponential
  backoff** (``min(backoff_max_s, backoff_base_s * 2**(n-1))``); with a
  per-shard :class:`~repro.recovery.manager.RecoveryConfig` the restart
  *resumes from the shard's last checkpoint* — :func:`run_shard`'s
  restore path — instead of recomputing from scratch;
* after ``max_restarts`` failed restarts the shard trips a **circuit
  breaker**: the supervisor stops burning processes and runs that shard
  serially in-parent (still resuming from its checkpoint), so a
  poisoned shard degrades the run instead of hanging it.

On a coordinated run the same pipes carry snapshots up and cache plans
down. The loop blocks in :func:`multiprocessing.connection.wait` on the
pipes and process sentinels (never on a polling timer), so a plan goes
out as soon as its epoch barrier completes.

Deliberate crash injection for tests and the chaos CLI is a
:class:`WorkerCrash`: kill shard ``shard`` after ``after_updates``
processed updates, for the first ``attempts`` spawn attempts. Because a
restart resumes deterministic work, the merged output of a crashed-and-
recovered run is identical to a clean sharded run — the property
``tests/test_supervisor.py`` pins down.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError, ParallelError
from repro.obs.decisions import WORKER_FALLBACK, WORKER_RESTART, DecisionLog
from repro.parallel.adaptivity import EpochCoordinator, PipeChannel
from repro.parallel.engine import ParallelConfig, ParallelEngine, ParallelRun
from repro.parallel.shard import ShardResult, run_shard
from repro.parallel.spec import ExperimentSpec


@dataclass(frozen=True)
class SupervisionConfig:
    """Heartbeat cadence, hang detection, and restart policy."""

    heartbeat_every_updates: int = 500   # worker -> parent cadence
    heartbeat_timeout_s: float = 30.0    # silence => declared hung
    max_restarts: int = 3                # per shard, then circuit-break
    backoff_base_s: float = 0.05         # first restart delay
    backoff_max_s: float = 2.0           # exponential backoff ceiling

    def __post_init__(self) -> None:
        if self.heartbeat_every_updates < 1:
            raise ConfigError(
                "supervision heartbeat_every_updates must be >= 1, got "
                f"{self.heartbeat_every_updates}"
            )
        if self.heartbeat_timeout_s <= 0:
            raise ConfigError(
                "supervision heartbeat_timeout_s must be positive, got "
                f"{self.heartbeat_timeout_s}"
            )
        if self.max_restarts < 0:
            raise ConfigError(
                "supervision max_restarts must be >= 0, got "
                f"{self.max_restarts}"
            )
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ConfigError(
                "supervision backoff_base_s/backoff_max_s must be >= 0"
            )

    def backoff_s(self, restart: int) -> float:
        """Delay before restart number ``restart`` (1-based)."""
        return min(
            self.backoff_max_s,
            self.backoff_base_s * (2 ** max(0, restart - 1)),
        )


@dataclass(frozen=True)
class WorkerCrash:
    """Deterministic crash injection for one shard's worker."""

    shard: int
    after_updates: int     # processed-update count the worker dies at
    attempts: int = 1      # spawn attempts that carry the kill

    def __post_init__(self) -> None:
        if self.shard < 0:
            raise ConfigError(f"crash shard must be >= 0, got {self.shard}")
        if self.after_updates < 1:
            raise ConfigError(
                "crash after_updates must be >= 1, got "
                f"{self.after_updates}"
            )
        if self.attempts < 1:
            raise ConfigError(
                f"crash attempts must be >= 1, got {self.attempts}"
            )


def _supervised_worker(
    conn,
    spec,
    shard,
    shard_count,
    recovery,
    kill_after,
    heartbeat_every,
    coordinate=False,
) -> None:
    """Worker entry point: run the shard, streaming heartbeats back.

    With ``coordinate`` the same pipe doubles as the adaptivity-plane
    transport: heartbeats and snapshots flow up, cache plans flow down
    (the parent never sends anything else, so the worker's blocking
    ``recv`` inside :class:`PipeChannel` only ever sees plans).
    """

    def progress(processed: int) -> None:
        if processed % heartbeat_every == 0:
            try:
                conn.send(("hb", processed))
            except (BrokenPipeError, OSError):  # parent gone; keep working
                pass

    try:
        result = run_shard(
            spec,
            shard,
            shard_count,
            recovery=recovery,
            progress=progress,
            kill_after=kill_after,
            coordination=PipeChannel(conn) if coordinate else None,
        )
        conn.send(("ok", result))
    except Exception as error:  # surfaced to the parent as a failure
        try:
            conn.send(("err", f"{type(error).__name__}: {error}"))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


@dataclass
class _ShardState:
    """Parent-side bookkeeping for one supervised shard."""

    shard: int
    crash: Optional[WorkerCrash] = None
    process: Optional[object] = None
    conn: Optional[object] = None
    restarts: int = 0          # worker spawns beyond the first
    result: Optional[ShardResult] = None
    failure: Optional[str] = None
    last_beat: float = 0.0
    next_spawn_at: float = 0.0
    fallback: bool = False


class Supervisor:
    """Runs sharded experiments under restartable worker processes —
    the process backend of :class:`~repro.parallel.engine.ParallelEngine`."""

    def __init__(
        self,
        supervision: Optional[SupervisionConfig] = None,
        recovery=None,
    ):
        self.supervision = (
            supervision if supervision is not None else SupervisionConfig()
        )
        # A run-level RecoveryConfig; each shard journals under
        # ``<wal_dir>/shard-<i>``. None disables durable restarts (a
        # restarted shard recomputes from scratch — still correct, the
        # work is deterministic, just slower).
        self.recovery = recovery
        # Run-scoped state, set by supervise(): the decision log, the
        # experiment, the adaptivity plane's coordinator (None for
        # uncoordinated runs) and one _ShardState per shard.
        self.decisions = DecisionLog()
        self._spec: Optional[ExperimentSpec] = None
        self._coordinator: Optional[EpochCoordinator] = None
        self._states: List[_ShardState] = []

    def run(
        self,
        spec: ExperimentSpec,
        shards: int,
        crashes: Sequence[WorkerCrash] = (),
    ) -> ParallelRun:
        """Fan out, supervise to completion, merge — never hang. Even a
        one-shard run gets a worker, so crashes can be injected."""
        return ParallelEngine(
            ParallelConfig(shards=shards, backend="process"), supervisor=self
        ).run(spec, crashes=crashes)

    def supervise(
        self,
        spec: ExperimentSpec,
        shards: int,
        coordinator: Optional[EpochCoordinator],
        crashes: Sequence[WorkerCrash],
    ) -> Tuple[List[ShardResult], Dict[str, object]]:
        """Run every shard in a worker until all have results; return
        them in shard order with the supervision history as
        :class:`~repro.parallel.engine.ParallelRun` fields."""
        crash_by_shard = {crash.shard: crash for crash in crashes}
        self.decisions = DecisionLog()
        self._spec, self._coordinator = spec, coordinator
        self._states = states = [
            _ShardState(shard, crash_by_shard.get(shard))
            for shard in range(shards)
        ]
        try:
            for state in states:
                self._spawn(state)
            while any(state.result is None for state in states):
                for state in states:
                    if state.result is None:
                        self._step(state)
                self._wait()
        finally:
            # Finished workers are joined only here, so one's exit never
            # holds up another's result transfer; on an error, no worker
            # outlives the run.
            for state in states:
                if state.result is None and state.process is not None:
                    state.process.terminate()
                self._reap(state)
        return [state.result for state in states], {
            "restarts": {
                state.shard: state.restarts
                for state in states
                if state.restarts
            },
            "fallbacks": [state.shard for state in states if state.fallback],
            "decisions": [r.to_dict() for r in self.decisions.entries()],
        }

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def _step(self, state: _ShardState) -> None:
        """Advance one unfinished shard: spawn it when due, take its
        messages, and act on its completion, death, or silence."""
        now = time.monotonic()
        if state.process is None:
            if now >= state.next_spawn_at:
                self._spawn(state)
            return
        self._drain(state)
        if state.result is None and state.failure is None:
            timeout = self.supervision.heartbeat_timeout_s
            if not state.process.is_alive():
                self._drain(state)  # the pipe may hold a final "ok"
            elif (
                self._coordinator is not None
                and state.shard in self._coordinator.waiting
            ):
                # Blocked at an epoch barrier: provably alive (it just
                # submitted a snapshot) but unable to beat until the
                # plan arrives — don't count the silence.
                state.last_beat = now
                return
            elif now - state.last_beat > timeout:
                state.process.terminate()
                state.failure = (
                    f"no heartbeat for {timeout:.1f}s; worker killed"
                )
            else:
                return
        if state.result is not None:
            self._retire_shard(state.shard)
        else:
            self._on_failure(state)

    def _wait(self) -> None:
        """Block until a live pipe or process sentinel is ready, or until
        the next heartbeat deadline or due respawn."""
        ready, deadlines = [], []
        timeout = self.supervision.heartbeat_timeout_s
        for state in self._states:
            if state.result is not None:
                continue
            if state.process is None:
                deadlines.append(state.next_spawn_at)
                continue
            ready.append(state.process.sentinel)
            if state.conn is not None:
                ready.append(state.conn)
            deadlines.append(state.last_beat + timeout)
        if deadlines:
            wait(ready, timeout=max(0.0, min(deadlines) - time.monotonic()))

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _shard_recovery(self, shard: int):
        if self.recovery is None:
            return None
        return self.recovery.for_shard(shard)

    def _spawn(self, state: _ShardState) -> None:
        """Start a worker for ``state``'s shard — the one place sharded
        runs start processes."""
        kill_after = None
        if state.crash is not None and state.restarts < state.crash.attempts:
            kill_after = state.crash.after_updates
        coordinate = self._coordinator is not None
        # Coordinated workers need the downstream direction for plans.
        parent_conn, child_conn = multiprocessing.Pipe(duplex=coordinate)
        process = multiprocessing.Process(
            target=_supervised_worker,
            args=(
                child_conn,
                self._spec,
                state.shard,
                len(self._states),
                self._shard_recovery(state.shard),
                kill_after,
                self.supervision.heartbeat_every_updates,
                coordinate,
            ),
            daemon=True,
        )
        try:
            process.start()
        except (pickle.PicklingError, AttributeError, TypeError) as error:
            # Spawn/forkserver start methods pickle the spec here; one
            # that cannot be pickled (closure factories) is a
            # configuration problem, not a crash.
            raise ParallelError(
                f"process backend could not ship the experiment to "
                f"workers: {error}"
            ) from None
        child_conn.close()
        state.process = process
        state.conn = parent_conn
        state.last_beat = time.monotonic()

    def _reap(self, state: _ShardState) -> None:
        if state.conn is not None:
            state.conn.close()
            state.conn = None
        if state.process is not None:
            state.process.join(timeout=5.0)
            state.process = None

    def _push_plans(self, deliveries) -> None:
        """Route coordinator plan deliveries to their shards' pipes."""
        for shard, plan in deliveries:
            target = self._states[shard]
            if target.conn is None:
                continue
            try:
                target.conn.send(("plan", plan))
            except (BrokenPipeError, OSError):
                pass  # dying worker; its restart re-reaches the barrier

    def _retire_shard(self, shard: int) -> None:
        """Drop a shard from the adaptivity plane (done or fallback)."""
        if self._coordinator is not None:
            self._push_plans(self._coordinator.retire(shard))

    def _drain(self, state: _ShardState) -> None:
        """Pull every queued message off one shard's pipe."""
        while state.conn is not None and state.conn.poll(0):
            try:
                message = state.conn.recv()
            except (EOFError, OSError):
                # The worker closed its end; stop waiting on the pipe
                # and let the process sentinel report the exit.
                state.conn.close()
                state.conn = None
                return
            kind = message[0]
            if kind == "hb":
                state.last_beat = time.monotonic()
            elif kind == "ok":
                state.result = message[1]
            elif kind == "err":
                state.failure = message[1]
            elif kind == "snap" and self._coordinator is not None:
                # Reaching a barrier proves liveness as surely as a
                # heartbeat does.
                state.last_beat = time.monotonic()
                _, epoch, shard, snapshot = message
                self._push_plans(
                    self._coordinator.submit(epoch, shard, snapshot)
                )

    def _on_failure(self, state: _ShardState) -> None:
        reason = state.failure or (
            f"worker exited with code {state.process.exitcode}"
        )
        state.failure = None
        self._reap(state)
        if state.restarts >= self.supervision.max_restarts:
            # Circuit breaker: stop burning processes; run the shard
            # serially in-parent, resuming from its last checkpoint.
            state.fallback = True
            self.decisions.record(
                time.monotonic() * 1e6,
                WORKER_FALLBACK,
                f"shard-{state.shard}",
                reason=(
                    f"{reason}; {state.restarts} restarts exhausted, "
                    f"degrading to in-parent serial execution"
                ),
            )
            # Leave the adaptivity plane first — remaining workers must
            # not block on barriers this shard will never reach. The
            # fallback runs uncoordinated (local adaptivity), which is
            # the degraded-but-correct mode: cache choices never change
            # emitted results.
            self._retire_shard(state.shard)
            state.result = run_shard(
                self._spec,
                state.shard,
                len(self._states),
                recovery=self._shard_recovery(state.shard),
            )
            return
        state.restarts += 1
        delay = self.supervision.backoff_s(state.restarts)
        state.next_spawn_at = time.monotonic() + delay
        self.decisions.record(
            time.monotonic() * 1e6,
            WORKER_RESTART,
            f"shard-{state.shard}",
            reason=(
                f"{reason}; restart {state.restarts}/"
                f"{self.supervision.max_restarts} in {delay:.3f}s"
            ),
        )
