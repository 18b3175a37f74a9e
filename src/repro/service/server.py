"""The streaming ingestion server: Session-facade engines on the wire.

One :class:`StreamingService` hosts any number of continuous queries,
each a :class:`QueryHost` that is a member of one ingest lane
(:class:`_ServiceLane`). The lane owns:

* the engine: one adaptive plan built through the :mod:`repro.api`
  facade (isolated hosting, one lane per query, with a resilience
  controller — the load shedder is the gate *behind* admission
  control), or one :class:`~repro.multi.engine.MultiQueryEngine`
  holding every member (shared hosting, ``shared_engine``),
* the service-side window operators that turn client arrivals into the
  engine's globally ordered update stream,
* the bounded ingress queue, the degradation ladder, and the worker
  that publishes each member's deltas, and
* with ``wal_root`` (isolated only), the query's WAL, delta journal,
  and checkpoint store, so a killed server resumes via
  :class:`~repro.recovery.manager.RecoveryManager` without losing one
  acknowledged update or one logged delta.

Each member owns its per-tenant admission controller, result-delta log,
acknowledged seq, and WebSocket subscribers.

Threading model — three threads, each owning one kind of work:

* the **event loop** owns all service state (windows, seq counters,
  queues, delta logs, subscribers); handlers never await inside an
  order-critical section, so loop-thread sections are atomic;
* a one-thread **WAL executor** serializes every WAL/journal/checkpoint
  file operation (FIFO, so a checkpoint's fsync queues behind every
  pending append);
* a one-thread **engine executor** serializes all engine mutation,
  preserving the paper's global update ordering.

An ingest request is acknowledged (HTTP 202) only after its updates are
fsynced — durability *is* the acknowledgment, which is what makes the
kill-then-recover byte-identity benchmark meaningful.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Tuple

from repro.api import build_adaptive_engine
from repro.errors import ConfigError, ServiceError
from repro.faults.resilience import ResilienceConfig
from repro.obs.decisions import CHECKPOINT, DRAIN, DecisionLog
from repro.obs.export import (
    registries_to_prometheus,
    registry_to_prometheus,
)
from repro.obs.registry import MetricsRegistry
from repro.recovery.framing import encode_json
from repro.recovery.journal import DeltaJournal
from repro.recovery.manager import RecoveryConfig, RecoveryManager, build_payload
from repro.recovery.snapshot import CheckpointStore
from repro.recovery.wal import WriteAheadLog, read_wal
from repro.service.admission import AdmissionController
from repro.service.backpressure import (
    DegradationController,
    IngressQueue,
    TIER_NAMES,
    TIER_PAUSE_SUBSCRIPTIONS,
)
from repro.service.config import ServiceConfig
from repro.service.deltas import (
    DeltaFrame,
    DeltaLog,
    jsonable_delta,
    log_entries,
)
from repro.service.http import (
    BadRequest,
    HttpRequest,
    OP_CLOSE,
    OP_PING,
    OP_PONG,
    OP_TEXT,
    SlowClient,
    encode_ws_frame,
    json_response,
    read_request,
    read_ws_frame,
    response_bytes,
    websocket_accept,
)
from repro.streams.events import Sign, Update
from repro.streams.tuples import Row
from repro.streams.workloads import (
    fig9_workload,
    table2_workload,
    three_way_chain,
)

if TYPE_CHECKING:
    from repro.multi.engine import MultiQueryEngine

__all__ = ["QueryHost", "ServiceThread", "StreamingService", "workload_factory"]

QUERY_NAME = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")
QUERY_SPEC_FILE = "query.json"

_DRAIN_SENTINEL = object()
_CLOSE_FRAME = object()

# Wall-clock seconds buckets for service request/delta latency histograms
# (the registry default buckets are virtual-time microseconds).
SECONDS_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

# A served engine keeps its telemetry on: counters exact, timing
# instrumentation (spans, latency histograms, per-update trace events) on
# one update in this many. At 64 the enabled engine runs within a few
# percent of a disabled one; at 1 it cost more than the join.
TELEMETRY_SAMPLE_EVERY = 64

# The numeric knobs a "chain" registration may set (three_way_chain kwargs).
_CHAIN_PARAMS = {
    "t_multiplicity", "s_multiplicity", "r_multiplicity",
    "rate_r", "rate_s", "rate_t",
    "window_r", "window_s", "window_t", "s_b_offset",
}


def workload_factory(spec: dict) -> Callable[[], object]:
    """Resolve a registration's workload spec to a zero-arg factory.

    Specs name one of the paper's workload templates::

        {"kind": "chain",  "params": {"window_r": 64, ...}}
        {"kind": "star",   "params": {"n": 3, "window": 24}}
        {"kind": "table2", "params": {"point": "D4"}}

    Raises :class:`~repro.errors.ConfigError` on anything else — the
    HTTP layer maps that to a 400, the CLI to ``error:``.
    """
    if not isinstance(spec, dict):
        raise ConfigError("workload spec must be an object")
    kind = spec.get("kind")
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("workload params must be an object")
    if kind == "chain":
        unknown = set(params) - _CHAIN_PARAMS
        if unknown:
            raise ConfigError(
                f"unknown chain workload params: {sorted(unknown)}"
            )
        for key, value in params.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"chain param {key!r} must be a number")
        kwargs = {
            key: (int(value) if key.startswith(("window", "s_b")) else value)
            for key, value in params.items()
        }
        return lambda: three_way_chain(**kwargs)
    if kind == "star":
        n = params.get("n", 3)
        window = params.get("window", 96)
        if not isinstance(n, int) or isinstance(n, bool) or not 2 <= n <= 12:
            raise ConfigError(f"star workload n must be an int in 2..12, got {n!r}")
        if not isinstance(window, int) or window < 1:
            raise ConfigError(f"star workload window must be >= 1, got {window!r}")
        return lambda: fig9_workload(n, window=window)
    if kind == "table2":
        point = params.get("point", "D4")
        if not isinstance(point, str):
            raise ConfigError("table2 workload point must be a string")
        return lambda: table2_workload(point)
    raise ConfigError(
        f"workload kind must be 'chain', 'star', or 'table2', got {kind!r}"
    )


class _ServiceWindows:
    """The service's copy of each relation's sliding window.

    Mirrors :class:`~repro.streams.windows.CountWindow` semantics (delete
    of the expired row precedes the insert) with a shared rid space, and
    additionally supports WAL replay (:meth:`apply`) and checkpoint
    state capture/restore — which the stream-producing windows in
    :mod:`repro.streams` never needed.
    """

    def __init__(self, sizes: Dict[str, int]):
        self.sizes = dict(sizes)
        self._windows: Dict[str, Deque[Row]] = {
            name: deque() for name in sizes
        }
        self.next_rid = 0
        self.last_fed_seq = -1

    def add_relation(self, relation: str, size: int) -> None:
        """Open an empty window for ``relation`` unless one is hosted."""
        if relation not in self.sizes:
            self.sizes[relation] = size
            self._windows[relation] = deque()

    def feed(self, relation: str, values: tuple, seq_start: int) -> List[Update]:
        window = self._windows[relation]
        updates: List[Update] = []
        seq = seq_start
        if len(window) >= self.sizes[relation]:
            expired = window.popleft()
            updates.append(Update(relation, expired, Sign.DELETE, seq))
            seq += 1
        row = Row(self.next_rid, values)
        self.next_rid += 1
        window.append(row)
        updates.append(Update(relation, row, Sign.INSERT, seq))
        self.last_fed_seq = seq
        return updates

    def apply(self, update: Update) -> None:
        """Replay one journaled update's window mutation (recovery path)."""
        window = self._windows[update.relation]
        if update.sign is Sign.INSERT:
            window.append(update.row)
            self.next_rid = max(self.next_rid, update.row.rid + 1)
        else:
            if window and window[0].rid == update.row.rid:
                window.popleft()
            else:  # defensive: delete by rid wherever it sits
                for i, row in enumerate(window):
                    if row.rid == update.row.rid:
                        del window[i]
                        break
        self.last_fed_seq = max(self.last_fed_seq, update.seq)

    def state(self) -> dict:
        return {
            "rows": {
                name: [(row.rid, list(row.values)) for row in window]
                for name, window in self._windows.items()
            },
            "next_rid": self.next_rid,
            "last_fed_seq": self.last_fed_seq,
        }

    def load(self, state: dict) -> None:
        for name, rows in state["rows"].items():
            self._windows[name] = deque(
                Row(rid, tuple(values)) for rid, values in rows
            )
        self.next_rid = state["next_rid"]
        self.last_fed_seq = state["last_fed_seq"]


class _Subscriber:
    """One WebSocket delta subscription with credit-based flow control."""

    def __init__(self, buffer: int, credits: int):
        self.frames: asyncio.Queue = asyncio.Queue(maxsize=buffer)
        self.credits = credits
        self.credit_event = asyncio.Event()
        self.gap = False          # dropped/shed frames since the last send
        self.dropped = 0
        self.sent = 0

    def offer(self, frame) -> None:
        """Enqueue a data frame; a full buffer marks a gap, never blocks."""
        try:
            self.frames.put_nowait(frame)
        except asyncio.QueueFull:
            self.gap = True
            self.dropped += 1

    def control(self, frame: dict) -> None:
        """Enqueue a flow-control frame (same bound, same drop rule)."""
        self.offer(frame)

    def add_credits(self, n: int) -> None:
        self.credits += n
        self.credit_event.set()


class _IngestBatch:
    __slots__ = ("updates", "enqueued_at")

    def __init__(self, updates: List[Update], enqueued_at: float):
        self.updates = updates
        self.enqueued_at = enqueued_at


class _ServiceLane:
    """One ingest lane serving N >= 1 hosted queries.

    The lane owns what its members share: the service windows, the seq
    counters, the bounded ingress queue, the degradation ladder, the
    worker task and its engine-executor job, the publish fan-out, tier
    transitions, and drain/kill. With ``wal_root`` it also owns the WAL,
    the delta journal, checkpoints and restore; a durable lane always
    has exactly one member, because ``ServiceConfig`` refuses
    ``shared_engine`` together with ``wal_root``.

    Isolated hosting is one lane per query over one adaptive plan
    (``multi is None``, ``label`` is the query's name); shared hosting is
    one lane over a :class:`~repro.multi.engine.MultiQueryEngine` holding
    every member (``label`` is ``_shared``). Only the engine step
    differs; both shapes publish per member through the same code.
    """

    def __init__(
        self,
        config: ServiceConfig,
        loop: asyncio.AbstractEventLoop,
        wal_exec: ThreadPoolExecutor,
        engine_exec: ThreadPoolExecutor,
        registry: MetricsRegistry,
        label: str,
        multi: Optional[MultiQueryEngine] = None,
    ):
        self.config = config
        self.label = label
        self.multi = multi
        self._loop = loop
        self._wal_exec = wal_exec
        self._engine_exec = engine_exec
        self.registry = registry
        self.plan = None            # the adaptive plan of an isolated lane
        self._workload = None
        self.members: Dict[str, QueryHost] = {}
        self.windows = _ServiceWindows({})
        self.next_seq = 0
        self.processed_seq = -1    # engine has applied updates <= this
        self.engine_errors = 0
        self.checkpoints = 0
        self.resumed = False
        self.replayed_updates = 0
        self.draining = False
        self.queue = IngressQueue(config.queue_capacity_updates)
        self._since_checkpoint = 0
        # Instruments bound once; the per-batch path only bumps them.
        labels = {"query": label}
        self._engine_error_counter = registry.counter(
            "repro_service_engine_errors_total", labels
        )
        self._delta_latency = registry.histogram(
            "repro_service_delta_latency_seconds", labels,
            buckets=SECONDS_BUCKETS,
        )

        self.wal: Optional[WriteAheadLog] = None
        self.journal: Optional[DeltaJournal] = None
        self.store: Optional[CheckpointStore] = None
        self.recovery_config: Optional[RecoveryConfig] = None
        self._journaled: Optional[QueryHost] = None
        # Tier changes and drain/checkpoint decisions go to the plan's
        # decision log on an isolated lane (opened with the plan).
        self.decisions: Optional[DecisionLog] = None
        self.tiers: Optional[DegradationController] = None
        if multi is not None:
            self._open_tiers(DecisionLog())
        self.worker: Optional[asyncio.Task] = None
        # Serializes membership changes: each validates against the
        # windows before its engine job and updates them after it.
        self._membership = asyncio.Lock()

    def _open_tiers(self, decisions: DecisionLog) -> None:
        self.decisions = decisions
        self.tiers = DegradationController(self.config, decision_log=decisions)
        self._last_tier = self.tiers.tier

    def start(self) -> None:
        """Start the worker task (once; needs the running loop)."""
        if self.worker is None:
            self.worker = self._loop.create_task(self.run_worker())

    # ------------------------------------------------------------------
    # membership / construction / recovery
    # ------------------------------------------------------------------
    async def add(self, member: "QueryHost", workload) -> object:
        """Host ``member``'s query on this lane; returns its engine.

        On a shared lane the engine half — splicing the query into the
        shared engine — is a job on the engine executor, which is single
        threaded and FIFO, so it lands between two batches, never inside
        one. The loop-owned state (windows, members) changes only after
        that job is done.
        """
        async with self._membership:
            for relation, size in workload.windows.items():
                hosted = self.windows.sizes.get(relation)
                if hosted is not None and hosted != size:
                    raise ConfigError(
                        f"relation {relation!r} is hosted with window "
                        f"{hosted}; query {member.name!r} expects {size} — "
                        "shared streams must agree on window sizes"
                    )
            if self.multi is not None:
                # Splices into the shared engine warm; the lane's windows
                # grow only after the engine accepted the query.
                engine = await self._loop.run_in_executor(
                    self._engine_exec, self.multi.register,
                    member.name, workload, self.config.engine,
                )
            for relation, size in workload.windows.items():
                self.windows.add_relation(relation, size)
            if self.multi is None:
                self._workload = workload
                if self.config.wal_root is not None:
                    self._open_durable(member)
                else:
                    self.plan = self._construct_engine()
                self._open_tiers(self.plan.ctx.obs.decisions)
                engine = self.plan
            self.members[member.name] = member
            return engine

    async def remove(self, name: str) -> None:
        """Remove a member of a shared lane at an update boundary — the
        engine half is a job on the engine executor, as in :meth:`add` —
        the shared windows stay warm and only unreferenced cache bytes
        are released."""
        async with self._membership:
            if name not in self.members:
                return
            await self._loop.run_in_executor(
                self._engine_exec, self.multi.unregister, name
            )
            self.members.pop(name).close_subscribers("unregistered")

    def _construct_engine(self):
        from repro import obs as obs_mod

        engine_cfg = self.config.engine
        if engine_cfg.resilience is None:
            # The service always runs the engine-side shedder: admission
            # is the first gate, the shedder the second.
            engine_cfg = replace(engine_cfg, resilience=ResilienceConfig())
        handle = obs_mod.Observability.tracing(
            profile=True, sample_every=TELEMETRY_SAMPLE_EVERY
        )
        with obs_mod.session(handle):
            return build_adaptive_engine(self._workload, engine_cfg)

    def _open_durable(self, member: "QueryHost") -> None:
        wal_dir = os.path.join(self.config.wal_root, member.name)
        os.makedirs(wal_dir, exist_ok=True)
        spec_path = os.path.join(wal_dir, QUERY_SPEC_FILE)
        if not os.path.exists(spec_path):
            with open(spec_path, "w", encoding="utf-8") as handle:
                json.dump(member.spec, handle, sort_keys=True)
        engine_cfg = self.config.engine
        self.recovery_config = RecoveryConfig(
            wal_dir=wal_dir,
            checkpoint_interval=self.config.checkpoint_interval,
            fsync_every=engine_cfg.wal_fsync_every,
            cache_mode=engine_cfg.cache_recovery,
        )
        rcfg = self.recovery_config
        self._journaled = member
        self.journal = DeltaJournal(wal_dir)
        had_state = os.path.exists(rcfg.wal_path) or (
            os.path.isdir(rcfg.checkpoint_dir)
            and os.listdir(rcfg.checkpoint_dir)
        )
        if had_state:
            self._restore(rcfg, member)
        else:
            self.plan = self._construct_engine()
        # Append from here on; pre-existing bytes survived a crash or a
        # clean close, which both prove they are durable.
        self.wal = WriteAheadLog(
            rcfg.wal_path, fsync_every=engine_cfg.wal_fsync_every
        )
        self.store = CheckpointStore(rcfg.checkpoint_dir)

    def _restore(self, rcfg: RecoveryConfig, member: "QueryHost") -> None:
        restored = RecoveryManager(rcfg, builder=self._construct_engine).restore()
        self.plan = restored.plan
        state = (restored.runner_state or {}).get("service")
        if state is not None:
            self.windows.load(state["windows"])
            member.delta_trimmed = state["delta_trimmed"]
            self.next_seq = state["next_seq"]
        # The delta log through the checkpoint comes from the journal
        # (which drops whatever it holds past that seq); the rest is
        # regenerated by the replay below and journaled again.
        member.delta_log = DeltaLog(self.journal.load(
            restored.checkpoint_seq, self.config.delta_log_capacity
        ))
        # Re-apply the WAL suffix's window mutations. Engine replay was
        # RecoveryManager's job (everything past the checkpoint seq);
        # service windows were snapshotted at ``last_fed_seq`` which can
        # be *ahead* of the checkpoint (accepted-but-unprocessed
        # updates), so replay strictly past that.
        fed = self.windows.last_fed_seq
        updates, _torn, _ = read_wal(rcfg.wal_path)
        for update in updates:
            if update.seq > fed:
                self.windows.apply(update)
        replayed = log_entries(restored.replayed)
        member.delta_log.extend(replayed)
        self.journal.append(replayed)
        member.trim_delta_log()
        self.next_seq = max(self.next_seq, restored.last_seq + 1)
        self.processed_seq = restored.last_seq
        member.acked_seq = restored.last_seq
        self.resumed = True
        self.replayed_updates = len(restored.replayed)

    # ------------------------------------------------------------------
    # ingest (loop thread; the whole method is one atomic section)
    # ------------------------------------------------------------------
    def try_ingest(
        self,
        member: "QueryHost",
        tenant: str,
        arrivals: List[Tuple[str, tuple]],
    ):
        """Admission → tier → reservation → windows → WAL → queue.

        Returns ``("accepted", updates, wal_future)`` or
        ``("rejected", status, retry_after_s, reason)``. Runs entirely on
        the loop thread with no awaits: the queue reservation happens
        while the 429 can still be issued, so an accepted batch can
        never find the queue full — the deterministic
        429-before-overflow property the integration test pins down.
        Admission is per tenant *per member query*; the queue and the
        tiers are the lane's.
        """
        if self.draining:
            return ("rejected", 503, self.config.drain_deadline_s, "draining")
        if self.tiers.rejecting_ingest:
            self._reject_metric(member, "overloaded")
            return ("rejected", 503, self._retry_after(), "overloaded")
        retry_after = member.admission.admit(tenant, len(arrivals))
        if retry_after > 0.0:
            self._reject_metric(member, "admission")
            return ("rejected", 429, retry_after, "admission")
        worst_case = 2 * len(arrivals)
        if not self.queue.reserve(worst_case):
            self._reject_metric(member, "queue_full")
            return ("rejected", 429, self._retry_after(), "queue_full")
        updates: List[Update] = []
        for relation, values in arrivals:
            updates.extend(
                self.windows.feed(relation, values, self.next_seq + len(updates))
            )
        self.next_seq += len(updates)
        self.queue.cancel_reservation(worst_case - len(updates))
        wal_future = None
        if self.wal is not None:
            wal_future = self._loop.run_in_executor(
                self._wal_exec, self._journal_job, updates
            )
        self.queue.put(_IngestBatch(updates, time.monotonic()))
        self._evaluate_tiers()
        member._ingest_counter.inc(len(updates))
        return ("accepted", updates, wal_future)

    def _reject_metric(self, member: "QueryHost", reason: str) -> None:
        self.registry.counter(
            "repro_service_rejected_total",
            {"query": member.name, "reason": reason},
        ).inc()

    def _retry_after(self) -> float:
        """Backpressure hint: scale with how far behind the worker is."""
        lag = self.queue.oldest_lag_s()
        return min(5.0, max(0.1, lag if lag > 0 else 0.25))

    def _journal_job(self, updates: List[Update]) -> int:
        """WAL-executor job: append + fsync; returns the durable offset."""
        for update in updates:
            self.wal.append(update)
        self.wal.sync()
        return self.wal.durable_offset

    # ------------------------------------------------------------------
    # the worker (one asyncio task per lane)
    # ------------------------------------------------------------------
    async def run_worker(self) -> None:
        while True:
            batch = await self.queue.get()
            if batch is _DRAIN_SENTINEL:
                break
            per_update: Optional[List[Dict[str, list]]]
            try:
                per_update = await self._loop.run_in_executor(
                    self._engine_exec, self._process_job, batch.updates
                )
            except Exception:
                # A poison batch must not kill the worker: count it,
                # release its capacity, and keep serving.
                self.engine_errors += 1
                self._engine_error_counter.inc()
                per_update = None
            if per_update is not None:
                self._publish(batch, per_update)
            self.processed_seq = batch.updates[-1].seq
            self.queue.release(len(batch.updates))
            for member in self.members.values():
                resilience = getattr(member.plan, "resilience", None)
                member.admission.note_engine_degraded(
                    bool(resilience is not None and resilience.degraded)
                )
            self._evaluate_tiers()
            self._delta_latency.observe(time.monotonic() - batch.enqueued_at)
            self._since_checkpoint += len(batch.updates)
            if (
                self.wal is not None
                and self._since_checkpoint >= self.config.checkpoint_interval
            ):
                await self.checkpoint()

    def _process_job(self, updates: List[Update]) -> List[Dict[str, list]]:
        """Engine-executor job: one ``{query: output deltas}`` map per
        update — the only step that differs between the two shapes."""
        if self.multi is not None:
            # Each update through every interested member; the shared
            # window is mutated once (MultiQueryEngine.process).
            return [self.multi.process(update) for update in updates]
        plan, name = self.plan, self.label
        profiler = plan.ctx.obs.profiler
        if profiler.enabled:
            with profiler.span("service:batch", clock=plan.ctx.clock):
                return [{name: plan.process(update)} for update in updates]
        return [{name: plan.process(update)} for update in updates]

    def _publish(
        self, batch: _IngestBatch, per_update: List[Dict[str, list]]
    ) -> None:
        entries_of: Dict[str, List[dict]] = {}
        for update, outputs in zip(batch.updates, per_update):
            for query_id, deltas in outputs.items():
                entries_of.setdefault(query_id, []).append({
                    "seq": update.seq,
                    "deltas": [jsonable_delta(d) for d in deltas],
                })
        shedding = self.tiers.shedding_deltas or self.tiers.subscriptions_paused
        seq_last = batch.updates[-1].seq
        for query_id, entries in entries_of.items():
            member = self.members.get(query_id)
            if member is None:      # unregistered while the batch ran
                continue
            member.delta_log.extend(entries)
            member.trim_delta_log()
            if self.journal is not None:
                # Nobody waits on the append: the checkpoint that must
                # cover it queues behind it on the same executor and
                # fsyncs.
                self._wal_exec.submit(self.journal.append, entries)
            member.offer(entries, seq_last, shedding)

    def _evaluate_tiers(self) -> None:
        tier = self.tiers.update(
            self.queue.depth_fraction, self.queue.oldest_lag_s()
        )
        if tier == self._last_tier:
            return
        crossed_up = (
            tier >= TIER_PAUSE_SUBSCRIPTIONS > self._last_tier
        )
        crossed_down = (
            self._last_tier >= TIER_PAUSE_SUBSCRIPTIONS > tier
        )
        self._last_tier = tier
        if crossed_up or crossed_down:
            for member in self.members.values():
                frame = {
                    "type": "flow",
                    "query": member.name,
                    "state": "pause" if crossed_up else "resume",
                    "tier": TIER_NAMES[tier],
                }
                for subscriber in member.subscribers:
                    subscriber.control(frame)

    # ------------------------------------------------------------------
    # checkpoint / drain
    # ------------------------------------------------------------------
    def _record(self, action: str, reason: str) -> None:
        clock = self.plan.ctx.clock.now_us if self.plan is not None else 0.0
        self.decisions.record(clock, action, "service", reason=reason)

    def _service_state(self) -> dict:
        return {
            "service": {
                "windows": self.windows.state(),
                "next_seq": self.next_seq,
                "delta_trimmed": self._journaled.delta_trimmed,
            }
        }

    async def checkpoint(self) -> None:
        """Snapshot at the current processed seq (engine is quiescent:
        the single worker awaits this before taking the next batch)."""
        if self.wal is None or self.processed_seq < 0:
            return
        state = self._service_state()
        await self._loop.run_in_executor(
            self._wal_exec, self._checkpoint_job, self.processed_seq, state
        )
        self._since_checkpoint = 0

    def _checkpoint_job(self, last_seq: int, runner_state: dict) -> str:
        # WAL first: a checkpoint must never be newer than the durable
        # log. FIFO executor ordering already queued us behind every
        # pending append. The delta journal likewise: the log through
        # last_seq is not in the payload, so it must be durable first.
        self.wal.sync()
        self.journal.sync(self.config.delta_log_capacity)
        payload = build_payload(
            self.plan, self.recovery_config.cache_mode, last_seq, runner_state
        )
        path = self.store.write(last_seq, payload)
        self.store.prune(self.recovery_config.keep_checkpoints)
        self.checkpoints += 1
        self._record(CHECKPOINT, f"query={self.label} seq={last_seq}")
        return path

    async def drain(self, deadline_s: float) -> bool:
        """Stop ingest, let the queue empty, checkpoint, close the WAL.

        Returns True when the queue fully drained within the deadline.
        Idempotent: a drained (or killed) lane only reports its queue.
        """
        if self.draining:
            return self.queue.depth_updates == 0
        self.draining = True
        self._record(
            DRAIN,
            f"query={self.label} begin depth={self.queue.depth_updates}",
        )
        deadline = time.monotonic() + deadline_s
        while self.queue.depth_updates > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        drained = self.queue.depth_updates == 0
        self.queue.put(_DRAIN_SENTINEL)
        if self.worker is not None:
            try:
                await asyncio.wait_for(
                    self.worker, timeout=max(1.0, deadline - time.monotonic())
                )
            except asyncio.TimeoutError:
                self.worker.cancel()
        if self.wal is not None:
            if self.processed_seq >= 0:
                state = self._service_state()
                await self._loop.run_in_executor(
                    self._wal_exec, self._checkpoint_job,
                    self.processed_seq, state,
                )
            await self._loop.run_in_executor(
                self._wal_exec, self._close_files
            )
        self._record(
            DRAIN,
            f"query={self.label} done drained={'yes' if drained else 'no'}",
        )
        for member in self.members.values():
            member.close_subscribers("drain")
        return drained

    def _close_files(self) -> None:
        self.wal.close()
        self.journal.close()

    def kill(self) -> None:
        """Crash simulation: lose everything past the last fsync."""
        self.draining = True
        if self.worker is not None:
            self.worker.cancel()
        if self.wal is not None:
            self.wal.abandon()
            # Nothing past the last checkpoint needs to survive in the
            # journal (replay regenerates it); just release the file.
            self.journal.close()


class QueryHost:
    """One hosted continuous query: a member of one :class:`_ServiceLane`.

    The member owns what is per query: its name, spec, schemas and
    relations, per-tenant admission, the result-delta log, ``acked_seq``,
    the WebSocket subscribers, and :meth:`status`. Built without a
    ``lane`` it opens its own isolated lane over one adaptive plan; a
    shared-engine service passes its one shared lane.
    """

    def __init__(
        self,
        name: str,
        spec: dict,
        config: ServiceConfig,
        loop: asyncio.AbstractEventLoop,
        wal_exec: ThreadPoolExecutor,
        engine_exec: ThreadPoolExecutor,
        registry: MetricsRegistry,
        lane: Optional[_ServiceLane] = None,
    ):
        self.name = name
        self.spec = dict(spec)
        self.config = config
        workload = workload_factory(self.spec.get("workload", {}))()
        self.schemas = {
            rel: list(schema.attributes)
            for rel, schema in workload.graph.schemas.items()
        }
        self.relations = tuple(sorted(workload.windows))
        self.acked_seq = -1        # clients hold 202s for updates <= this
        self.delta_log = DeltaLog()
        self.delta_trimmed = 0
        self.deltas_shed = 0
        self.admission = AdmissionController(
            config.tenant_rate,
            config.tenant_burst,
            degraded_rate_factor=config.degraded_rate_factor,
        )
        self.subscribers: List[_Subscriber] = []
        if lane is None:
            lane = _ServiceLane(
                config, loop, wal_exec, engine_exec, registry, label=name
            )
        self.lane = lane
        self.queue = lane.queue
        self.windows = lane.windows
        self.workload = workload
        self.plan = None            # set once the lane hosts the query
        self._ingest_counter = registry.counter(
            "repro_service_ingest_updates_total", {"query": name}
        )

    def trim_delta_log(self) -> None:
        self.delta_trimmed += self.delta_log.trim(
            self.config.delta_log_capacity
        )

    def offer(self, entries: List[dict], seq_last: int, shedding: bool) -> None:
        """Fan one batch's log entries out to the subscribers."""
        emitted = [entry for entry in entries if entry["deltas"]]
        if shedding:
            # Degraded: drop the fan-out, leave a gap notice for each
            # subscriber. The delta log keeps everything — clients can
            # re-fetch via GET /results once the tier recovers.
            self.deltas_shed += sum(len(e["deltas"]) for e in emitted)
            for subscriber in self.subscribers:
                subscriber.gap = True
            return
        if not emitted or not self.subscribers:
            return
        frame = DeltaFrame(self.name, seq_last, emitted)
        for subscriber in self.subscribers:
            subscriber.offer(frame)

    def close_subscribers(self, reason: str) -> None:
        close_frame = {"type": "close", "query": self.name, "reason": reason}
        for subscriber in self.subscribers:
            subscriber.control(close_frame)
            subscriber.offer(_CLOSE_FRAME)  # type: ignore[arg-type]

    def results_since(self, since_seq: int, limit: int) -> List[dict]:
        return self.delta_log.since(since_seq, limit)

    def status(self) -> dict:
        lane = self.lane
        resilience = getattr(self.plan, "resilience", None)
        status = {
            "query": self.name,
            "workload": self.spec.get("workload", {}),
            "relations": list(self.relations),
            "schema": self.schemas,
        }
        if lane.multi is not None:
            status["shared_engine"] = True
        status.update({
            "tier": TIER_NAMES[lane.tiers.tier],
            "queue_depth_updates": lane.queue.depth_updates,
            "queue_capacity_updates": lane.queue.capacity,
            "oldest_lag_s": round(lane.queue.oldest_lag_s(), 6),
            "next_seq": lane.next_seq,
            "processed_seq": lane.processed_seq,
            "acked_seq": self.acked_seq,
            "delta_log_entries": len(self.delta_log),
            "delta_trimmed": self.delta_trimmed,
            "deltas_shed": self.deltas_shed,
            "engine_errors": lane.engine_errors,
            "checkpoints": lane.checkpoints,
            "resumed": lane.resumed,
            "replayed_updates": lane.replayed_updates,
            "subscribers": len(self.subscribers),
            "admission": self.admission.summary(),
            "shedding": (
                resilience.summary() if resilience is not None else None
            ),
            "updates_processed": self.plan.ctx.metrics.updates_processed,
            "outputs_emitted": self.plan.ctx.metrics.outputs_emitted,
        })
        if lane.multi is not None:
            status["engine"] = lane.multi.snapshot()
        return status


class StreamingService:
    """The asyncio server tying hosts, routing, and lifecycle together."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.hosts: Dict[str, QueryHost] = {}
        # Shared hosting (config.shared_engine): the one lane every host
        # joins. None when each query gets an isolated lane of its own.
        self._shared_lane: Optional[_ServiceLane] = None
        self.registry = MetricsRegistry()
        # Bound once: every connection bumps one of these.
        self._request_counters: Dict[int, object] = {}
        self._request_seconds = self.registry.histogram(
            "repro_service_request_seconds", buckets=SECONDS_BUCKETS
        )
        self.started = False
        self.draining = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wal_exec: Optional[ThreadPoolExecutor] = None
        self._engine_exec: Optional[ThreadPoolExecutor] = None
        self.port: Optional[int] = None
        # Idempotency: (query, key) -> completed (status, payload) LRU,
        # plus in-flight futures so a retried request awaits the original
        # instead of re-ingesting its batch.
        self._idem_done: "OrderedDict[Tuple[str, str], Tuple[int, dict]]" = (
            OrderedDict()
        )
        self._idem_pending: Dict[Tuple[str, str], asyncio.Future] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "StreamingService":
        self._loop = asyncio.get_running_loop()
        self._wal_exec = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="svc-wal"
        )
        self._engine_exec = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="svc-engine"
        )
        if self.config.shared_engine:
            # Imported here: isolated hosting never builds one, and
            # `repro serve` start-up pays for every module it imports.
            from repro.multi.engine import MultiQueryEngine

            engine_cfg = self.config.engine
            self._shared_lane = _ServiceLane(
                self.config, self._loop, self._wal_exec, self._engine_exec,
                self.registry, label="_shared",
                multi=MultiQueryEngine(
                    budget_bytes=(
                        engine_cfg.acaching_config()
                        .reoptimizer.memory_budget_bytes
                    ),
                    share_caches=engine_cfg.share_caches,
                ),
            )
        if self.config.wal_root is not None:
            os.makedirs(self.config.wal_root, exist_ok=True)
            for entry in sorted(os.listdir(self.config.wal_root)):
                spec_path = os.path.join(
                    self.config.wal_root, entry, QUERY_SPEC_FILE
                )
                if os.path.isfile(spec_path):
                    with open(spec_path, "r", encoding="utf-8") as handle:
                        spec = json.load(handle)
                    await self._add_host(entry, spec)
        try:
            self._server = await asyncio.start_server(
                self._on_connection, self.config.host, self.config.port
            )
        except OSError as exc:
            raise ServiceError(
                f"cannot bind {self.config.host}:{self.config.port}: "
                f"{exc.strerror or exc}"
            ) from exc
        self.port = self._server.sockets[0].getsockname()[1]
        self.started = True
        return self

    async def _add_host(self, name: str, spec: dict) -> QueryHost:
        host = QueryHost(
            name, spec, self.config, self._loop,
            self._wal_exec, self._engine_exec, self.registry,
            lane=self._shared_lane,
        )
        host.plan = await host.lane.add(host, host.workload)
        host.lane.start()
        self.hosts[name] = host
        return host

    def _lanes(self) -> List[_ServiceLane]:
        """Every lane with a member, each once, in registration order."""
        return list(dict.fromkeys(host.lane for host in self.hosts.values()))

    async def drain(self) -> Dict[str, bool]:
        """Graceful shutdown tier by tier: reject ingest, empty queues,
        checkpoint, close journals. Idempotent. Every member of a lane
        reports that lane's drain."""
        self.draining = True
        drained = {}
        for lane in self._lanes():
            drained[lane] = await lane.drain(self.config.drain_deadline_s)
        return {name: drained[host.lane] for name, host in self.hosts.items()}

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for executor in (self._wal_exec, self._engine_exec):
            if executor is not None:
                executor.shutdown(wait=True)
        self.started = False

    async def kill(self) -> None:
        """Abrupt stop: no drain, no final checkpoint, journals truncated
        to their last fsync — the in-process stand-in for ``kill -9``."""
        self.started = False
        if self._server is not None:
            self._server.close()
        for lane in self._lanes():
            lane.kill()
        for executor in (self._wal_exec, self._engine_exec):
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)

    @property
    def ready(self) -> bool:
        if not self.started or self.draining:
            return False
        return not any(
            lane.tiers.rejecting_ingest for lane in self._lanes()
        )

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        started = time.monotonic()
        status = 500
        try:
            try:
                request = await read_request(
                    reader,
                    self.config.header_deadline_s,
                    self.config.request_deadline_s,
                )
            except SlowClient:
                status = 408
                writer.write(json_response(408, {"error": "deadline"}))
                await writer.drain()
                return
            except BadRequest as exc:
                status = 400
                writer.write(json_response(400, {"error": str(exc)}))
                await writer.drain()
                return
            if request is None:
                status = 0
                return
            if request.header("upgrade").lower() == "websocket":
                status = 101
                await self._handle_subscribe(request, reader, writer)
                return
            try:
                response, status = await asyncio.wait_for(
                    self._dispatch(request),
                    timeout=self.config.request_deadline_s,
                )
            except asyncio.TimeoutError:
                # Cooperative cancellation: wait_for cancelled the
                # handler at its next await point.
                response, status = json_response(
                    408, {"error": "request deadline exceeded"}
                ), 408
            except BadRequest as exc:
                response, status = json_response(
                    400, {"error": str(exc)}
                ), 400
            except ConfigError as exc:
                response, status = json_response(
                    400, {"error": str(exc)}
                ), 400
            except Exception as exc:  # defensive: a bug must not kill the loop
                response, status = json_response(
                    500, {"error": f"internal: {type(exc).__name__}: {exc}"}
                ), 500
            writer.write(response)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client vanished mid-response; nothing left to say
        except asyncio.CancelledError:
            # Shutdown (or kill) cancelled this connection; close quietly
            # rather than let the streams callback log a traceback.
            pass
        finally:
            counter = self._request_counters.get(status)
            if counter is None:
                counter = self._request_counters[status] = (
                    self.registry.counter(
                        "repro_service_requests_total",
                        {"status": str(status)},
                    )
                )
            counter.inc()
            self._request_seconds.observe(time.monotonic() - started)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _dispatch(self, request: HttpRequest) -> Tuple[bytes, int]:
        method, path = request.method, request.path
        if path == "/healthz" and method == "GET":
            return json_response(
                200, {"status": "ok", "queries": len(self.hosts)}
            ), 200
        if path == "/readyz" and method == "GET":
            if self.ready:
                return json_response(200, {"ready": True}), 200
            reason = "draining" if self.draining else (
                "not_started" if not self.started else "overloaded"
            )
            return json_response(
                503, {"ready": False, "reason": reason}
            ), 503
        if path == "/metrics" and method == "GET":
            return response_bytes(
                200,
                self._metrics_text().encode("utf-8"),
                content_type="text/plain; version=0.0.4",
            ), 200
        if path == "/v1/drain" and method == "POST":
            results = await self.drain()
            return json_response(200, {"draining": True, "drained": results}), 200
        if path == "/v1/queries" and method == "POST":
            return await self._register(request)
        if path == "/v1/queries" and method == "GET":
            return json_response(200, {"queries": sorted(self.hosts)}), 200
        match = re.match(r"^/v1/queries/([^/]+)(/(ingest|results))?$", path)
        if match:
            name, _, action = match.groups()
            host = self.hosts.get(name)
            if host is None:
                return json_response(
                    404, {"error": f"unknown query {name!r}"}
                ), 404
            if action == "ingest" and method == "POST":
                return await self._ingest(host, request)
            if action == "results" and method == "GET":
                return self._results(host, request)
            if action is None and method == "GET":
                return json_response(200, host.status()), 200
            if action is None and method == "DELETE":
                return await self._unregister(name)
        return json_response(
            404, {"error": f"no route for {method} {path}"}
        ), 404

    async def _register(self, request: HttpRequest) -> Tuple[bytes, int]:
        body = request.json()
        if not isinstance(body, dict):
            raise BadRequest("registration body must be an object")
        name = body.get("query")
        if not isinstance(name, str) or not QUERY_NAME.match(name):
            raise BadRequest(
                "query name must match [A-Za-z0-9_.-]{1,64}"
            )
        if self.draining:
            return json_response(503, {"error": "draining"}), 503
        existing = self.hosts.get(name)
        spec = {"workload": body.get("workload", {})}
        if existing is not None:
            if existing.spec == spec:
                return json_response(200, existing.status()), 200
            return json_response(
                409,
                {"error": f"query {name!r} exists with a different spec"},
            ), 409
        workload_factory(spec["workload"])  # validate before building
        host = await self._add_host(name, spec)
        return json_response(200, host.status()), 200

    async def _unregister(self, name: str) -> Tuple[bytes, int]:
        """Remove a query from the shared engine at an update boundary."""
        if self._shared_lane is None:
            return json_response(
                400,
                {"error": "unregister requires a shared_engine service"},
            ), 400
        await self._shared_lane.remove(name)
        self.hosts.pop(name, None)
        for key in [k for k in self._idem_done if k[0] == name]:
            del self._idem_done[key]
        return json_response(
            200, {"query": name, "unregistered": True}
        ), 200

    async def _ingest(
        self, host: QueryHost, request: HttpRequest
    ) -> Tuple[bytes, int]:
        if self.draining:
            return json_response(
                503,
                {"error": "draining"},
                headers={"Retry-After": "30"},
            ), 503
        body = request.json()
        if not isinstance(body, dict):
            raise BadRequest("ingest body must be an object")
        tenant = body.get("tenant") or request.header("x-tenant", "default")
        if not isinstance(tenant, str):
            raise BadRequest("tenant must be a string")
        raw = body.get("arrivals")
        if not isinstance(raw, list) or not raw:
            raise BadRequest("arrivals must be a non-empty list")
        if len(raw) > self.config.max_batch_updates:
            return json_response(
                413,
                {
                    "error": "batch too large",
                    "max_batch_updates": self.config.max_batch_updates,
                },
            ), 413
        arrivals: List[Tuple[str, tuple]] = []
        relations = set(host.relations)
        for item in raw:
            if (
                not isinstance(item, list) or len(item) != 2
                or not isinstance(item[0], str)
                or not isinstance(item[1], list)
            ):
                raise BadRequest(
                    "each arrival must be [relation, [values...]]"
                )
            relation, values = item
            if relation not in relations:
                raise BadRequest(
                    f"unknown relation {relation!r}; expected one of "
                    f"{sorted(relations)}"
                )
            expected = len(host.schemas[relation])
            if len(values) != expected:
                raise BadRequest(
                    f"relation {relation!r} takes {expected} values "
                    f"({host.schemas[relation]}), got {len(values)}"
                )
            for value in values:
                if not isinstance(value, (int, float, str)) or isinstance(
                    value, bool
                ):
                    raise BadRequest(
                        "arrival values must be numbers or strings"
                    )
            arrivals.append((relation, tuple(values)))

        idem_key = request.header("idempotency-key") or None
        cache_key = (host.name, idem_key) if idem_key else None
        if cache_key is not None:
            done = self._idem_done.get(cache_key)
            if done is not None:
                status, payload = done
                return json_response(
                    status, dict(payload, replayed=True)
                ), status
            pending = self._idem_pending.get(cache_key)
            if pending is not None:
                status, payload = await asyncio.shield(pending)
                return json_response(
                    status, dict(payload, replayed=True)
                ), status

        outcome = host.lane.try_ingest(host, tenant, arrivals)
        if outcome[0] == "rejected":
            _, status, retry_after, reason = outcome
            return json_response(
                status,
                {"error": reason, "retry_after_s": round(retry_after, 3)},
                headers={"Retry-After": f"{max(retry_after, 0.001):.3f}"},
            ), status

        _, updates, wal_future = outcome
        if cache_key is not None:
            self._idem_pending[cache_key] = self._loop.create_future()
        payload = {
            "query": host.name,
            "updates": len(updates),
            "seq_first": updates[0].seq,
            "seq_last": updates[-1].seq,
            "durable": wal_future is not None,
        }
        status = 202
        try:
            if wal_future is not None:
                await asyncio.shield(wal_future)
        except Exception as exc:
            # The batch is already enqueued; without the fsync we must
            # not acknowledge. The client retries under the same
            # idempotency key and replays this (non-)result.
            payload = {"error": f"journal failure: {exc}", "durable": False}
            status = 500
        else:
            host.acked_seq = max(host.acked_seq, updates[-1].seq)
        if cache_key is not None:
            future = self._idem_pending.pop(cache_key)
            future.set_result((status, payload))
            self._idem_done[cache_key] = (status, payload)
            while len(self._idem_done) > self.config.idempotency_cache_size:
                self._idem_done.popitem(last=False)
        return json_response(status, payload), status

    def _results(
        self, host: QueryHost, request: HttpRequest
    ) -> Tuple[bytes, int]:
        try:
            since = int(request.query.get("since_seq", "-1"))
            limit = int(request.query.get("limit", "1000"))
        except ValueError as exc:
            raise BadRequest(f"bad query parameter: {exc}") from None
        limit = max(1, min(limit, 10_000))
        entries = host.results_since(since, limit)
        return json_response(
            200,
            {
                "query": host.name,
                "entries": entries,
                "processed_seq": host.lane.processed_seq,
                "trimmed_through": host.delta_log.trimmed_through,
            },
        ), 200

    # ------------------------------------------------------------------
    # subscriptions (WebSocket)
    # ------------------------------------------------------------------
    async def _handle_subscribe(
        self,
        request: HttpRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        match = re.match(r"^/v1/queries/([^/]+)/subscribe$", request.path)
        host = self.hosts.get(match.group(1)) if match else None
        key = request.header("sec-websocket-key")
        if host is None or not key:
            writer.write(
                json_response(
                    404 if host is None else 400,
                    {"error": "unknown query" if host is None else
                     "missing Sec-WebSocket-Key"},
                )
            )
            await writer.drain()
            return
        writer.write(
            response_bytes(
                101,
                headers={
                    "Upgrade": "websocket",
                    "Connection": "Upgrade",
                    "Sec-WebSocket-Accept": websocket_accept(key),
                },
            )
        )
        await writer.drain()
        subscriber = _Subscriber(
            self.config.subscriber_buffer,
            self.config.subscriber_initial_credits,
        )
        host.subscribers.append(subscriber)
        self.registry.counter(
            "repro_service_subscriptions_total", {"query": host.name}
        ).inc()
        try:
            since = int(request.query.get("since_seq", "-1"))
        except ValueError:
            since = -1
        backfill = [
            e for e in host.results_since(since, self.config.delta_log_capacity)
            if e["deltas"]
        ]
        if backfill:
            subscriber.offer(DeltaFrame(
                host.name, backfill[-1]["seq"], backfill, backfill=True
            ))
        send_task = self._loop.create_task(
            self._subscriber_sender(subscriber, writer)
        )
        recv_task = self._loop.create_task(
            self._subscriber_receiver(subscriber, reader)
        )
        try:
            done, pending = await asyncio.wait(
                {send_task, recv_task}, return_when=asyncio.FIRST_COMPLETED
            )
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
        finally:
            if subscriber in host.subscribers:
                host.subscribers.remove(subscriber)

    async def _subscriber_sender(
        self, subscriber: _Subscriber, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                frame = await subscriber.frames.get()
                if frame is _CLOSE_FRAME:
                    writer.write(encode_ws_frame(OP_CLOSE, b""))
                    await writer.drain()
                    return
                if isinstance(frame, DeltaFrame):
                    if subscriber.credits <= 0:
                        # Flow control: tell the client we are waiting,
                        # then block until it grants more credits.
                        writer.write(encode_ws_frame(
                            OP_TEXT,
                            json.dumps(
                                {"type": "flow", "state": "credit_wait"}
                            ).encode("utf-8"),
                        ))
                        await writer.drain()
                        subscriber.credit_event.clear()
                        await subscriber.credit_event.wait()
                    subscriber.credits -= 1
                    data = frame.encode(gap=subscriber.gap)
                    subscriber.gap = False
                else:
                    data = encode_json(frame).encode("utf-8")
                writer.write(encode_ws_frame(OP_TEXT, data))
                await writer.drain()
                subscriber.sent += 1
        except (ConnectionResetError, BrokenPipeError, OSError):
            return

    async def _subscriber_receiver(
        self, subscriber: _Subscriber, reader: asyncio.StreamReader
    ) -> None:
        try:
            while True:
                opcode, payload = await read_ws_frame(reader)
                if opcode == OP_CLOSE:
                    return
                if opcode == OP_PING:
                    subscriber.control({"type": "pong"})
                    continue
                if opcode in (OP_TEXT, OP_PONG) and payload:
                    if opcode != OP_TEXT:
                        continue
                    try:
                        message = json.loads(payload.decode("utf-8"))
                    except (ValueError, UnicodeDecodeError):
                        continue
                    if (
                        isinstance(message, dict)
                        and message.get("type") == "credit"
                    ):
                        n = message.get("n", 1)
                        if isinstance(n, int) and 0 < n <= 1_000_000:
                            subscriber.add_credits(n)
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            OSError,
        ):
            return

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def _metrics_text(self) -> str:
        for name, host in self.hosts.items():
            lane = host.lane
            labels = {"query": name}
            reg = self.registry
            reg.gauge("repro_service_queue_depth_updates", labels).set(
                lane.queue.depth_updates
            )
            reg.gauge("repro_service_queue_lag_seconds", labels).set(
                lane.queue.oldest_lag_s()
            )
            reg.gauge("repro_service_tier", labels).set(lane.tiers.tier)
            reg.gauge("repro_service_acked_seq", labels).set(host.acked_seq)
            reg.gauge("repro_service_processed_seq", labels).set(
                lane.processed_seq
            )
            reg.gauge("repro_service_subscribers", labels).set(
                len(host.subscribers)
            )
            reg.gauge("repro_service_deltas_shed", labels).set(
                host.deltas_shed
            )
            metrics = host.plan.ctx.metrics
            reg.gauge("repro_service_updates_processed", labels).set(
                metrics.updates_processed
            )
            reg.gauge("repro_service_outputs_emitted", labels).set(
                metrics.outputs_emitted
            )
            profiler = host.plan.ctx.obs.profiler
            if profiler.enabled:
                reg.gauge("repro_service_profile_depth", labels).set(
                    profiler.depth
                )
        self.registry.gauge("repro_service_ready").set(1 if self.ready else 0)
        self.registry.gauge("repro_service_queries").set(len(self.hosts))
        # Each hosted engine's own families (repro_*, query_id-labeled)
        # are disjoint from the service's repro_service_*.
        engines = registries_to_prometheus(
            {name: host.plan.ctx.obs.registry
             for name, host in self.hosts.items()},
            metrics_of={name: host.plan.ctx.metrics
                        for name, host in self.hosts.items()},
        )
        return registry_to_prometheus(self.registry) + engines


class ServiceThread:
    """A StreamingService on a background thread with its own loop.

    The harness the tests, the benchmark, the chaos driver, and
    ``repro serve`` all build on: ``start()`` blocks until the socket is
    bound and returns the base URL; ``stop()`` drains gracefully;
    ``kill()`` is the in-process ``kill -9`` (journals truncated to
    their last fsync, no checkpoints, no goodbyes).
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.service: Optional[StreamingService] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    def start(self, timeout_s: float = 30.0) -> str:
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout_s):
            raise ServiceError("service did not start in time")
        if self._error is not None:
            error = self._error
            self._error = None
            raise error
        return self.base_url

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self.service = StreamingService(self.config)
        try:
            loop.run_until_complete(self.service.start())
        except BaseException as exc:  # surface bind errors to start()
            self._error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    @property
    def base_url(self) -> str:
        host = self.config.host
        return f"http://{host}:{self.service.port}"

    @property
    def port(self) -> int:
        return self.service.port

    def stop(self, timeout_s: Optional[float] = None) -> None:
        """Graceful: drain every host, close journals, stop the loop."""
        if self._loop is None or not self._thread.is_alive():
            return
        budget = timeout_s or (self.config.drain_deadline_s + 30.0)

        async def _shutdown() -> None:
            await self.service.drain()
            await self.service.aclose()

        future = asyncio.run_coroutine_threadsafe(_shutdown(), self._loop)
        future.result(timeout=budget)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)

    def kill(self) -> None:
        """Abrupt: simulate a process kill (acked updates stay durable)."""
        if self._loop is None or not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.service.kill(), self._loop
        )
        future.result(timeout=10.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
