"""The four in-process workloads: set-up, drive loops, correctness checks.

All are closed loop with one caller thread: ``Session.process`` (or
``process_batch``) returns before the next update is offered. The
update list is materialised in set-up and replayed, so the stream
sources, windows and value generators never run inside a timed region,
and neither does any digesting.
"""

from __future__ import annotations

import gc
import statistics
from array import array
import sys
import time
import traceback
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Sequence, Tuple

from repro.api import EngineConfig, Session
from repro.parallel.bench import bench_engine_config
from repro.scenarios.library import SCENARIOS, build_scenario_workload
from repro.streams.events import DeltaBatch, Update
from repro.streams.workloads import Workload, fig9_workload

from .micro import NOMINAL_KERNEL_NS, calibration_kernel

WARMUP_UPDATES = 5_000
MIN_REPEATS = 3
SEGMENTS = 20
QUICK_SCALE = 20

_now = time.perf_counter_ns


@dataclass(frozen=True)
class Spec:
    """One in-process workload: a seeded update stream and a drive mode."""

    name: str
    arrivals: int
    batch_size: int
    build: Callable[[int, int], Workload]    # (seed, arrivals) -> Workload


def _star6(_seed: int, _arrivals: int) -> Workload:
    return fig9_workload(6, window=48)


def _scenario(name: str) -> Callable[[int, int], Workload]:
    def build(seed: int, arrivals: int) -> Workload:
        return build_scenario_workload(
            dict(SCENARIOS[name], seed=seed), arrivals
        )

    return build


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec("star6_cached", 25_000, 1, _star6),
        Spec("star6_batch64", 25_000, 64, _star6),
        Spec("skew_fanout", 6_000, 1, _scenario("key_skew_churn")),
        Spec("expiry_thin", 75_000, 1, _scenario("delete_storm")),
    )
}


def engine_config(seed: int, batch_size: int = 1) -> EngineConfig:
    """The bench engine config with the profiler's sampling seeded."""
    config = bench_engine_config(batch_size)
    tuning = config.tuning
    return replace(
        config,
        tuning=replace(
            tuning, profiler=replace(tuning.profiler, seed=seed)
        ),
    )


def materialise(spec: Spec, seed: int, scale: int) -> Tuple[Workload, List[Update]]:
    """A fresh workload and its whole update list."""
    arrivals = max(1, spec.arrivals // scale)
    workload = spec.build(seed, arrivals)
    return workload, list(workload.updates(arrivals))


# ----------------------------------------------------------------------
# driving a session
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Drive:
    """How one session is fed: per update, or in chunks of a batch size."""

    call: Callable                      # item -> engine result
    items_of: Callable                  # updates -> items to feed ``call``
    count: Callable                     # engine result -> output deltas
    per_update: Callable                # engine result -> per-update lists
    weight: Callable                    # item -> updates in it


def drive_for(session: Session, batch_size: int) -> Drive:
    if batch_size == 1:
        return Drive(
            call=session.process,
            items_of=lambda updates: updates,
            count=len,
            per_update=lambda deltas: (deltas,),
            weight=lambda _update: 1,
        )
    process_batch = session.process_batch
    return Drive(
        call=lambda chunk: process_batch(DeltaBatch(chunk)),
        items_of=lambda updates: [
            updates[i:i + batch_size]
            for i in range(0, len(updates), batch_size)
        ],
        count=lambda per_update: sum(map(len, per_update)),
        per_update=lambda per_update: per_update,
        weight=len,
    )


@dataclass
class Pass:
    """What one drive over a list of items measured."""

    durations_ns: List[int]     # one per call
    weights: List[int]          # updates served by each call
    outputs: int
    failed: int                 # updates whose call raised
    digest: int = 0
    wall_ns: int = 0            # timed passes: around the whole loop
    cpu_ns: int = 0

    @property
    def updates(self) -> int:
        return sum(self.weights)

    @property
    def call_ns(self) -> int:
        return sum(self.durations_ns)


def latencies(durations: Sequence, weights: Sequence[int]) -> Sequence:
    """One sample per update: the duration of the call that served it."""
    if all(w == 1 for w in weights):
        return durations
    return [d for d, w in zip(durations, weights) for _ in range(w)]


def _report_failure(drive: Drive, item) -> int:
    print("ledger: engine call raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)
    return drive.weight(item)


def drive_timed(drive: Drive, items: Sequence) -> Pass:
    """The timed loop: two clock reads per call, outputs counted."""
    call, count = drive.call, drive.count
    durations: List[int] = []
    append = durations.append
    outputs = failed = 0
    cpu_started = time.process_time_ns()
    started = _now()
    for item in items:
        a = _now()
        try:
            result = call(item)
        except Exception:
            failed += _report_failure(drive, item)
            result = ()
        b = _now()
        append(b - a)
        outputs += count(result)
    wall = _now() - started
    cpu = time.process_time_ns() - cpu_started
    return Pass(
        durations, [drive.weight(i) for i in items], outputs, failed,
        wall_ns=wall, cpu_ns=cpu,
    )


def drive_checked(
    drive: Drive, items: Sequence, order: Tuple[str, ...], digest: int = 0
) -> Pass:
    """Like :func:`drive_timed` but digesting every update's output.

    The digest chains, update by update, an order-free hash of the
    multiset of result rows (as rid tuples over ``order``; a delta's
    sign is its update's). Materialisation assigns rids
    deterministically, so two engines fed the same update list agree
    on it exactly when they emit the same deltas for every update —
    what ``canonical_delta`` equality says, minus rebuilding each
    delta's values. It is computed between calls, outside the per-call
    clock reads.
    """
    call, per_update = drive.call, drive.per_update
    durations: List[int] = []
    outputs = failed = 0
    for item in items:
        a = _now()
        try:
            result = call(item)
        except Exception:
            failed += _report_failure(drive, item)
            result = ()
        durations.append(_now() - a)
        for deltas in per_update(result):
            outputs += len(deltas)
            digest = hash((
                digest,
                sum(hash(d.composite.identity(order)) for d in deltas),
            ))
    return Pass(
        durations, [drive.weight(i) for i in items], outputs, failed, digest
    )


# ----------------------------------------------------------------------
# set-up and the MJoin reference
# ----------------------------------------------------------------------
@dataclass
class Prepared:
    """One set-up: fresh update list, fresh engine, nothing driven yet."""

    started: float
    updates: List[Update]
    session: Session
    drive: Drive
    order: Tuple[str, ...]
    warm: int

    def items(self, lo: int, hi: int) -> Sequence:
        return self.drive.items_of(self.updates[lo:hi])


def set_up(
    spec: Spec, seed: int, scale: int, kind: str = "adaptive",
    on_engine: Callable = None,
) -> Prepared:
    """Materialise the update list and build the engine.

    ``on_engine(plan)`` lets the traced pass wrap the fresh engine's
    callbacks before anything is driven.
    """
    started = time.perf_counter()
    workload, updates = materialise(spec, seed, scale)
    batch_size = spec.batch_size if kind == "adaptive" else 1
    session = Session(kind, workload, engine_config(seed, batch_size))
    plan = session.plan
    if on_engine is not None:
        on_engine(plan)
    return Prepared(
        started=started,
        updates=updates,
        session=session,
        drive=drive_for(session, batch_size),
        order=tuple(sorted(workload.graph.relations)),
        warm=min(WARMUP_UPDATES // scale, len(updates) // 2),
    )


@dataclass
class Reference:
    """The cache-free MJoin's answer to the same update list."""

    digest: int
    outputs_warm: int
    outputs: int
    timed: Pass                 # the post-warm-up part
    virtual_us: float           # post-warm-up


def run_reference(spec: Spec, seed: int, scale: int) -> Reference:
    prepared = set_up(spec, seed, scale, kind="static")
    n, warm = len(prepared.updates), prepared.warm
    clock = prepared.session.ctx.clock
    first = drive_checked(
        prepared.drive, prepared.items(0, warm), prepared.order
    )
    virtual_warm = clock.now_us
    timed = drive_checked(
        prepared.drive, prepared.items(warm, n), prepared.order, first.digest
    )
    timed.failed += first.failed
    return Reference(
        digest=timed.digest,
        outputs_warm=first.outputs,
        outputs=first.outputs + timed.outputs,
        timed=timed,
        virtual_us=clock.now_us - virtual_warm,
    )


def percentile(samples: Sequence, fraction: float):
    """Nearest-rank percentile; ``samples`` may already be sorted."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def segments_of(items: Sequence, count: int = SEGMENTS) -> List[Sequence]:
    """``items`` cut into ``count`` consecutive runs of equal length."""
    size = max(1, -(-len(items) // count))
    return [items[i:i + size] for i in range(0, len(items), size)]


# ----------------------------------------------------------------------
# the end-to-end run
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one run of one workload hands back to ``run.py``."""

    metrics: Dict[str, float]
    attempted: int
    failed: int                 # operations; any makes the run fail
    correct: bool               # the output checks, failures aside
    notes: List[str]


@dataclass
class Repeat:
    """One repeat's readings, each already in kernel units."""

    setup: float
    segment_wall: List[float]
    segment_cpu: List[float]
    latency_p50: float
    latency_p99: float


def timed_repeat(spec: Spec, seed: int, scale: int):
    """Fresh set-up, untimed warm-up, then the timed drive in segments
    with a calibration kernel run between them.

    Returns ``(Repeat, warm-up Pass, timed Passes)``. Every duration is
    divided by the mean of the two kernel runs bracketing it, which is
    what takes this machine's speed of the moment out of the numbers.
    """
    before = calibration_kernel()
    prepared = set_up(spec, seed, scale)
    n, warm = len(prepared.updates), prepared.warm
    warmed = drive_timed(prepared.drive, prepared.items(0, warm))
    segments = segments_of(prepared.items(warm, n))
    gc.collect()
    setup_ns = (time.perf_counter() - prepared.started) * 1e9
    kernels = [calibration_kernel()]
    passes: List[Pass] = []
    for segment in segments:
        passes.append(drive_timed(prepared.drive, segment))
        kernels.append(calibration_kernel())
    segment_wall, segment_cpu, calls = [], [], array("d")
    for timed, k0, k1 in zip(passes, kernels, kernels[1:]):
        wall = (k0.wall_ns + k1.wall_ns) / 2
        segment_wall.append(timed.wall_ns / wall)
        segment_cpu.append(timed.cpu_ns / ((k0.cpu_ns + k1.cpu_ns) / 2))
        calls.extend(d / wall for d in timed.durations_ns)
    samples = sorted(latencies(
        calls, [w for timed in passes for w in timed.weights]
    ))
    repeat = Repeat(
        setup=setup_ns / ((before.wall_ns + kernels[0].wall_ns) / 2),
        segment_wall=segment_wall,
        segment_cpu=segment_cpu,
        latency_p50=percentile(samples, 0.50),
        latency_p99=percentile(samples, 0.99),
    )
    return repeat, warmed, passes


def run_end_to_end(
    spec: Spec, seed: int, seconds: float, quick: bool
) -> Outcome:
    """Reference check, then timed repeats until ``seconds`` are spent
    (at least ``MIN_REPEATS``; ``quick`` runs one on a 1/20 list)."""
    scale = QUICK_SCALE if quick else 1
    notes: List[str] = []
    reference = run_reference(spec, seed, scale)
    correct = reference.timed.failed == 0

    # Caches may never change results (Def 3.1): the adaptive engine's
    # per-update output over the whole list must digest like MJoin's.
    prepared = set_up(spec, seed, scale)
    checked = drive_checked(
        prepared.drive, prepared.items(0, len(prepared.updates)),
        prepared.order,
    )
    if checked.digest != reference.digest:
        correct = False
        notes.append("adaptive digest differs from the MJoin reference")
    del prepared, checked

    expected = reference.outputs - reference.outputs_warm
    repeats: List[Repeat] = []
    attempted = failed = 0
    spent = 0.0
    while not (
        repeats if quick
        else len(repeats) >= MIN_REPEATS and spent >= seconds
    ):
        repeat, warmed, passes = timed_repeat(spec, seed, scale)
        repeats.append(repeat)
        updates = sum(timed.updates for timed in passes)
        wall_s = sum(timed.wall_ns for timed in passes) / 1e9
        outputs = sum(timed.outputs for timed in passes)
        spent += wall_s
        attempted += updates
        failed += warmed.failed + sum(timed.failed for timed in passes)
        if outputs != expected or warmed.outputs != reference.outputs_warm:
            correct = False
            notes.append(
                f"repeat {len(repeats) - 1}: {outputs} outputs, "
                f"reference has {expected}"
            )
        notes.append(
            f"repeat {len(repeats) - 1}: {updates} updates in "
            f"{wall_s:.3f}s wall (uncalibrated)"
        )
        del passes

    # Per segment the median over repeats, then summed: a burst of
    # interference has to hit the same segment in most repeats to show.
    # Kernel units -> the kernel's nominal time.
    nominal = NOMINAL_KERNEL_NS
    wall_ns = nominal * sum(
        map(statistics.median, zip(*(r.segment_wall for r in repeats)))
    )
    cpu_ns = nominal * sum(
        map(statistics.median, zip(*(r.segment_cpu for r in repeats)))
    )
    metrics = {
        "updates_per_s": updates / (wall_ns / 1e9),
        "update_latency_p50_us": nominal / 1e3 * statistics.median(
            r.latency_p50 for r in repeats
        ),
        "update_latency_p99_us": nominal / 1e3 * statistics.median(
            r.latency_p99 for r in repeats
        ),
        "cpu_us_per_update": cpu_ns / 1e3 / updates,
        "setup_s": nominal / 1e9 * statistics.median(
            r.setup for r in repeats
        ),
    }
    return Outcome(metrics, attempted, failed, correct, notes)
