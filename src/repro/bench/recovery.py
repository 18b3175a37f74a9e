"""The durability-overhead benchmark (``repro bench --recovery``).

Measures the full adaptive A-Caching engine on the same 6-way star
workload as the parallel and batching benches, once without journaling
(the baseline) and once per requested WAL fsync batch size with the
:class:`~repro.recovery.manager.Recorder` riding along at the default
checkpoint interval. The deltas are identical either way — recording
never touches engine behavior — so the benchmark isolates the *modeled*
cost of durability: ``wal_append`` per update, ``wal_fsync`` per fsync
batch, and ``checkpoint_base + checkpoint_row * rows`` per checkpoint,
all in deterministic virtual time.

Writes ``BENCH_recovery.json``, the baseline CI asserts on: at the
default interval the overhead must stay at or under 10% of baseline
throughput (``MAX_OVERHEAD_FRACTION``).
"""

from __future__ import annotations

import json
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import List, Sequence

from repro.api import Session
from repro.engine.drive import drive
from repro.errors import ConfigError
from repro.parallel.bench import bench_engine_config
from repro.recovery.manager import Recorder, RecoveryConfig
from repro.streams.workloads import fig9_workload

RECOVERY_SCHEMA_VERSION = 1
RECOVERY_DEFAULT_OUT = "BENCH_recovery.json"
RECOVERY_DEFAULT_ARRIVALS = 8_000
DEFAULT_FSYNC_EVERY = (64,)
RECOVERY_BENCH_RELATIONS = 6
RECOVERY_BENCH_WINDOW = 48
DEFAULT_CHECKPOINT_INTERVAL = 1000

#: The acceptance criterion the committed baseline must meet.
MAX_OVERHEAD_FRACTION = 0.10


@dataclass
class RecoveryPoint:
    """One fsync batch size's measurement."""

    fsync_every: int
    modeled_throughput: float     # updates/sec, virtual time
    us_per_update: float
    overhead_fraction: float      # (recorded - baseline) / baseline cost
    wal_records: int
    wal_fsyncs: int
    checkpoints: int
    outputs_emitted: int          # must match the baseline's


@dataclass
class RecoveryBenchReport:
    """Baseline vs journaled throughput."""

    workload: str
    arrivals: int
    checkpoint_interval: int
    cache_mode: str
    baseline_throughput: float
    baseline_us_per_update: float
    baseline_outputs: int
    points: List[RecoveryPoint] = field(default_factory=list)


def _drive(session: Session, arrivals: int, recorder=None) -> int:
    """Run per-update, optionally journaled; returns outputs emitted."""
    updates = session.workload.updates(arrivals)
    return len(drive(session.plan, updates, recorder=recorder))


def run_recovery_bench(
    fsync_every_values: Sequence[int] = DEFAULT_FSYNC_EVERY,
    arrivals: int = RECOVERY_DEFAULT_ARRIVALS,
    checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
    cache_mode: str = "snapshot",
) -> RecoveryBenchReport:
    """Measure durability overhead at each WAL fsync batch size."""
    if arrivals <= 0:
        raise ConfigError(f"arrivals must be positive, got {arrivals}")
    if not fsync_every_values:
        raise ConfigError("need at least one fsync_every value to benchmark")
    for value in fsync_every_values:
        if value < 1:
            raise ConfigError(f"fsync_every must be >= 1, got {value}")

    def fresh_session() -> Session:
        return Session.adaptive(
            fig9_workload(
                RECOVERY_BENCH_RELATIONS, window=RECOVERY_BENCH_WINDOW
            ),
            bench_engine_config(),
        )

    baseline = fresh_session()
    baseline_outputs = _drive(baseline, arrivals)
    ctx = baseline.ctx
    baseline_us = ctx.clock.now_us / max(1, ctx.metrics.updates_processed)

    report = RecoveryBenchReport(
        workload=baseline.workload.name,
        arrivals=arrivals,
        checkpoint_interval=checkpoint_interval,
        cache_mode=cache_mode,
        baseline_throughput=baseline.throughput(),
        baseline_us_per_update=baseline_us,
        baseline_outputs=baseline_outputs,
    )
    for fsync_every in fsync_every_values:
        directory = tempfile.mkdtemp(prefix="repro-bench-recovery-")
        try:
            session = fresh_session()
            recorder = Recorder(
                session.plan,
                RecoveryConfig(
                    wal_dir=directory,
                    checkpoint_interval=checkpoint_interval,
                    fsync_every=fsync_every,
                    cache_mode=cache_mode,
                ),
            )
            outputs = _drive(session, arrivals, recorder)
            ctx = session.ctx
            us = ctx.clock.now_us / max(1, ctx.metrics.updates_processed)
            report.points.append(
                RecoveryPoint(
                    fsync_every=fsync_every,
                    modeled_throughput=session.throughput(),
                    us_per_update=us,
                    overhead_fraction=(us - baseline_us)
                    / max(1e-12, baseline_us),
                    wal_records=recorder.wal.appended,
                    wal_fsyncs=recorder.wal.fsyncs,
                    checkpoints=recorder.checkpoints,
                    outputs_emitted=outputs,
                )
            )
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    return report


def recovery_bench_to_json(report: RecoveryBenchReport) -> str:
    """Serialize a recovery-bench report (schema in benchmarks/README.md)."""
    payload = {
        "kind": "recovery_bench",
        "schema_version": RECOVERY_SCHEMA_VERSION,
        "workload": report.workload,
        "arrivals": report.arrivals,
        "checkpoint_interval": report.checkpoint_interval,
        "cache_mode": report.cache_mode,
        "max_overhead_fraction": MAX_OVERHEAD_FRACTION,
        "baseline": {
            "modeled_throughput": round(report.baseline_throughput, 1),
            "us_per_update": round(report.baseline_us_per_update, 3),
            "outputs_emitted": report.baseline_outputs,
        },
        "points": [
            {
                "fsync_every": p.fsync_every,
                "modeled_throughput": round(p.modeled_throughput, 1),
                "us_per_update": round(p.us_per_update, 3),
                "overhead_fraction": round(p.overhead_fraction, 4),
                "wal_records": p.wal_records,
                "wal_fsyncs": p.wal_fsyncs,
                "checkpoints": p.checkpoints,
                "outputs_emitted": p.outputs_emitted,
            }
            for p in report.points
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def format_recovery_bench_report(report: RecoveryBenchReport) -> str:
    """Human-readable durability-overhead table for the CLI."""
    lines = [
        f"recovery overhead bench — {report.workload}, "
        f"{report.arrivals} arrivals, checkpoint every "
        f"{report.checkpoint_interval} updates ({report.cache_mode})",
        "=" * 72,
        f"baseline: {report.baseline_throughput:>10,.0f} updates/sec "
        f"({report.baseline_us_per_update:.2f} us/update)",
        f"{'fsync':>6} | {'modeled rate':>12} | {'us/update':>9} | "
        f"{'overhead':>8} | {'fsyncs':>7} | {'ckpts':>6} | {'outputs':>8}",
    ]
    for p in report.points:
        lines.append(
            f"{p.fsync_every:>6} | {p.modeled_throughput:>12,.0f} | "
            f"{p.us_per_update:>9.2f} | {p.overhead_fraction:>7.1%} | "
            f"{p.wal_fsyncs:>7} | {p.checkpoints:>6} | "
            f"{p.outputs_emitted:>8}"
        )
    verdict = all(
        p.overhead_fraction <= MAX_OVERHEAD_FRACTION for p in report.points
    )
    lines.append(
        f"criterion: overhead <= {MAX_OVERHEAD_FRACTION:.0%} — "
        f"{'PASS' if verdict else 'FAIL'}"
    )
    return "\n".join(lines)
