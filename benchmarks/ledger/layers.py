"""The per-layer run of an in-process workload (``--trace 1``).

Three passes over the same update list: the cache-free MJoin reference
(digested), the adaptive engine untraced (the wall, virtual-clock and
counter numbers), and the adaptive engine under the span recorder
(digested again — wrappers must not change behaviour). The difference
between the last two is the tracing overhead.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import replace
from typing import Dict, List

from repro.api import Session
from repro.core.selection import select

from . import micro
from .trace import SpanRecorder, installed, wrap_engine
from .workloads import (
    QUICK_SCALE,
    Outcome,
    Spec,
    drive_checked,
    drive_timed,
    engine_config,
    latencies,
    materialise,
    percentile,
    run_reference,
    set_up,
)

OBS_PREFIX_UPDATES = 20_000


def run_layers(
    spec: Spec, seed: int, quick: bool, out_dir: str
) -> Outcome:
    """The per-layer numbers of one workload.

    Only the metrics this workload can measure are returned; the caller
    fills the rest of the declared per-layer names with 0.
    """
    scale = QUICK_SCALE if quick else 1
    notes: List[str] = []
    kernel_before = micro.calibration_kernel_ms()
    reference = run_reference(spec, seed, scale)
    expected = reference.outputs - reference.outputs_warm

    # -- adaptive, untraced ---------------------------------------------
    prepared = set_up(spec, seed, scale)
    n, warm = len(prepared.updates), prepared.warm
    ctx = prepared.session.ctx
    warmed = drive_timed(prepared.drive, prepared.items(0, warm))
    timed_items = prepared.items(warm, n)
    gc.collect()
    virtual_warm = ctx.clock.now_us
    untraced = drive_timed(prepared.drive, timed_items)
    virtual_us = ctx.clock.now_us - virtual_warm
    plan = prepared.session.plan
    metrics: Dict[str, float] = {
        "engine.virtual_us_per_update": virtual_us / untraced.updates,
        "engine.outputs_per_update": untraced.outputs / untraced.updates,
        "engine.model_wall_ratio": virtual_us * 1e3 / untraced.call_ns,
        "engine.acaching_vs_mjoin_wall_ratio": (
            untraced.call_ns / reference.timed.call_ns
        ),
        "engine.acaching_vs_mjoin_virtual_ratio": (
            virtual_us / reference.virtual_us
        ),
        "engine.update_latency_p999_us": percentile(
            latencies(untraced.durations_ns, untraced.weights), 0.999
        ) / 1e3,
        "caching.hit_rate": ctx.metrics.hit_rate,
        "caching.memory_bytes": plan.memory_in_use(),
        "relations.memory_bytes": sum(
            r.memory_bytes for r in plan.executor.relations.values()
        ),
        "core.reoptimizer.runs": ctx.metrics.reoptimizations,
    }
    correct = (
        untraced.outputs == expected
        and warmed.outputs == reference.outputs_warm
    )
    if not correct:
        notes.append(
            f"untraced pass emitted {untraced.outputs} outputs, "
            f"reference has {expected}"
        )
    failed = reference.timed.failed + warmed.failed + untraced.failed
    virtual_total = ctx.clock.now_us
    del prepared, timed_items, plan, ctx

    # -- adaptive, traced -------------------------------------------------
    recorder = SpanRecorder()
    recorder.calibrate()
    root_ns = 0
    with installed(recorder):
        prepared = set_up(
            spec, seed, scale,
            on_engine=lambda engine: wrap_engine(recorder, engine),
        )
        first = drive_checked(
            prepared.drive, prepared.items(0, warm), prepared.order
        )
        gc.collect()
        recorder.reset()
        traced = drive_checked(
            prepared.drive, prepared.items(warm, n), prepared.order,
            first.digest,
        )
        root_ns = recorder.root_ns
        traced_virtual_total = prepared.session.ctx.clock.now_us
    failed += first.failed + traced.failed
    if traced.digest != reference.digest:
        correct = False
        notes.append("traced adaptive digest differs from the MJoin reference")
    if first.outputs + traced.outputs != reference.outputs:
        correct = False
        notes.append("traced pass output count differs from the reference")
    if traced_virtual_total != virtual_total:
        correct = False
        notes.append(
            "virtual clock differs traced vs untraced "
            f"({traced_virtual_total} vs {virtual_total}): the wrappers "
            "changed behaviour"
        )

    updates = traced.updates
    metrics.update(recorder.layer_metrics(updates))
    reopt = recorder.index["core.reoptimizer"]
    metrics.update({
        "engine.clock.charges_per_update": recorder.charges / updates,
        # Rows the join kept of the rows it was handed — by the index
        # (before residual predicates) or, in a batch, by the probe memo.
        "relations.index.rows_kept_ratio": (
            recorder.join_outputs
            / (recorder.matching_rows + recorder.memo_rows)
            if recorder.matching_rows + recorder.memo_rows else 0.0
        ),
        "operators.batch_memo.hit_ratio": (
            recorder.memo_hits / (recorder.memo_hits + recorder.memo_misses)
            if recorder.memo_hits + recorder.memo_misses else 0.0
        ),
        "core.reoptimizer.max_pause_ms": recorder.max_ns[reopt] / 1e6,
        "trace.overhead_fraction": traced.call_ns / untraced.call_ns - 1.0,
        # What the harness timed around each call that no root span
        # covers: the Session facade plus the root wrapper itself.
        "trace.unattributed_fraction": max(
            0.0,
            (traced.call_ns - root_ns - recorder.roots * recorder.outside_ns)
            / traced.call_ns,
        ),
    })
    os.makedirs(out_dir, exist_ok=True)
    recorder.write_jsonl(
        os.path.join(out_dir, f"trace-{spec.name}.jsonl"), spec.name
    )
    shares = sorted(
        recorder.shares().items(), key=lambda item: item[1], reverse=True
    )
    notes.append(
        "self-time shares: "
        + ", ".join(f"{name} {share:.1%}" for name, share in shares)
    )
    notes.append(
        f"wrapper cost per span {recorder.inside_ns}+{recorder.outside_ns} ns, "
        f"per charge {recorder.count_ns} ns; {len(recorder.raw)} raw spans"
    )

    if spec.name == "star6_cached":
        metrics.update(_star6_extras(spec, recorder, seed, scale))
    kernel_after = micro.calibration_kernel_ms()
    metrics["calibration.kernel_ms"] = (kernel_before + kernel_after) / 2
    notes.append(
        f"calibration kernel {kernel_before:.2f} ms before, "
        f"{kernel_after:.2f} ms after"
    )
    attempted = reference.timed.updates + untraced.updates + traced.updates
    return Outcome(metrics, attempted, failed, correct, notes)


def _star6_extras(
    spec: Spec, recorder: SpanRecorder, seed: int, scale: int
) -> Dict[str, float]:
    """The measurements taken once, on the workload every layer sees."""
    out = {"parallel.pickle_update_us": micro.pickle_update_us()}
    if recorder.select_call is not None:
        args, kwargs = recorder.select_call
        out["core.selection.select_ms"] = micro.per_call_ns(
            lambda: select(*args, **kwargs), 5
        ) / 1e6

    # The span profiler's price when switched on: the same star6 prefix
    # through Session.run with and without EngineConfig(profile=True).
    walls = {}
    for profile in (False, True):
        workload, updates = materialise(spec, seed, scale)
        config = replace(engine_config(seed), profile=profile)
        session = Session.adaptive(workload, config)
        prefix = updates[:OBS_PREFIX_UPDATES // scale]
        gc.collect()
        started = time.perf_counter()
        session.run(prefix)
        walls[profile] = time.perf_counter() - started
    out["obs.span_profiler_enabled_overhead_fraction"] = (
        walls[True] / walls[False] - 1.0
    )
    return out
