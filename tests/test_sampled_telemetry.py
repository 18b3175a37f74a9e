"""Telemetry cheap enough to leave on: bound instruments, sampled timing.

With ``Observability.tracing(sample_every=N)`` the engine's counters stay
exact on every update while the timing instrumentation — span pairs,
latency histograms, per-update trace events — is taken on one update in
N. Nothing of it may reach the virtual clock or the adaptive decisions:
the golden-clock workloads must read exactly what they read with
telemetry off.
"""

import json
import math

import pytest

from repro import obs as obs_mod
from repro.api import Session
from repro.obs import Observability
from repro.service.server import TELEMETRY_SAMPLE_EVERY
from repro.streams.events import batched
from tests.test_golden_clock import GOLDEN, WORKLOADS

# What one timed update may cost at most: its update span, one span per
# operator of the longest pipeline, a probe and a store span per cache
# lookup it crosses. Unsampled, 1,000 updates of the served chain query
# took ~2,650 span pairs and as many observations.
SPANS_PER_TIMED_UPDATE = 8


def _run(name, observability):
    build, arrivals, batch_size, config = WORKLOADS[name]
    workload = build(arrivals)
    session = Session.adaptive(workload, config(batch_size))
    with obs_mod.session(observability):
        session.plan   # built here, so the engine adopts the session
    updates = workload.updates(arrivals)
    if batch_size == 1:
        for update in updates:
            session.process(update)
    else:
        for batch in batched(updates, batch_size):
            session.process_batch(batch)
    return session


def _counter_total(registry, name):
    return sum(c.value for c in registry.counters() if c.name == name)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_sampled_telemetry_changes_nothing_the_clock_sees(name):
    telemetry = Observability.tracing(profile=True, sample_every=64)
    session = _run(name, telemetry)
    ctx = session.ctx
    assert ctx.obs is telemetry
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert {
        "clock_now_us": repr(ctx.clock.now_us),
        "outputs_emitted": ctx.metrics.outputs_emitted,
        "cache_hits": ctx.metrics.cache_hits,
        "reoptimizations": ctx.metrics.reoptimizations,
        "used_caches": sorted(session.plan.used_caches()),
    } == golden

    # Counters are exact: every probe, hit, create and maintenance call.
    metrics, registry = ctx.metrics, telemetry.registry
    for counter, expected in (
        ("repro_cache_probed_total", metrics.cache_probes),
        ("repro_cache_hit_total", metrics.cache_hits),
        ("repro_cache_create_total", metrics.cache_creates),
        ("repro_cache_maintenance_calls_by_cache_total",
         metrics.cache_maintenance_calls),
    ):
        assert _counter_total(registry, counter) == expected, counter

    # Timing is sampled: one update in 64 has an update span, a latency
    # observation and an ``update_processed`` event.
    timed = math.ceil(metrics.updates_processed / 64)
    spans = telemetry.profiler.snapshot().spans
    assert sum(
        data["count"] for span, data in spans.items()
        if span.startswith("update:")
    ) == timed
    assert sum(
        h.count for h in registry.histograms()
        if h.name == "repro_pipeline_update_us"
    ) == timed
    events = telemetry.tracer.events("update_processed")
    assert len(events) + telemetry.tracer.dropped.get(
        "update_processed", 0
    ) == timed


def test_unsampled_profile_still_times_every_update():
    """``sample_every`` defaults to 1: `repro profile` and
    ``EngineConfig(profile=True)`` keep full flamegraph coverage."""
    telemetry = Observability.tracing(profile=True)
    session = _run("key_skew_churn", telemetry)
    updates = session.ctx.metrics.updates_processed
    spans = telemetry.profiler.snapshot().spans
    assert sum(
        data["count"] for span, data in spans.items()
        if span.startswith("update:")
    ) == updates


def test_served_engine_stays_within_the_sampled_budget():
    """The count behind CI's overhead gate: span pairs and histogram
    observations per 1,000 updates on an engine built the way ``repro
    serve`` builds it. A count, so it cannot flake."""
    import asyncio
    from concurrent.futures import ThreadPoolExecutor

    from repro.obs.registry import MetricsRegistry
    from repro.service.config import ServiceConfig
    from repro.service.server import QueryHost, _ServiceWindows

    loop = asyncio.new_event_loop()
    executor = ThreadPoolExecutor(max_workers=1)
    try:
        host = QueryHost(
            "q", {"workload": {"kind": "chain", "params": {}}},
            ServiceConfig(), loop, executor, executor, MetricsRegistry(),
        )
        host.plan = loop.run_until_complete(
            host.lane.add(host, host.workload)
        )
    finally:
        executor.shutdown()
        loop.close()
    telemetry = host.plan.ctx.obs
    assert telemetry.sample_every == TELEMETRY_SAMPLE_EVERY > 1

    windows = _ServiceWindows(host.windows.sizes)
    updates = []
    value = 0
    while len(updates) < 1_000:
        for relation, values in (
            ("R", (value,)), ("S", (value, value)), ("T", (value,))
        ):
            updates += windows.feed(relation, values, len(updates))
        value = (value + 1) % 48
    updates = updates[:1_000]
    for update in updates:
        host.plan.process(update)

    timed = math.ceil(len(updates) / TELEMETRY_SAMPLE_EVERY)
    budget = timed * SPANS_PER_TIMED_UPDATE
    crossings = telemetry.profiler.crossings
    observations = sum(h.count for h in telemetry.registry.histograms())
    assert timed <= crossings <= budget, (crossings, budget)
    assert timed <= observations <= budget, (observations, budget)
    print(
        f"per 1,000 updates at 1 in {TELEMETRY_SAMPLE_EVERY}: "
        f"{crossings} span pairs, {observations} histogram observations "
        f"(budget {budget} each)"
    )
