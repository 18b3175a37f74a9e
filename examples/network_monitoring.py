"""Network monitoring: correlating flows, alerts, and DNS activity.

A security-operations query joining three streams on shared keys:

    FLOWS(host, domain)  ⋈host  ALERTS(host)   — alerts on flow sources
    FLOWS(host, domain)  ⋈domain DNS(domain)   — fresh lookups of the
                                                  contacted domain

Each match ("an alerted host talking to a recently resolved domain") is
a correlation event a SOC would page on. DNS chatter is heavy relative to
alerts, and an incident makes the alert stream burst — the same shape as
the paper's Figure 12 — so the best cache placement changes mid-run and
A-Caching follows it.

Run:  python examples/network_monitoring.py
"""

import random

from repro import (
    ACachingConfig,
    EngineConfig,
    JoinGraph,
    ProfilerConfig,
    ReoptimizerConfig,
    Schema,
    Sign,
    Workload,
    build_adaptive_engine,
)
from repro.ordering.agreedy import OrderingConfig
from repro.streams.generators import StreamSpec, UniformValues


def build_workload(burst_after: int) -> Workload:
    graph = JoinGraph.parse(
        [
            Schema("ALERTS", ("host",)),
            Schema("FLOWS", ("host", "domain")),
            Schema("DNS", ("domain",)),
        ],
        ["ALERTS.host = FLOWS.host", "FLOWS.domain = DNS.domain"],
    )
    hosts, domains = 64, 64
    specs = {
        "ALERTS": StreamSpec(
            "ALERTS", ("host",), {"host": UniformValues(hosts, seed=1)}
        ),
        "FLOWS": StreamSpec(
            "FLOWS",
            ("host", "domain"),
            {
                "host": UniformValues(hosts, seed=2),
                "domain": UniformValues(domains, seed=3),
            },
        ),
        "DNS": StreamSpec(
            "DNS", ("domain",), {"domain": UniformValues(domains, seed=4)}
        ),
    }

    def rates(emitted):
        # The incident: alert volume jumps 20x.
        return {"ALERTS": 20.0} if emitted >= burst_after else {"ALERTS": 1.0}

    return Workload(
        name="network-monitoring",
        graph=graph,
        specs=specs,
        windows={"ALERTS": 96, "FLOWS": 96, "DNS": 480},
        rates={"ALERTS": 1.0, "FLOWS": 1.0, "DNS": 5.0},
        rate_function=rates,
    )


def main() -> None:
    total, burst_after = 40_000, 20_000
    workload = build_workload(burst_after)
    engine = build_adaptive_engine(
        workload,
        EngineConfig(
            tuning=ACachingConfig(
                profiler=ProfilerConfig(window=5, bloom_window_tuples=256),
                reoptimizer=ReoptimizerConfig(
                    reopt_interval_updates=3000, profiling_phase_updates=500,
                    global_quota=6,
                ),
                ordering=OrderingConfig(interval_updates=1500),
            )
        ),
    )

    correlations = 0
    samples = []
    last_updates, last_time = 0, 0.0
    for update in workload.updates(total):
        for delta in engine.process(update):
            if delta.sign is Sign.INSERT:
                correlations += 1
        processed = engine.ctx.metrics.updates_processed
        if processed - last_updates >= 8000:
            now = engine.ctx.clock.now_seconds
            samples.append(
                (
                    processed,
                    (processed - last_updates) / max(1e-9, now - last_time),
                    tuple(engine.used_caches()),
                )
            )
            last_updates, last_time = processed, now

    print("SOC correlation query: ALERTS ⋈ FLOWS ⋈ DNS")
    print(f"  correlation events      : {correlations:,}")
    print(f"  overall throughput      : {engine.throughput():,.0f} updates/sec")
    print(f"  plan re-optimizations   : {engine.ctx.metrics.reoptimizations}")
    print("\n  throughput over time (the alert burst hits mid-run):")
    for processed, rate, caches in samples:
        marker = "  <-- incident" if processed > burst_after * 1.5 else ""
        print(
            f"    after {processed:>7,} updates: {rate:>9,.0f}/sec, "
            f"caches={list(caches)}{marker}"
        )


if __name__ == "__main__":
    main()
