"""The adaptive engine configuration the benchmarks and tests share.

The wall-clock ledger (``benchmarks/ledger/workloads.py``), the golden
virtual-clock test and the batching, recovery and hot-path tests all
build their engine from :func:`bench_engine_config`, so every
measurement and every pinned figure runs the same tunables. The two
functions stay in this module, where the retired ``repro bench``
harness defined them, until the ledger moves them beside itself.
"""

from __future__ import annotations

from repro.api import EngineConfig
from repro.core.acaching import ACachingConfig
from repro.core.profiler import ProfilerConfig
from repro.core.reoptimizer import ReoptimizerConfig
from repro.ordering.agreedy import OrderingConfig


def bench_tuning() -> ACachingConfig:
    """The adaptive tunables every bench run uses."""
    return ACachingConfig(
        profiler=ProfilerConfig(
            window=6,
            profile_probability=0.05,
            bloom_window_tuples=256,
            # All shards sample the same global updates, so the
            # coordinator's merged statistics match a serial profiler's.
            deterministic_gate=True,
        ),
        reoptimizer=ReoptimizerConfig(
            reopt_interval_updates=2000,
            profiling_phase_updates=400,
            global_quota=6,
        ),
        ordering=OrderingConfig(interval_updates=1500),
        adaptive_ordering=True,
    )


def bench_engine_config(batch_size: int = 1) -> EngineConfig:
    """The facade config every bench run builds its engine from."""
    return EngineConfig(tuning=bench_tuning(), batch_size=batch_size)
