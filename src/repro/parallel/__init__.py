"""Partitioned parallel execution of the A-Caching engine.

Hash-partitions every update stream on an equijoin attribute class
(broadcasting relations the class does not cover), runs one complete
pipeline — joins, windows, caches, profiler, re-optimizer, resilience —
per shard, and merges the emitted results back into the global arrival
order. See docs/parallelism.md for the scheme, its equivalence
guarantees, and the modeled speedup.

>>> from functools import partial
>>> from repro.parallel import (
...     ExperimentSpec, ParallelConfig, run_sharded
... )
>>> from repro.streams.workloads import fig9_workload
>>> spec = ExperimentSpec(partial(fig9_workload, 4), arrivals=4000)
>>> run = run_sharded(spec, ParallelConfig(shards=4, backend="serial"))
>>> run.stats.modeled_throughput  # doctest: +SKIP
"""

from repro.parallel.engine import (
    BACKENDS,
    ParallelConfig,
    ParallelEngine,
    ParallelRun,
    run_sharded,
)
from repro.parallel.partitioner import (
    PartitionScheme,
    attribute_classes,
    choose_scheme,
    scheme_for_workload,
    stable_hash,
)
from repro.parallel.series import run_series_sharded
from repro.parallel.shard import ShardResult, ShardStats, run_shard
from repro.parallel.spec import EngineSpec, ExperimentSpec
from repro.parallel.stats import MergedStats, StatsMerger

__all__ = [
    "BACKENDS",
    "EngineSpec",
    "ExperimentSpec",
    "MergedStats",
    "ParallelConfig",
    "ParallelEngine",
    "ParallelRun",
    "PartitionScheme",
    "ShardResult",
    "ShardStats",
    "StatsMerger",
    "attribute_classes",
    "choose_scheme",
    "run_series_sharded",
    "run_shard",
    "run_sharded",
    "scheme_for_workload",
    "stable_hash",
]
