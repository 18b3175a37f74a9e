"""A-Caching: adaptive caching for continuous multiway stream joins.

A from-scratch reproduction of Babu, Munagala, Widom, and Motwani,
*Adaptive Caching for Continuous Queries* (ICDE 2005): the full spectrum
of stream-join plans between subresult-free MJoins and subresult-rich
XJoins, navigated adaptively by placing and removing join-subresult
caches as stream and system conditions change.

Quickstart — build engines through the :mod:`repro.api` facade::

    from repro import EngineConfig, Session, three_way_chain

    workload = three_way_chain()
    session = Session.adaptive(workload, EngineConfig(batch_size=64))
    deltas = session.run(arrivals=20_000)    # micro-batched execution
    print(session.throughput(), session.used_caches())

or drive a custom query update-by-update::

    from repro import ACaching, JoinGraph, Schema

    graph = JoinGraph.parse(
        [Schema("R", ("A",)), Schema("S", ("A", "B")), Schema("T", ("B",))],
        ["R.A = S.A", "S.B = T.B"],
    )
    engine = ACaching(graph)
    for update in my_update_stream:          # Update(relation, row, sign, seq)
        for delta in engine.process(update):
            handle(delta)

See DESIGN.md for the system inventory, docs/api.md for the facade, and
EXPERIMENTS.md for the paper-versus-measured record of every figure and
table.
"""

from repro.api import (
    EngineConfig,
    Session,
    build_adaptive_engine,
    build_static_plan,
)
from repro.caching.bloom import BloomFilter, MissProbEstimator
from repro.caching.cache import Cache
from repro.caching.global_cache import GlobalCache
from repro.caching.key import CacheKey
from repro.core.acaching import ACaching, ACachingConfig
from repro.core.candidates import (
    CandidateCache,
    enumerate_candidates,
    prefix_valid_sets,
    satisfies_prefix_invariant,
    shared_groups,
)
from repro.core.cost_model import CacheStatistics, benefit, cost, net_benefit, proc
from repro.core.memory import CacheDemand, MemoryAllocator
from repro.core.profiler import Profiler, ProfilerConfig
from repro.core.reoptimizer import CandidateState, Reoptimizer, ReoptimizerConfig
from repro.core.selection import SelectionProblem, select
from repro.core.wiring import CacheWiring
from repro.engine.clock import CostModel, VirtualClock, WallClock
from repro.engine.metrics import Metrics
from repro.engine.reporting import (
    rows_to_csv,
    rows_to_json,
    series_to_csv,
)
from repro.engine.runtime import (
    StaticPlan,
    available_candidates,
    run_with_series,
)
from repro.errors import (
    CacheConsistencyError,
    MemoryBudgetError,
    PlanError,
    PrefixInvariantError,
    ReproError,
    SchemaError,
    WorkloadError,
)
from repro.mjoin.executor import MJoinExecutor
from repro.operators.base import ExecContext
from repro.ordering.agreedy import AGreedyOrderer, OrderingConfig
from repro.planner.enumeration import (
    PlanResult,
    best_xjoin,
    plan_spectrum,
    run_acaching,
    run_mjoin,
)
from repro.relations.predicates import AttrRef, EquiPredicate, JoinGraph
from repro.relations.relation import Relation
from repro.streams.events import DeltaBatch, OutputDelta, Sign, Update, batched
from repro.streams.tuples import CompositeTuple, Row, RowFactory, Schema
from repro.streams.windows import CountWindow
from repro.streams.workloads import (
    TABLE2_POINTS,
    Workload,
    fig6_workload,
    fig7_workload,
    fig8_workload,
    fig9_workload,
    fig10_workload,
    fig12_workload,
    star_graph,
    table2_workload,
    three_way_chain,
)
from repro.xjoin.executor import XJoinExecutor
from repro.xjoin.tree import Inner, Leaf, enumerate_trees, left_deep

__version__ = "1.0.0"

__all__ = [
    "ACaching",
    "ACachingConfig",
    "AGreedyOrderer",
    "AttrRef",
    "BloomFilter",
    "Cache",
    "CacheConsistencyError",
    "CacheDemand",
    "CacheKey",
    "CacheStatistics",
    "CacheWiring",
    "CandidateCache",
    "CandidateState",
    "CompositeTuple",
    "CostModel",
    "CountWindow",
    "DeltaBatch",
    "EngineConfig",
    "EquiPredicate",
    "ExecContext",
    "GlobalCache",
    "Inner",
    "JoinGraph",
    "Leaf",
    "MJoinExecutor",
    "MemoryAllocator",
    "MemoryBudgetError",
    "Metrics",
    "MissProbEstimator",
    "OrderingConfig",
    "OutputDelta",
    "PlanError",
    "PlanResult",
    "PrefixInvariantError",
    "Profiler",
    "ProfilerConfig",
    "Relation",
    "Reoptimizer",
    "ReoptimizerConfig",
    "ReproError",
    "Row",
    "RowFactory",
    "Schema",
    "SchemaError",
    "SelectionProblem",
    "Session",
    "Sign",
    "StaticPlan",
    "TABLE2_POINTS",
    "Update",
    "VirtualClock",
    "WallClock",
    "Workload",
    "WorkloadError",
    "XJoinExecutor",
    "available_candidates",
    "batched",
    "benefit",
    "best_xjoin",
    "build_adaptive_engine",
    "build_static_plan",
    "cost",
    "enumerate_candidates",
    "enumerate_trees",
    "fig6_workload",
    "fig7_workload",
    "fig8_workload",
    "fig9_workload",
    "fig10_workload",
    "fig12_workload",
    "left_deep",
    "net_benefit",
    "plan_spectrum",
    "prefix_valid_sets",
    "proc",
    "rows_to_csv",
    "rows_to_json",
    "run_acaching",
    "run_mjoin",
    "run_with_series",
    "series_to_csv",
    "satisfies_prefix_invariant",
    "select",
    "shared_groups",
    "star_graph",
    "table2_workload",
    "three_way_chain",
]
