"""Property: multi-query hosting is byte-identical to independent engines.

The tenancy contract (ISSUE 8's hard guarantee): N queries registered on
one :class:`~repro.multi.engine.MultiQueryEngine` — sharing windows,
sharing subresult caches, arbitrated by one global memory budget — emit
exactly the per-query delta sequences (rids included) that N independent
engines emit over the same update stream. Holds with sharing on or off,
against serial and sharded independent baselines, under a global memory
budget tight enough to force evictions, and across runtime add/remove of
queries mid-stream (the added query matches a fresh engine warmed from
the shared windows; removing the tap-hosting query re-homes maintenance
without perturbing survivors).
"""

from functools import partial

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import EngineConfig, Session, build_adaptive_engine
from repro.core.acaching import ACaching, ACachingConfig
from repro.core.reoptimizer import ReoptimizerConfig
from repro.engine.drive import drive
from repro.multi.engine import MultiQueryEngine
from repro.parallel.engine import run_sharded
from repro.relations.relation import Relation
from repro.streams.events import Sign
from repro.streams.workloads import fig9_workload, three_way_chain

WORKLOADS = {
    "chain": partial(
        three_way_chain, t_multiplicity=4.0, window_r=48, window_s=48
    ),
    "star3": partial(fig9_workload, 3, window=24),
    "star4": partial(fig9_workload, 4, window=24),
}


def tuned_config(budget_bytes=None):
    """Adaptive tunables that actually attach caches in short runs.

    The defaults pace re-optimization on virtual seconds, which a few
    hundred deterministic updates never reach.
    """
    return EngineConfig(
        tuning=ACachingConfig(
            reoptimizer=ReoptimizerConfig(
                reopt_interval_updates=120,
                profiling_phase_updates=60,
                memory_budget_bytes=budget_bytes,
            )
        )
    )


def exact_delta(delta):
    """A rid-preserving identity for one emitted OutputDelta."""
    composite = delta.composite
    return (
        delta.sign,
        tuple(
            (name, composite.row(name).rid, composite.row(name).values)
            for name in sorted(composite.relations())
        ),
    )


def exact(deltas):
    return [exact_delta(d) for d in deltas]


def independent_run(workload_key, updates, config):
    engine = build_adaptive_engine(WORKLOADS[workload_key](), config)
    return exact(drive(engine, updates))


def multi_run(workload_key, updates, n_queries, config, share):
    engine = MultiQueryEngine(
        budget_bytes=config.acaching_config().reoptimizer.memory_budget_bytes,
        share_caches=share,
    )
    ids = [f"q{i + 1}" for i in range(n_queries)]
    for query_id in ids:
        engine.register(query_id, WORKLOADS[workload_key](), config)
    deltas = engine.run(updates)
    return {query_id: exact(deltas[query_id]) for query_id in ids}


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    workload_key=st.sampled_from(sorted(WORKLOADS)),
    n_queries=st.integers(min_value=2, max_value=3),
    arrivals=st.integers(min_value=150, max_value=400),
    share=st.booleans(),
)
def test_multi_engine_matches_independent_serial(
    workload_key, n_queries, arrivals, share
):
    updates = list(WORKLOADS[workload_key]().updates(arrivals))
    baseline = independent_run(workload_key, updates, tuned_config())
    hosted = multi_run(workload_key, updates, n_queries, tuned_config(),
                       share)
    for query_id, deltas in hosted.items():
        assert deltas == baseline, query_id


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    workload_key=st.sampled_from(["chain", "star3"]),
    shards=st.integers(min_value=2, max_value=3),
    arrivals=st.integers(min_value=200, max_value=400),
    share=st.booleans(),
)
def test_multi_engine_matches_sharded_independent(
    workload_key, shards, arrivals, share
):
    """The independent baseline run partitioned, still byte-identical."""
    session = Session.adaptive(
        WORKLOADS[workload_key],
        EngineConfig(shards=shards, parallel_backend="serial"),
    )
    run = run_sharded(
        session.experiment(arrivals, output_mode="deltas"),
        session.config.parallel(),
    )
    baseline = [exact_delta(d) for _, _, d in run.merged_deltas()]
    updates = list(WORKLOADS[workload_key]().updates(arrivals))
    # The sharded baseline runs default tunables; so must the hosted run
    # (cache choices don't change outputs, but keep the comparison flat).
    hosted = multi_run(workload_key, updates, 2, EngineConfig(), share)
    for deltas in hosted.values():
        assert deltas == baseline


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    workload_key=st.sampled_from(sorted(WORKLOADS)),
    arrivals=st.integers(min_value=200, max_value=350),
    budget_bytes=st.integers(min_value=256, max_value=4096),
)
def test_global_budget_evictions_never_change_outputs(
    workload_key, arrivals, budget_bytes
):
    """A quota tight enough to evict stores still yields identity."""
    updates = list(WORKLOADS[workload_key]().updates(arrivals))
    baseline = independent_run(workload_key, updates, tuned_config())
    hosted = multi_run(
        workload_key, updates, 2, tuned_config(budget_bytes), share=True
    )
    for deltas in hosted.values():
        assert deltas == baseline


def test_sharing_engages_and_stays_byte_identical():
    """At depth where caches attach, stores are shared AND identical.

    The hypothesis properties above run short streams (profiling and
    window-sharing paths); cache selection needs ~2400 updates of
    statistics before stores attach, so this deterministic run is the
    one that proves byte-identity *while inter-query sharing is live*.
    """
    arrivals = 2_600
    updates = list(WORKLOADS["star3"]().updates(arrivals))
    baseline = independent_run("star3", updates, tuned_config())

    engine = MultiQueryEngine(share_caches=True)
    for query_id in ("q1", "q2"):
        engine.register(query_id, WORKLOADS["star3"](), tuned_config())
    hosted = engine.run(updates)
    assert engine.snapshot()["shared_stores"] >= 1, (
        "run too shallow: no inter-query store formed, the property "
        "would be vacuous"
    )
    for query_id in ("q1", "q2"):
        assert exact(hosted[query_id]) == baseline


def test_budget_evictions_at_depth_never_change_outputs():
    """A one-page global quota forces evictions once stores attach."""
    arrivals = 2_600
    updates = list(WORKLOADS["star3"]().updates(arrivals))
    baseline = independent_run("star3", updates, tuned_config())
    engine = MultiQueryEngine(
        budget_bytes=4096, share_caches=True,
        memory_check_every_updates=100,
    )
    for query_id in ("q1", "q2"):
        engine.register(query_id, WORKLOADS["star3"](), tuned_config(4096))
    hosted = engine.run(updates)
    for query_id in ("q1", "q2"):
        assert exact(hosted[query_id]) == baseline


def warmed_relations(workload, prefix):
    """Fresh relations holding exactly the windows after ``prefix``."""
    relations = {
        name: Relation(
            schema,
            (workload.indexed_attributes or {}).get(name, ()),
        )
        for name, schema in workload.graph.schemas.items()
    }
    for update in prefix:
        if update.sign is Sign.INSERT:
            relations[update.relation].insert(update.row)
        else:
            relations[update.relation].delete(update.row)
    return relations


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    workload_key=st.sampled_from(["chain", "star3"]),
    share=st.booleans(),
    boundaries=st.tuples(
        st.integers(min_value=100, max_value=250),
        st.integers(min_value=300, max_value=500),
    ),
)
def test_runtime_add_and_remove_preserve_byte_identity(
    workload_key, share, boundaries
):
    """Splice q2 in mid-stream, remove the tap-hosting q1 later.

    q1 must match an independent engine over its lifetime's prefix; q2
    must match a fresh engine bound to relations warmed by replaying the
    stream up to its registration; q2's post-removal tail must be
    unperturbed by losing the query that hosted the shared taps.
    """
    add_at, remove_at = boundaries
    arrivals = 600
    updates = list(WORKLOADS[workload_key]().updates(arrivals))
    config = tuned_config()

    engine = MultiQueryEngine(share_caches=share)
    engine.register("q1", WORKLOADS[workload_key](), config)
    q1_deltas, q2_deltas = [], []
    for i, update in enumerate(updates):
        if i == add_at:
            engine.register("q2", WORKLOADS[workload_key](), config)
        if i == remove_at:
            engine.unregister("q1")
        outputs = engine.process(update)
        q1_deltas.extend(outputs.get("q1", []))
        q2_deltas.extend(outputs.get("q2", []))

    ref_q1 = build_adaptive_engine(WORKLOADS[workload_key](), config)
    assert exact(q1_deltas) == exact(drive(ref_q1, updates[:remove_at]))

    ref_workload = WORKLOADS[workload_key]()
    ref_q2 = ACaching(
        ref_workload.graph,
        indexed_attributes=ref_workload.indexed_attributes,
        config=config.acaching_config(),
        relations=warmed_relations(ref_workload, updates[:add_at]),
    )
    expected_q2 = []
    for update in updates[add_at:]:
        expected_q2.extend(ref_q2.process(update))
    assert exact(q2_deltas) == exact(expected_q2)


def test_removing_the_tap_host_at_depth_leaves_survivor_identical():
    """Remove q1 (the tap-hosting creator) after shared stores attach.

    The surviving q2 keeps the store; its maintenance taps re-home; its
    delta stream must equal an engine warmed from the shared windows at
    q2's registration and never disturbed.
    """
    arrivals = 3_200
    add_at, remove_at = 200, 2_700
    updates = list(WORKLOADS["star3"]().updates(arrivals))
    config = tuned_config()

    engine = MultiQueryEngine(share_caches=True)
    engine.register("q1", WORKLOADS["star3"](), config)
    q2_deltas = []
    for i, update in enumerate(updates):
        if i == add_at:
            engine.register("q2", WORKLOADS["star3"](), config)
        if i == remove_at:
            assert engine.snapshot()["shared_stores"] >= 1, (
                "no shared store before the host left — vacuous run"
            )
            engine.unregister("q1")
        q2_deltas.extend(engine.process(update).get("q2", []))

    ref_workload = WORKLOADS["star3"]()
    ref_q2 = ACaching(
        ref_workload.graph,
        indexed_attributes=ref_workload.indexed_attributes,
        config=config.acaching_config(),
        relations=warmed_relations(ref_workload, updates[:add_at]),
    )
    expected = []
    for update in updates[add_at:]:
        expected.extend(ref_q2.process(update))
    assert exact(q2_deltas) == exact(expected)
