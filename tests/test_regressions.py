"""Regression tests for defects found and fixed during development.

Each test pins the *specific* failure mode so it cannot silently return;
the scenarios are small and surgical rather than end-to-end.
"""

import pytest

from repro.api import EngineConfig, Session, build_static_plan
from repro.caching.bloom import MissProbEstimator
from repro.caching.cache import Cache
from repro.caching.key import CacheKey
from repro.core.candidates import enumerate_candidates
from repro.core.wiring import CacheWiring
from repro.mjoin.executor import MJoinExecutor
from repro.parallel.shard import _memory_in_use
from repro.relations.predicates import JoinGraph
from repro.streams.events import Sign
from repro.streams.tuples import RowFactory, Schema
from repro.streams.workloads import (
    fig10_workload,
    fig12_workload,
    star_graph,
    three_way_chain,
)

CHAIN_ORDERS = {"T": ("S", "R"), "R": ("S", "T"), "S": ("R", "T")}


def chain_graph():
    return JoinGraph.parse(
        [Schema("R", ("A",)), Schema("S", ("A", "B")), Schema("T", ("B",))],
        ["R.A = S.A", "S.B = T.B"],
    )


class TestStoreAccountingRegression:
    """Same-key overwrite once leaked memory accounting: ``put`` returned
    the displaced entry only on cross-key collisions."""

    def test_repeated_creates_keep_bytes_exact(self):
        graph = chain_graph()
        rows = RowFactory()
        key = CacheKey(graph, ("T",), ("S", "R"))
        cache = Cache("c", "T", ("S", "R"), key, buckets=8)
        probe = (rows.make((7,)),)
        probe_key, _ = cache.probe(probe)
        seg = (rows.make((1, 7)), rows.make((1,)))  # laid out as (S, R)
        for _ in range(50):
            cache.create(probe_key, [seg])
        single = cache.memory_bytes
        cache.drop_all()
        cache.create(probe_key, [seg])
        assert cache.memory_bytes == single


class TestTransitiveClosureRegression:
    """The star query's non-adjacent joins were once invisible: only 5 of
    15 join trees enumerated and some MJoin orders became cross products."""

    def test_non_adjacent_pair_connected(self):
        graph = star_graph(4)
        assert graph.are_connected(["R1"], ["R3"])
        assert graph.predicates_between(["R1"], "R4")

    def test_key_components_deduped_for_sharing(self):
        graph = star_graph(4)
        # Prefix {R3, R4} reaches both segment attrs twice via closure;
        # duplicate components would break Definition 4.1 sharing.
        key_wide = CacheKey(graph, ("R3", "R4"), ("R1", "R2"))
        key_narrow = CacheKey(graph, ("R3",), ("R1", "R2"))
        assert key_wide.signature() == key_narrow.signature()
        assert key_wide.width == 2


class TestGlobalCacheDeleteRegressions:
    """Owner-anchored globally-consistent caches: a delete that removes
    the last owner witness must consume the probed entry, while deletes
    with surviving witnesses must not (the early implementation consumed
    always, collapsing Figure 12's static plan)."""

    def wire(self, duplicate_owner_rows):
        workload = three_way_chain(
            t_multiplicity=2.0, window_r=16, window_s=16
        )
        executor = MJoinExecutor(workload.graph, orders=CHAIN_ORDERS)
        candidates = {
            c.candidate_id: c
            for c in enumerate_candidates(
                workload.graph, executor.orders(), global_quota=8
            )
        }
        wiring = CacheWiring(executor)
        wired = wiring.attach(candidates["R:0-1g"])
        rows = RowFactory()
        r1 = rows.make((5,))
        executor.process(
            __import__("repro.streams.events", fromlist=["Update"]).Update(
                "R", r1, Sign.INSERT, 0
            )
        )
        extra = None
        if duplicate_owner_rows:
            extra = rows.make((5,))
            executor.process(
                __import__(
                    "repro.streams.events", fromlist=["Update"]
                ).Update("R", extra, Sign.INSERT, 1)
            )
        return executor, wired, r1

    def test_last_witness_delete_consumes_entry(self):
        from repro.streams.events import Update

        executor, wired, r1 = self.wire(duplicate_owner_rows=False)
        assert wired.cache.entry_count == 1
        executor.process(Update("R", r1, Sign.DELETE, 10))
        assert wired.cache.entry_count == 0

    def test_survivor_witness_delete_keeps_entry(self):
        from repro.streams.events import Update

        executor, wired, r1 = self.wire(duplicate_owner_rows=True)
        assert wired.cache.entry_count == 1
        executor.process(Update("R", r1, Sign.DELETE, 10))
        assert wired.cache.entry_count == 1  # another A=5 row survives


class TestBurstWorkloadRegression:
    """The Figure 12 workload once used aligned sequential counters; a
    rate burst silently de-aligned them and ∆R's selectivity collapsed to
    zero, inverting the figure."""

    def test_burst_preserves_join_selectivity(self):
        workload = fig12_workload(burst_after_arrivals=2000, window=48)
        executor = MJoinExecutor(
            workload.graph, orders=CHAIN_ORDERS
        )
        r_outputs_pre = r_probes_pre = 0
        r_outputs_post = r_probes_post = 0
        arrivals = 0
        for update in workload.updates(4000):
            outputs = executor.process(update)
            if update.sign is Sign.INSERT:
                arrivals += 1
            if update.relation == "R" and update.sign is Sign.INSERT:
                if arrivals < 2000:
                    r_probes_pre += 1
                    r_outputs_pre += len(outputs)
                else:
                    r_probes_post += 1
                    r_outputs_post += len(outputs)
        assert r_probes_post > 2 * r_probes_pre  # the burst happened
        pre_rate = r_outputs_pre / max(1, r_probes_pre)
        post_rate = r_outputs_post / max(1, r_probes_post)
        # Selectivity survives the burst (within generous noise).
        assert post_rate > 0.3 * pre_rate


class TestSignAwareBloomRegression:
    """miss_prob was once wildly overestimated for windowed streams: the
    deletion of every window tuple re-probes its key, which a short
    distinct-count window cannot see."""

    def test_insert_delete_pairs_estimated_low(self):
        estimator = MissProbEstimator(window_tuples=64, alpha=8.0)
        observation = None
        for i in range(32):
            estimator.observe((i,), True)            # fresh inserts
            result = estimator.observe((i - 100,), False)  # old deletes
            observation = result or observation
        assert observation is not None
        assert observation < 0.65  # ≈ 32 distinct / 64 tuples

    def test_sign_blind_mode_counts_everything(self):
        estimator = MissProbEstimator(
            window_tuples=64, alpha=8.0, sign_aware=False
        )
        observation = None
        for i in range(32):
            estimator.observe((i,), True)
            result = estimator.observe((i + 1000,), False)
            observation = result or observation
        assert observation is not None
        assert observation > 0.8


class TestStaticPlanSegmentOrderRegression:
    """Figure 12's static R⋈(T⋈S) plan was once built with the segment
    ordered (T, S): ∆R misses degenerated to a cross product with T. The
    (S, T) order probes S's index on the key first."""

    def test_global_cache_misses_are_not_cross_products(self):
        workload = fig12_workload(burst_after_arrivals=10**9, window=48)
        plan = build_static_plan(
            workload,
            EngineConfig(orders=CHAIN_ORDERS, candidate_ids=("R:0-1g",)),
        )
        first_op = plan.executor.pipelines["R"].operators[0]
        assert not first_op.is_cross_product()
        assert first_op.target == "S"


class TestStaticPlanMemoryRegression:
    """Static plans once reported 0 cache bytes in every series point and
    shard result: ``StaticPlan`` had no ``memory_in_use``, so the callers'
    ``getattr`` fallback read 0 while the wiring held real entries."""

    def test_series_and_shard_report_the_wired_bytes(self):
        session = Session.static(
            fig10_workload(250),
            EngineConfig(orders=CHAIN_ORDERS, candidate_ids=("T:0-1p",)),
        )
        series = session.series(arrivals=3_000, sample_every_updates=1_000)
        plan = session.plan
        held = plan.wiring.memory_bytes()
        assert held > 0
        assert plan.memory_in_use() == held == _memory_in_use(plan)
        assert series[-1].memory_bytes == held
        assert all(point.memory_bytes > 0 for point in series)
