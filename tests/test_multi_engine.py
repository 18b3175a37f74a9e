"""The multi-query subsystem's units: arbiter, directory, hub, facade.

Equivalence (byte-identity vs independent engines) lives in
``test_multi_equivalence.py``; this file covers the pieces — the global
memory arbiter's ledger arithmetic, inter-query sharing bookkeeping,
the stream hub's schema discipline, config rejections, query-attributed
observability, planner overlap analysis, and the shared-engine service
hosting (register / ingest / DELETE over a real socket).
"""

from functools import partial
from types import SimpleNamespace

import pytest

from repro.api import EngineConfig, Session
from repro.core.acaching import ACachingConfig
from repro.core.memory import CacheDemand, PAGE_BYTES
from repro.core.reoptimizer import ReoptimizerConfig
from repro.errors import ConfigError, PlanError
from repro.multi import (
    GlobalMemoryArbiter,
    MultiQueryEngine,
    TenantQuota,
)
from repro.planner.enumeration import multi_query_overlap
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceThread,
)
from repro.service.config import ServiceConfig as _SvcConfig
from repro.streams.workloads import fig9_workload, three_way_chain

STAR3 = partial(fig9_workload, 3, window=24)
CHAIN = partial(
    three_way_chain, t_multiplicity=4.0, window_r=48, window_s=48
)

TUNED = EngineConfig(
    tuning=ACachingConfig(
        reoptimizer=ReoptimizerConfig(
            reopt_interval_updates=120, profiling_phase_updates=60
        )
    )
)


def demand(candidate_id, net_benefit, bytes_):
    return CacheDemand(
        candidate=SimpleNamespace(candidate_id=candidate_id),
        net_benefit=net_benefit,
        expected_bytes=bytes_,
    )


def solo_token(query_id):
    return lambda candidate: (query_id, candidate.candidate_id)


def shared_token(candidate):
    return ("shared", candidate.candidate_id)


# ---------------------------------------------------------------------------
# GlobalMemoryArbiter
# ---------------------------------------------------------------------------

class TestArbiter:
    def test_budget_admits_by_benefit_per_byte_deterministically(self):
        arbiter = GlobalMemoryArbiter(budget_bytes=2 * PAGE_BYTES)
        arbiter.register_tenant("q1")
        # Same priority: candidate id breaks the tie, stably.
        demands = [
            demand("c-b", 10.0, PAGE_BYTES),
            demand("c-a", 10.0, PAGE_BYTES),
            demand("c-c", 10.0, PAGE_BYTES),
        ]
        result = arbiter.admit("q1", demands, solo_token("q1"))
        admitted = [c.candidate_id for c in result.admitted]
        assert admitted == ["c-a", "c-b"]
        assert [c.candidate_id for c in result.rejected] == ["c-c"]
        assert arbiter.pages_in_use() == 2

    def test_shared_store_charged_once_globally(self):
        arbiter = GlobalMemoryArbiter(budget_bytes=PAGE_BYTES)
        arbiter.register_tenant("q1")
        arbiter.register_tenant("q2")
        first = arbiter.admit(
            "q1", [demand("c1", 5.0, PAGE_BYTES)], shared_token
        )
        assert first.pages_used == 1
        # The whole budget is spent, but joining an existing store is
        # free — q2's identical demand admits at zero incremental pages.
        second = arbiter.admit(
            "q2", [demand("c1", 5.0, PAGE_BYTES)], shared_token
        )
        assert [c.candidate_id for c in second.admitted] == ["c1"]
        assert second.pages_used == 0
        assert arbiter.pages_in_use() == 1

    def test_release_recharges_shared_grant_to_min_survivor(self):
        arbiter = GlobalMemoryArbiter(budget_bytes=4 * PAGE_BYTES)
        for qid in ("q1", "q2", "q3"):
            arbiter.register_tenant(qid)
            arbiter.admit(qid, [demand("c1", 5.0, PAGE_BYTES)], shared_token)
        assert arbiter.pages_held("q1") == 1          # creator pays
        arbiter.release("q1")
        assert arbiter.pages_held("q1") == 0
        assert arbiter.pages_held("q2") == 1          # min(q2, q3)
        assert arbiter.pages_in_use() == 1
        arbiter.release("q2")
        arbiter.release("q3")
        assert arbiter.pages_in_use() == 0

    def test_minimum_reservations_block_other_tenants(self):
        arbiter = GlobalMemoryArbiter(budget_bytes=2 * PAGE_BYTES)
        arbiter.register_tenant("greedy")
        arbiter.register_tenant(
            "reserved", TenantQuota(min_bytes=PAGE_BYTES)
        )
        result = arbiter.admit(
            "greedy",
            [demand("c1", 9.0, PAGE_BYTES), demand("c2", 8.0, PAGE_BYTES)],
            solo_token("greedy"),
        )
        # One page must stay free for "reserved"'s unmet minimum.
        assert [c.candidate_id for c in result.admitted] == ["c1"]
        reserved = arbiter.admit(
            "reserved", [demand("c3", 1.0, PAGE_BYTES)],
            solo_token("reserved"),
        )
        assert [c.candidate_id for c in reserved.admitted] == ["c3"]

    def test_maximum_caps_a_tenants_holdings(self):
        arbiter = GlobalMemoryArbiter(budget_bytes=8 * PAGE_BYTES)
        arbiter.register_tenant(
            "capped", TenantQuota(max_bytes=PAGE_BYTES)
        )
        result = arbiter.admit(
            "capped",
            [demand("c1", 9.0, PAGE_BYTES), demand("c2", 8.0, PAGE_BYTES)],
            solo_token("capped"),
        )
        assert [c.candidate_id for c in result.admitted] == ["c1"]
        assert [c.candidate_id for c in result.rejected] == ["c2"]

    def test_minima_exceeding_budget_rejected_at_registration(self):
        arbiter = GlobalMemoryArbiter(budget_bytes=2 * PAGE_BYTES)
        arbiter.register_tenant("q1", TenantQuota(min_bytes=2 * PAGE_BYTES))
        with pytest.raises(ConfigError):
            arbiter.register_tenant(
                "q2", TenantQuota(min_bytes=PAGE_BYTES)
            )

    def test_duplicate_tenant_and_unknown_tenant_rejected(self):
        arbiter = GlobalMemoryArbiter()
        arbiter.register_tenant("q1")
        with pytest.raises(ConfigError):
            arbiter.register_tenant("q1")
        with pytest.raises(ConfigError):
            arbiter.admit("ghost", [], solo_token("ghost"))

    def test_invalid_quota_rejected(self):
        with pytest.raises(ConfigError):
            TenantQuota(min_bytes=-1)
        with pytest.raises(ConfigError):
            TenantQuota(min_bytes=100, max_bytes=50)


# ---------------------------------------------------------------------------
# MultiQueryEngine lifecycle and sharing bookkeeping
# ---------------------------------------------------------------------------

class TestEngineLifecycle:
    def test_rejects_incompatible_tenant_configs(self):
        engine = MultiQueryEngine()
        for bad in (
            EngineConfig(batch_size=4),
            EngineConfig(shards=2),
            EngineConfig(wal_dir="/tmp/nope"),
        ):
            with pytest.raises(ConfigError):
                engine.register("q1", STAR3(), bad)
        assert engine.queries() == []

    def test_rejects_duplicate_and_unknown_query_ids(self):
        engine = MultiQueryEngine()
        engine.register("q1", STAR3(), TUNED)
        with pytest.raises(ConfigError):
            engine.register("q1", STAR3(), TUNED)
        with pytest.raises(PlanError):
            engine.unregister("ghost")

    def test_schema_conflict_on_shared_stream_rejected(self):
        from repro.relations.predicates import JoinGraph
        from repro.streams.tuples import Schema

        engine = MultiQueryEngine()
        engine.register("star", STAR3(), TUNED)
        # A second graph reusing stream "R1" with different attributes
        # must be rejected — relation name is stream identity.
        conflicting = JoinGraph.parse(
            [Schema("R1", ("A", "B")), Schema("R2", ("B",))],
            ["R1.B = R2.B"],
        )
        with pytest.raises(PlanError):
            engine.hub.bind("chain", conflicting)
        # The failed bind left no partial interest behind.
        assert engine.hub.interested("R1") == {"star"}

    def test_unknown_stream_update_rejected(self):
        from repro.relations.relation import Row
        from repro.streams.events import Sign, Update

        engine = MultiQueryEngine()
        engine.register("q1", STAR3(), TUNED)
        with pytest.raises(PlanError):
            engine.process(Update("Z", Row(0, (1,)), Sign.INSERT, 0))

    def test_shared_stores_form_and_survive_member_removal(self):
        workload = STAR3()
        engine = MultiQueryEngine()
        engine.register("q1", STAR3(), TUNED)
        engine.register("q2", STAR3(), TUNED)
        # Cache selection needs ~2400 updates of statistics to engage.
        engine.run(workload.updates(2_400))
        snapshot = engine.snapshot()
        assert snapshot["shared_stores"] >= 1
        shared_bytes = snapshot["cache_bytes"]
        # Removing one user keeps every store the survivor references.
        engine.unregister("q1")
        assert engine.memory_in_use() == shared_bytes
        assert engine.directory.shared_store_count() == 0
        # Removing the last user releases everything.
        engine.unregister("q2")
        assert engine.memory_in_use() == 0
        assert len(engine.directory) == 0
        assert engine.arbiter.pages_in_use() == 0

    def test_share_caches_off_keeps_stores_private(self):
        workload = STAR3()
        engine = MultiQueryEngine(share_caches=False)
        engine.register("q1", STAR3(), TUNED)
        engine.register("q2", STAR3(), TUNED)
        engine.run(workload.updates(2_400))
        snapshot = engine.snapshot()
        assert snapshot["shared_stores"] == 0
        assert snapshot["cache_bytes"] > 0, (
            "caches must have attached for this check to mean anything"
        )

    def test_windows_shared_once_across_queries(self):
        workload = STAR3()
        engine = MultiQueryEngine()
        engine.register("q1", STAR3(), TUNED)
        engine.register("q2", STAR3(), TUNED)
        engine.run(workload.updates(200))
        # One Relation per stream, bound into both executors.
        for name, relation in engine.hub.relations.items():
            for qid in ("q1", "q2"):
                bound = engine.engine_for(qid).executor.relations[name]
                assert bound is relation


# ---------------------------------------------------------------------------
# query-attributed observability
# ---------------------------------------------------------------------------

class TestObservability:
    def test_decisions_carry_query_id(self):
        workload = STAR3()
        engine = MultiQueryEngine()
        engine.register("q1", STAR3(), TUNED)
        engine.register("q2", STAR3(), TUNED)
        engine.run(workload.updates(2_400))
        records = engine.decisions()
        assert records, "tuned run must produce adaptivity decisions"
        assert {r["query_id"] for r in records} == {"q1", "q2"}
        keys = [(r.get("t_us", 0.0), r.get("query_id", ""), r.get("seq", 0))
                for r in records]
        assert keys == sorted(keys)

    def test_prometheus_merge_labels_and_single_help_type(self):
        workload = STAR3()
        engine = MultiQueryEngine()
        engine.register("q1", STAR3(), TUNED)
        engine.register('q"2\\odd', STAR3(), TUNED)
        engine.run(workload.updates(300))
        text = engine.metrics_prometheus()
        assert 'query_id="q1"' in text
        # Label values escaped per the exposition format.
        assert 'query_id="q\\"2\\\\odd"' in text
        help_lines = [
            line for line in text.splitlines()
            if line.startswith("# HELP repro_updates_processed")
        ]
        assert len(help_lines) == 1


# ---------------------------------------------------------------------------
# planner overlap analysis
# ---------------------------------------------------------------------------

class TestOverlap:
    def test_identical_queries_share_every_prefix_invariant_store(self):
        report = multi_query_overlap({"q1": STAR3(), "q2": STAR3()})
        assert report["shared_store_count"] >= 1
        assert report["stores_saved"] >= 1
        for users in report["shareable_groups"].values():
            assert set(users) == {"q1", "q2"}

    def test_disjoint_queries_share_nothing(self):
        report = multi_query_overlap({"star": STAR3(), "chain": CHAIN()})
        assert report["shareable_groups"] == {}
        assert report["stores_saved"] == 0


# ---------------------------------------------------------------------------
# the sharing gain: shared vs isolated hosting at one global quota
# ---------------------------------------------------------------------------

def _quota_config(budget_bytes):
    return EngineConfig(
        tuning=ACachingConfig(
            reoptimizer=ReoptimizerConfig(
                reopt_interval_updates=1_200,
                profiling_phase_updates=200,
                memory_budget_bytes=budget_bytes,
            )
        )
    )


class TestSharingGain:
    def test_shared_holds_fewer_cache_bytes_at_no_lower_hit_rate(self):
        """Three identical 3-way stars under a 1 MiB quota, hosted on
        one engine (the whole quota arbitrated, each shared store kept
        once) and on three engines (a third each). Same per-query
        deltas; shared holds fewer cache bytes at a hit rate no lower
        (4,392 B at 0.924 against 11,016 B at 0.810 when this test was
        written), with a store shared."""
        budget, ids = 1 << 20, ("q1", "q2", "q3")
        updates = list(fig9_workload(3, window=24).updates(6_000))

        engine = MultiQueryEngine(budget_bytes=budget)
        for query_id in ids:
            engine.register(
                query_id, fig9_workload(3, window=24), _quota_config(budget)
            )
        shared = engine.run(updates)
        snapshot = engine.snapshot()

        isolated, cache_bytes, probes, hits = {}, 0, 0, 0
        for query_id in ids:
            session = Session.adaptive(
                fig9_workload(3, window=24),
                _quota_config(budget // len(ids)),
            )
            isolated[query_id] = session.run(updates=iter(updates))
            cache_bytes += session.plan.memory_in_use()
            probes += session.ctx.metrics.cache_probes
            hits += session.ctx.metrics.cache_hits

        assert all(isolated[q] for q in ids) and probes, "vacuous: no work"
        assert {q: shared[q] for q in ids} == isolated
        assert snapshot["shared_stores"] >= 1
        assert snapshot["cache_bytes"] < cache_bytes
        assert engine.aggregate_hit_rate() >= hits / probes


# ---------------------------------------------------------------------------
# MultiQueryEngine as the public multi-query entry point
# ---------------------------------------------------------------------------

class TestMultiSession:
    def test_register_run_snapshot_unregister(self):
        engine = MultiQueryEngine()
        workload = STAR3()
        engine.register("q1", workload, TUNED)
        engine.register("q2", workload, TUNED)
        outputs = engine.run(workload.updates(150))
        assert set(outputs) == {"q1", "q2"}
        snapshot = engine.snapshot()
        assert snapshot["queries"] == ["q1", "q2"]
        engine.unregister("q2")
        assert engine.queries() == ["q1"]

    def test_tenancy_fields_validated(self):
        with pytest.raises(ConfigError):
            EngineConfig(tenant_min_bytes=-1)
        with pytest.raises(ConfigError):
            EngineConfig(tenant_min_bytes=100, tenant_max_bytes=50)


# ---------------------------------------------------------------------------
# shared-engine service hosting
# ---------------------------------------------------------------------------

class TestSharedService:
    def test_shared_engine_config_validation(self):
        with pytest.raises(ConfigError):
            _SvcConfig(shared_engine=True, wal_root="/tmp/x")
        with pytest.raises(ConfigError):
            _SvcConfig(
                shared_engine=True,
                engine=EngineConfig(batch_size=4),
            )
        with pytest.raises(ConfigError):
            _SvcConfig(
                shared_engine=True, engine=EngineConfig(shards=2)
            )

    def test_register_ingest_unregister_on_shared_engine(self):
        import time

        thread = ServiceThread(ServiceConfig(shared_engine=True))
        thread.start()
        try:
            client = ServiceClient(thread.base_url)
            star = {"kind": "star", "params": {"n": 3, "window": 24}}
            client.register("q1", star)
            client.register("q2", star)
            for i in range(40):
                status, ack = client.ingest(
                    "q1",
                    [("R1", [i % 5]), ("R2", [i % 5]), ("R3", [i % 5])],
                    tenant="t1",
                )
                assert status == 202
            # Every accepted update must be processed before the two
            # members' logs are compared, or the reads race the worker.
            deadline = time.monotonic() + 20.0
            while (
                client.status("q2")["processed_seq"] < ack["seq_last"]
            ):
                assert time.monotonic() < deadline, "engine never caught up"
                time.sleep(0.02)
            # Both members see the shared stream's results.
            r1 = client.results("q1", since_seq=-1, limit=10_000)
            r2 = client.results("q2", since_seq=-1, limit=10_000)
            assert r1["entries"] and r1["entries"] == r2["entries"]
            # The exposition merges the engine's query_id-labeled series.
            assert 'query_id="q1"' in client.metrics_text()
            payload = client.unregister("q2")
            assert payload == {"query": "q2", "unregistered": True}
            status = client.status("q1")
            assert status["shared_engine"] is True
            # Ingest keeps working after a member is removed.
            code, _ = client.ingest("q1", [("R1", [7])], tenant="t1")
            assert code == 202
        finally:
            thread.stop()

    def test_unregister_rejected_on_isolated_service(self):
        from repro.errors import ServiceError

        thread = ServiceThread(ServiceConfig())
        thread.start()
        try:
            client = ServiceClient(thread.base_url)
            chain = {
                "kind": "chain",
                "params": {"window_r": 32, "window_s": 32, "window_t": 32},
            }
            client.register("q1", chain)
            with pytest.raises(ServiceError):
                client.unregister("q1")
        finally:
            thread.stop()
