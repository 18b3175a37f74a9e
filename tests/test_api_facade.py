"""The repro.api facade: EngineConfig, Session, and the builders.

Facade-built engines must be *identical* to directly constructed ones —
same plans, same caches, same outputs, same virtual clock, point for
point — and building through the facade must not warn.
"""

import warnings
from functools import partial

import pytest

from repro.api import (
    EngineConfig,
    Session,
    build_adaptive_engine,
    build_static_plan,
)
from repro.core.acaching import ACaching
from repro.engine.drive import drive as drive_updates
from repro.engine.runtime import _build_static_plan
from repro.errors import PlanError
from repro.faults import FaultPlan, FaultSpec, ResilienceConfig
from repro.streams.events import DeltaBatch, Update, batched
from repro.streams.workloads import (
    fig9_workload,
    fig10_workload,
    three_way_chain,
)

CHAIN_ORDERS = {"T": ("S", "R"), "R": ("S", "T"), "S": ("R", "T")}


def chain():
    return three_way_chain(t_multiplicity=5.0, window_r=64, window_s=64)


def drive(plan, workload, arrivals):
    """Outputs per update plus the final clock, for exact comparison."""
    outputs = []
    for update in workload.updates(arrivals):
        outputs.append(
            [
                (d.sign, tuple(sorted(d.composite.relations())))
                for d in plan.process(update)
            ]
        )
    return outputs, plan.ctx.clock.now_us


class TestEngineConfig:
    def test_validation(self):
        with pytest.raises(PlanError):
            EngineConfig(batch_size=0)
        with pytest.raises(PlanError):
            EngineConfig(shards=0)
        with pytest.raises(PlanError):
            EngineConfig(parallel_backend="threads")

    def test_normalizes_orders_and_candidates(self):
        config = EngineConfig(
            orders={"T": ["S", "R"]}, candidate_ids=["T:0-1p"]
        )
        assert config.orders == {"T": ("S", "R")}
        assert config.candidate_ids == ("T:0-1p",)

    def test_global_quota_reaches_reoptimizer(self):
        config = EngineConfig(global_quota=3)
        assert config.acaching_config().reoptimizer.global_quota == 3

    def test_tuning_wins_over_quota(self):
        from repro.core.acaching import ACachingConfig
        from repro.core.reoptimizer import ReoptimizerConfig

        tuning = ACachingConfig(
            reoptimizer=ReoptimizerConfig(global_quota=9)
        )
        config = EngineConfig(global_quota=2, tuning=tuning)
        assert config.acaching_config().reoptimizer.global_quota == 9

    def test_engine_spec_kinds(self):
        config = EngineConfig(orders=CHAIN_ORDERS, candidate_ids=("T:0-1p",))
        assert config.engine_spec("adaptive").kind == "acaching"
        static = config.engine_spec("static")
        assert static.kind == "static"
        assert static.config.candidate_ids == ("T:0-1p",)
        assert config.engine_spec("mjoin").kind == "mjoin"


class TestSessionEqualsLegacy:
    def test_static_session_matches_legacy_point_for_point(self):
        workload_a, workload_b = chain(), chain()
        legacy = _build_static_plan(
            workload_a, orders=CHAIN_ORDERS, candidate_ids=("T:0-1p",)
        )
        session = Session.static(
            workload_b,
            EngineConfig(orders=CHAIN_ORDERS, candidate_ids=("T:0-1p",)),
        )
        assert session.plan.used == legacy.used
        out_legacy = drive(legacy, workload_a, 800)
        out_session = drive(session, workload_b, 800)
        assert out_session == out_legacy

    def test_adaptive_session_matches_legacy_point_for_point(self):
        workload_a, workload_b = chain(), chain()
        legacy = ACaching(
            workload_a.graph,
            indexed_attributes=workload_a.indexed_attributes,
            config=EngineConfig(global_quota=4).acaching_config(),
        )
        session = Session.adaptive(workload_b, EngineConfig(global_quota=4))
        out_legacy = drive(legacy, workload_a, 1200)
        out_session = drive(session, workload_b, 1200)
        assert out_session == out_legacy
        assert session.used_caches() == tuple(legacy.used_caches())

    def test_session_series_runs(self):
        session = Session.adaptive(chain(), EngineConfig(batch_size=8))
        series = session.series(arrivals=1500, sample_every_updates=400)
        assert series
        assert all(p.shard_count == 1 for p in series)
        assert series[-1].updates == session.ctx.metrics.updates_processed

    def test_sharded_session_requires_factory(self):
        session = Session.adaptive(chain(), EngineConfig(shards=2))
        with pytest.raises(PlanError):
            session.run(arrivals=200)

    def test_run_needs_updates_or_arrivals(self):
        with pytest.raises(PlanError):
            Session.adaptive(chain()).run()

    def test_unknown_kind_rejected(self):
        with pytest.raises(PlanError):
            Session("turbo", chain())


class TestExecuteBuildsTheSameEngine:
    """``execute()`` builds its shards through the serial builders, so a
    sharded or spec-built engine honours every knob ``run()`` does."""

    FAULTS = FaultSpec(corrupt_prob=0.05, orphan_delete_prob=0.02)
    FACTORY = partial(fig9_workload, 3, window=24)

    def quarantined_in_process(self, config):
        workload = self.FACTORY()
        plan = build_static_plan(workload, config)
        drive_updates(
            plan,
            FaultPlan(self.FAULTS, seed=3).updates(workload.updates(600)),
        )
        return plan.resilience.quarantined

    def test_static_execute_honours_resilience(self):
        config = EngineConfig(
            resilience=ResilienceConfig(shedding=None, auditor=None)
        )
        expected = self.quarantined_in_process(config)
        assert expected > 0, "vacuous: the fault plan injected nothing"
        for kind in ("static", "adaptive"):
            run = Session(kind, self.FACTORY, config).execute(
                600,
                fault_spec=self.FAULTS,
                fault_seed=3,
                output_mode="canonical",
            )
            assert run.stats.quarantined == expected, kind

    def test_static_execute_honours_global_quota(self):
        factory = partial(fig10_workload, 250)
        config = EngineConfig(
            orders=CHAIN_ORDERS, candidate_ids=("R:0-1g",), global_quota=0
        )
        with pytest.raises(PlanError):
            build_static_plan(factory(), config)
        with pytest.raises(PlanError):
            Session.static(factory, config).execute(600)


class TestDeprecationShims:
    def test_facade_builders_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            build_static_plan(chain(), EngineConfig(orders=CHAIN_ORDERS))
            build_adaptive_engine(chain())
            Session.adaptive(chain()).plan


class TestDeltaBatch:
    def updates(self, count):
        workload = fig9_workload(3, window=16)
        return list(workload.updates(count))

    def test_batch_preserves_order_and_length(self):
        updates = self.updates(7)
        batch = DeltaBatch(updates)
        assert len(batch) == len(updates)
        assert list(batch) == updates
        assert batch[0] is updates[0]

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            DeltaBatch([])

    def test_relations_first_seen_order(self):
        updates = self.updates(12)
        batch = DeltaBatch(updates)
        seen = list(dict.fromkeys(u.relation for u in updates))
        assert list(batch.relations) == seen

    def test_batched_chunks_consecutively(self):
        updates = self.updates(10)
        chunks = list(batched(iter(updates), 4))
        assert [len(c) for c in chunks] == [4, 4, 2]
        assert [u for c in chunks for u in c] == updates

    def test_batched_rejects_bad_size(self):
        with pytest.raises(ValueError):
            list(batched(iter(self.updates(2)), 0))
