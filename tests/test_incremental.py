"""Tests for the Section 8 incremental re-optimizer extension."""

import pytest

from repro.core.acaching import ACaching, ACachingConfig
from repro.core.incremental import ImportanceTracker, IncrementalReoptimizer
from repro.core.profiler import ProfilerConfig
from repro.core.reoptimizer import ReoptimizerConfig
from repro.engine.drive import drive
from repro.ordering.agreedy import OrderingConfig
from repro.streams.workloads import three_way_chain

CHAIN_ORDERS = {"T": ("S", "R"), "R": ("S", "T"), "S": ("R", "T")}


class TestImportanceTracker:
    def test_threshold_widens_with_ineffective_changes(self):
        tracker = ImportanceTracker(base_threshold=0.2, widen_factor=2.0)
        assert tracker.threshold_for("c") == pytest.approx(0.2)
        tracker.record({"c"}, selection_changed=False)
        assert tracker.threshold_for("c") == pytest.approx(0.4)
        tracker.record({"c"}, selection_changed=False)
        assert tracker.threshold_for("c") == pytest.approx(0.8)

    def test_effective_change_resets(self):
        tracker = ImportanceTracker(base_threshold=0.2)
        tracker.record({"c"}, selection_changed=False)
        tracker.record({"c"}, selection_changed=True)
        assert tracker.threshold_for("c") == pytest.approx(0.2)
        assert tracker.widenings("c") == 0

    def test_widening_is_capped(self):
        tracker = ImportanceTracker(
            base_threshold=0.1, widen_factor=2.0, max_widenings=2
        )
        for _ in range(10):
            tracker.record({"c"}, selection_changed=False)
        assert tracker.threshold_for("c") == pytest.approx(0.4)

    def test_only_triggering_candidates_updated(self):
        tracker = ImportanceTracker(base_threshold=0.2)
        tracker.record({"a"}, selection_changed=False)
        assert tracker.widenings("a") == 1
        assert tracker.widenings("b") == 0


class TestIncrementalEngine:
    def engine(self, **reopt_kwargs):
        workload = three_way_chain(
            t_multiplicity=5.0, window_r=32, window_s=32
        )
        config = ACachingConfig(
            profiler=ProfilerConfig(
                window=4, profile_probability=0.1, bloom_window_tuples=24
            ),
            reoptimizer=ReoptimizerConfig(
                reopt_interval_updates=1000,
                profiling_phase_updates=200,
                **reopt_kwargs,
            ),
            ordering=OrderingConfig(interval_updates=10**9),
            incremental_reoptimizer=True,
        )
        return workload, ACaching(
            workload.graph, orders=CHAIN_ORDERS, config=config
        )

    def test_engine_uses_incremental_reoptimizer(self):
        workload, engine = self.engine()
        assert isinstance(engine.reoptimizer, IncrementalReoptimizer)

    def test_converges_like_the_baseline(self):
        workload, engine = self.engine()
        outputs = drive(engine, workload.updates(8000))
        assert "T:0-1p" in engine.used_caches()
        # Exactness is non-negotiable.
        live = sum(int(o.sign) for o in outputs)
        executor = engine.executor
        expected = sum(
            executor.relations["R"].match_count("A", s.values[0])
            * executor.relations["T"].match_count("B", s.values[1])
            for s in executor.relations["S"].rows()
        )
        assert live == expected

    def test_runs_both_incremental_and_full_rounds(self):
        workload, engine = self.engine()
        drive(engine, workload.updates(12_000))
        reopt = engine.reoptimizer
        assert reopt.full_rounds >= 1
        assert reopt.incremental_rounds + reopt.full_rounds >= 2

    def test_local_moves_drop_negative_and_add_positive(self):
        workload, engine = self.engine()
        reopt = engine.reoptimizer
        # Synthesize a local-move decision directly.
        cids = list(reopt.candidates)
        prefix = [c for c in cids if c.endswith("p")]
        assert prefix
        target = reopt._local_moves(
            current=set(),
            triggering={prefix[0]},
            nets={prefix[0]: 10.0},
        )
        assert prefix[0] in target
        target = reopt._local_moves(
            current={prefix[0]},
            triggering={prefix[0]},
            nets={prefix[0]: -5.0},
        )
        assert prefix[0] not in target

    def test_swap_prefers_higher_net(self):
        workload, engine = self.engine()
        reopt = engine.reoptimizer
        cids = list(reopt.candidates)
        conflicting = [
            (a, b)
            for a in cids
            for b in cids
            if a < b
            and reopt.candidates[a].conflicts_with(reopt.candidates[b])
        ]
        if not conflicting:
            pytest.skip("no conflicting candidate pair under these orders")
        a, b = conflicting[0]
        target = reopt._local_moves(
            current={a}, triggering={b}, nets={a: 5.0, b: 50.0}
        )
        assert b in target and a not in target
        target = reopt._local_moves(
            current={a}, triggering={b}, nets={a: 50.0, b: 5.0}
        )
        assert a in target and b not in target
