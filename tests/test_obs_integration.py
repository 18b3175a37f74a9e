"""End-to-end observability tests: engine runs with tracing enabled.

Covers the PR's acceptance criteria: a traced adaptive run logs
re-optimization decisions whose recorded benefit/cost estimates are
exactly reproducible from the recorded profiler statistics, series
points expose per-window hit rate and decision events, and the CLI's
``trace`` / ``--obs-jsonl`` paths work.
"""

import json

import pytest

from repro import cli, obs
from repro.bench.harness import decision_markers
from repro.core import cost_model
from repro.core.acaching import ACaching, ACachingConfig
from repro.core.profiler import ProfilerConfig
from repro.core.reoptimizer import ReoptimizerConfig
from repro.engine.drive import drive
from repro.engine.runtime import run_with_series
from repro.obs.decisions import ATTACH
from repro.ordering.agreedy import OrderingConfig
from repro.streams.workloads import three_way_chain

CHAIN_ORDERS = {"T": ("S", "R"), "R": ("S", "T"), "S": ("R", "T")}


def adaptive_engine():
    """A small adaptive setup known to converge on the T:0-1p cache."""
    workload = three_way_chain(
        t_multiplicity=5.0, window_r=32, window_s=32
    )
    config = ACachingConfig(
        profiler=ProfilerConfig(
            window=4, profile_probability=0.1, bloom_window_tuples=24
        ),
        reoptimizer=ReoptimizerConfig(
            reopt_interval_updates=1200, profiling_phase_updates=200
        ),
        ordering=OrderingConfig(interval_updates=10**9),
    )
    engine = ACaching(workload.graph, orders=CHAIN_ORDERS, config=config)
    return workload, engine


class TestTracedAdaptiveRun:
    @pytest.fixture(scope="class")
    def traced_run(self):
        with obs.session() as active:
            workload, engine = adaptive_engine()
            drive(engine, workload.updates(6000))
        return active, engine

    def test_engine_adopts_the_session(self, traced_run):
        active, engine = traced_run
        assert engine.ctx.obs is active

    def test_decisions_logged_during_reoptimization(self, traced_run):
        active, engine = traced_run
        assert engine.ctx.metrics.reoptimizations >= 1
        attaches = [
            r for r in active.decisions.entries() if r.action == ATTACH
        ]
        assert attaches
        assert any(r.candidate_id == "T:0-1p" for r in attaches)
        for record in attaches:
            assert record.reopt_seq >= 1
            assert record.reason

    def test_recorded_estimates_match_cost_model(self, traced_run):
        """Acceptance criterion: re-running the cost model on a decision's
        recorded statistics reproduces its benefit/cost exactly."""
        active, engine = traced_run
        cm = engine.ctx.cost_model
        checked = 0
        for record in active.decisions.entries():
            stats = record.statistics()
            if stats is None or record.benefit is None:
                continue
            assert cost_model.benefit(stats, cm) == pytest.approx(
                record.benefit
            )
            assert cost_model.cost(stats, cm) == pytest.approx(record.cost)
            checked += 1
        assert checked >= 1

    def test_trace_has_adaptivity_events(self, traced_run):
        active, engine = traced_run
        kinds = set(active.tracer.kinds())
        assert {"update_processed", "profile_sample", "reoptimize"} <= kinds
        assert "cache_attach" in kinds
        applied = [
            e for e in active.tracer.events("reoptimize")
            if e.data.get("applied")
        ]
        assert applied
        assert all(e.t_us > 0 for e in active.tracer.events())

    def test_registry_collected_detail_metrics(self, traced_run):
        active, engine = traced_run
        names = {h.name for h in active.registry.histograms()}
        assert "repro_pipeline_update_us" in names
        assert "repro_operator_us" in names
        assert active.registry.value(
            "repro_cache_hit_total", {"cache": "T:0-1p"}
        ) > 0

    def test_metrics_facade_publishes_into_registry(self, traced_run):
        active, engine = traced_run
        engine.ctx.metrics.publish(active.registry)
        assert active.registry.value("repro_updates_processed_total") == (
            engine.ctx.metrics.updates_processed
        )


class TestZeroVirtualOverhead:
    def test_tracing_does_not_move_virtual_time(self):
        """Observability never charges the virtual clock, so a traced run
        reports bit-identical virtual-time throughput to an untraced one
        (the Figure 6 '<2% regression' criterion holds with margin)."""
        workload, engine = adaptive_engine()
        drive(engine, workload.updates(4000))
        baseline = engine.ctx.metrics.throughput(
            engine.ctx.clock.now_seconds
        )
        with obs.session():
            workload, traced = adaptive_engine()
            drive(traced, workload.updates(4000))
        observed = traced.ctx.metrics.throughput(
            traced.ctx.clock.now_seconds
        )
        assert observed == baseline


class TestSeriesPoints:
    def test_series_carries_hit_rate_and_decisions(self):
        workload, engine = adaptive_engine()
        series = run_with_series(
            engine, workload.updates(6000), sample_every_updates=500,
            used_caches=engine.used_caches,
        )
        assert series
        # Once the profitable cache is wired, windows see real hit rates.
        assert any(p.hit_rate > 0 for p in series)
        assert all(0.0 <= p.hit_rate <= 1.0 for p in series)
        flat = [d for p in series for d in p.decisions]
        assert any(
            d.action == ATTACH and d.candidate_id == "T:0-1p" for d in flat
        )
        # Decisions land in the window whose sampling interval saw them.
        markers = decision_markers(series)
        assert any(
            m["label"] == "cache T:0-1p added" for m in markers
        )

    def test_disabled_obs_still_yields_decisions(self):
        # The decision log is always on — no session required.
        workload, engine = adaptive_engine()
        assert engine.ctx.obs.enabled is False
        series = run_with_series(
            engine, workload.updates(6000), sample_every_updates=500
        )
        flat = [d for p in series for d in p.decisions]
        assert any(d.action == ATTACH for d in flat)


class TestCli:
    def test_trace_fig6_smoke(self, capsys, tmp_path):
        jsonl = tmp_path / "fig6.jsonl"
        prom = tmp_path / "fig6.prom"
        exit_code = cli.main([
            "trace", "fig6", "--arrivals", "2000",
            "--jsonl", str(jsonl), "--prometheus", str(prom),
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "trace summary:" in out
        assert "update_processed" in out
        records = [
            json.loads(line) for line in jsonl.read_text().splitlines()
        ]
        assert records
        assert all("kind" in r and "t_us" in r for r in records)
        assert "repro_" in prom.read_text()

    def test_figure_obs_jsonl_records_reoptimize_decisions(
        self, capsys, tmp_path
    ):
        """Acceptance criterion: a traced fig12 run's JSONL holds at least
        one re-optimization decision whose benefit/cost match the cost
        model run on the profiler statistics it recorded."""
        path = tmp_path / "fig12.jsonl"
        exit_code = cli.main([
            "figure", "fig12", "--arrivals", "12000",
            "--obs-jsonl", str(path),
        ])
        assert exit_code == 0
        assert "wrote JSONL trace" in capsys.readouterr().out
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        decisions = [r for r in records if r["kind"] == "decision"]
        reopt_decisions = [
            d for d in decisions
            if d["reopt_seq"] >= 1 and d["segment_d"]
        ]
        assert reopt_decisions
        from repro.engine.clock import CostModel
        default_cm = CostModel()
        for record in reopt_decisions:
            stats = cost_model.CacheStatistics(
                segment_d=tuple(record["segment_d"]),
                segment_c=tuple(record["segment_c"]),
                d_out=record["d_out"],
                miss_prob=record["miss_prob"],
                maintenance_rate=record["maintenance_rate"],
                key_width=record["key_width"],
                anchor_size=record["anchor_size"],
            )
            assert cost_model.benefit(stats, default_cm) == pytest.approx(
                record["benefit"]
            )
            assert cost_model.cost(stats, default_cm) == pytest.approx(
                record["cost"]
            )
        assert any(r["kind"] == "reoptimize" for r in records)

    def test_trace_rejects_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["trace", "nope"])
