"""Command-line interface: regenerate any paper experiment from a shell.

    python -m repro list
    python -m repro figure fig6 --arrivals 8000
    python -m repro figure fig9 --shards 4 --parallel-backend process
    python -m repro spectrum D2 --arrivals 12000
    python -m repro table2
    python -m repro demo --shards 2
    python -m repro trace fig12 --jsonl fig12-trace.jsonl
    python -m repro chaos fig12 --seed 11 --faults duplicate_prob=0.02
    python -m repro chaos demo --crash torn_tail --cache-mode rebuild
    python -m repro recover /tmp/crashed-journal
    python -m repro serve --port 8734 --wal-root /tmp/journals
    python -m repro profile fig9-6way --arrivals 2000 --flame f.txt
    python -m repro profile fig9-6way --shards 4 --prometheus m.prom

Arrival counts trade precision for time; the defaults match the
benchmark suite's.

Parallelism: ``--shards N`` hash-partitions the update streams and runs
one full pipeline per shard (``--parallel-backend process`` uses one OS
process per shard; the default ``serial`` backend runs shards in-process
with identical results; see docs/parallelism.md).

Micro-batching: ``chaos --batch-size N`` and ``profile --batch-size N``
drive their runs in micro-batches of N updates (see docs/api.md).

Observability: ``trace`` runs one experiment with the structured tracer
enabled and prints an event summary; ``--obs-jsonl PATH`` on ``figure``,
``spectrum``, and ``demo`` writes the merged trace + decision chronology
of the run as JSONL (see docs/observability.md).

Profiling: ``profile EXP`` runs one experiment with the dual-clock span
profiler on and prints a wall-time hotspot table; ``--flame`` writes
folded stacks for flamegraphs, ``--pstats`` a pstats-loadable dump, and
``--shards N`` merges per-worker telemetry under ``shard`` labels.
Wall-clock throughput and latency are measured by the benchmark ledger
(``benchmarks/ledger/run.py``), not by this CLI.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.bench import figures
from repro.bench.harness import format_rows
from repro.errors import CLIError, ReproError
from repro.obs.export import (
    observability_to_jsonl,
    registry_to_prometheus,
    write_jsonl,
)
from repro.parallel.engine import ParallelConfig

FIGURES: Dict[str, str] = {
    "fig6": "varying cache hit probability (T.B multiplicity 1-10)",
    "fig7": "varying join selectivity for ∆T tuples",
    "fig8": "varying cache update rate / probe rate",
    "fig9": "varying number of joining relations (3-9)",
    "fig10": "varying join cost (nested-loop |S| sweep)",
    "fig12": "adaptivity to a 20x rate burst on ∆R",
    "fig13": "adaptivity to the available memory (point D8)",
}

#: Workloads ``profile`` can span-profile: the demo chain plus the
#: fig9 star at three widths (the bench workload family).
PROFILE_EXPERIMENTS: Dict[str, int] = {
    "demo": 0,          # three-way chain; 0 = not a star width
    "fig9-3way": 3,
    "fig9-6way": 6,
    "fig9-9way": 9,
}


def _parallel_of(args: argparse.Namespace) -> ParallelConfig:
    """Build the run's ParallelConfig from CLI flags (validates both)."""
    return ParallelConfig(
        shards=getattr(args, "shards", 1),
        backend=getattr(args, "parallel_backend", "serial"),
    )


def _check_arrivals(args: argparse.Namespace) -> None:
    arrivals = getattr(args, "arrivals", None)
    if arrivals is not None and arrivals <= 0:
        raise CLIError(f"--arrivals must be positive, got {arrivals}")


def _run_row_figure(
    name: str,
    arrivals: Optional[int],
    parallel: Optional[ParallelConfig] = None,
) -> str:
    kwargs = {} if arrivals is None else {"arrivals": arrivals}
    kwargs["parallel"] = parallel
    if name == "fig6":
        rows = figures.figure6(**kwargs)
        return format_rows(
            "Figure 6 — varying cache hit probability",
            "T.B multiplicity", rows, ("hit_rate",),
        )
    if name == "fig7":
        rows = figures.figure7(**kwargs)
        return format_rows(
            "Figure 7 — varying join selectivity",
            "T selectivity", rows, ("hit_rate",),
        )
    if name == "fig8":
        rows = figures.figure8(**kwargs)
        return format_rows(
            "Figure 8 — varying update/probe ratio",
            "update/probe", rows, ("hit_rate",),
        )
    if name == "fig9":
        # Scales arrivals per n internally.
        rows = figures.figure9(parallel=parallel)
        return format_rows(
            "Figure 9 — varying number of joining relations",
            "n relations", rows, ("caches_used",),
        )
    if name == "fig10":
        rows = figures.figure10(**kwargs)
        return format_rows(
            "Figure 10 — varying join cost (no S.B index)",
            "|S| window", rows, ("hit_rate",),
        )
    raise CLIError(
        f"unknown figure {name!r}; available: {sorted(FIGURES)}"
    )


def _run_fig12(
    arrivals: Optional[int], parallel: Optional[ParallelConfig] = None
) -> str:
    total = arrivals if arrivals is not None else 44_000
    series = figures.figure12(
        total_arrivals=total, burst_after_arrivals=total // 2,
        parallel=parallel,
    )
    lines = [
        "Figure 12 — adaptivity to changing stream rate",
        f"{'∆S tuples':>10} | {'T⋈(R⋈S)':>10} | {'R⋈(T⋈S)':>10} | "
        f"{'adaptive':>10} | caches",
    ]
    for a, b, c in zip(
        series.static_rs_cache, series.static_ts_cache, series.adaptive
    ):
        lines.append(
            f"{c.x:>10} | {a.window_throughput:>10,.0f} | "
            f"{b.window_throughput:>10,.0f} | "
            f"{c.window_throughput:>10,.0f} | {list(c.used_caches)}"
        )
    return "\n".join(lines)


def _run_fig13(
    arrivals: Optional[int], parallel: Optional[ParallelConfig] = None
) -> str:
    kwargs = {} if arrivals is None else {"arrivals": arrivals}
    rows = figures.figure13(parallel=parallel, **kwargs)
    lines = [
        "Figure 13 — adaptivity to memory availability (D8)",
        f"{'budget KB':>10} | {'MJoin':>9} | {'A-Caching':>10} | {'XJoin':>10}",
    ]
    for r in rows:
        xjoin = f"{r.xjoin_rate:,.0f}" if r.xjoin_rate else "infeasible"
        lines.append(
            f"{r.memory_kb:>10} | {r.mjoin_rate:>9,.0f} | "
            f"{r.acaching_rate:>10,.0f} | {xjoin:>10}"
        )
    return "\n".join(lines)


def _subcommands(parser: argparse.ArgumentParser) -> List[tuple]:
    """``(name, help)`` of every subcommand registered on ``parser``."""
    (action,) = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return [(choice.dest, choice.help) for choice in action._choices_actions]


def cmd_list(_args: argparse.Namespace) -> str:
    """``list``: every subcommand ``build_parser`` registers, then the
    experiments the ``figure``, ``spectrum`` and ``profile`` commands
    accept."""
    lines = ["commands:"]
    for name, help_text in _subcommands(build_parser()):
        lines.append(f"  {name:<9} {help_text}")
    lines.append("figures (figure NAME):")
    for name, blurb in FIGURES.items():
        lines.append(f"  {name:<9} {blurb}")
    lines.append("spectrum points: D1..D8")
    lines.append(
        f"profile experiments: {', '.join(sorted(PROFILE_EXPERIMENTS))}"
    )
    return "\n".join(lines)


def cmd_figure(args: argparse.Namespace) -> str:
    """``figure NAME``: regenerate one figure's data series."""
    _check_arrivals(args)
    parallel = _parallel_of(args)
    if args.name == "fig12":
        return _run_fig12(args.arrivals, parallel)
    if args.name == "fig13":
        return _run_fig13(args.arrivals, parallel)
    return _run_row_figure(args.name, args.arrivals, parallel)


def cmd_spectrum(args: argparse.Namespace) -> str:
    """``spectrum POINT``: the M/X/P/G comparison at a Table 2 point."""
    _check_arrivals(args)
    parallel = _parallel_of(args)
    known = [f"D{i}" for i in range(1, 9)]
    if args.point not in known:
        raise CLIError(
            f"unknown Table 2 point {args.point!r}; available: {known}"
        )
    results = figures.figure11(
        points=(args.point,),
        arrivals=args.arrivals if args.arrivals else 16_000,
        parallel=parallel,
    )
    (result,) = results
    lines = [f"plan spectrum at {result.point}:"]
    for label, rate in result.rates.items():
        lines.append(f"  {label}: {rate:>10,.0f} tuples/sec")
    lines.append(f"  P caches: {result.detail['P_caches']}")
    lines.append(f"  G caches: {result.detail['G_caches']}")
    lines.append(f"  X tree:   {result.detail['xjoin_tree']}")
    return "\n".join(lines)


def cmd_table2(_args: argparse.Namespace) -> str:
    """``table2``: print the Table 2 parameters."""
    return figures.table2()


def cmd_demo(args: argparse.Namespace) -> str:
    """``demo``: a quick adaptive-caching-vs-MJoin measurement."""
    from functools import partial

    from repro.planner.enumeration import run_acaching, run_mjoin
    from repro.streams.workloads import three_way_chain

    _check_arrivals(args)
    parallel = _parallel_of(args)
    arrivals = args.arrivals if args.arrivals else 12_000
    factory = partial(
        three_way_chain, t_multiplicity=5.0, window_r=96, window_s=96
    )

    mjoin = run_mjoin(factory, arrivals, parallel=parallel)
    cached = run_acaching(
        factory, arrivals, global_quota=6,
        reopt_interval_updates=3000, stat_window=5, parallel=parallel,
    )
    sharding = (
        f" ({parallel.shards} shards, {parallel.backend} backend)"
        if parallel.active
        else ""
    )
    return (
        f"three-way stream join, adaptive caching vs MJoin{sharding}\n"
        f"  MJoin      : {mjoin.throughput:>10,.0f} tuples/sec\n"
        f"  A-Caching  : {cached.throughput:>10,.0f} tuples/sec "
        f"(caches {cached.detail['used_caches']}, "
        f"hit rate {cached.detail['hit_rate']:.0%})\n"
        f"  speedup    : {cached.throughput / mjoin.throughput:.2f}x"
    )


def _cmd_crash_chaos(args: argparse.Namespace) -> str:
    """The ``chaos EXP --crash KIND`` variant: kill, recover, verify."""
    from repro.faults.crashes import format_crash_report, run_crash_chaos

    parallel = _parallel_of(args)
    report = run_crash_chaos(
        args.experiment,
        seed=args.seed,
        arrivals=args.arrivals,
        kind=args.crash,
        cache_mode=args.cache_mode,
        checkpoint_interval=args.checkpoint_interval,
        fsync_every=args.fsync_every,
        wal_dir=args.wal_dir,
        shards=parallel.shards,
        recover=not args.no_recover,
    )
    return format_crash_report(report)


def _cmd_service_chaos(args: argparse.Namespace) -> str:
    """``chaos service``: hostile clients against a live server."""
    from repro.faults.service_chaos import (
        ServiceChaosConfig,
        format_service_chaos_report,
        run_service_chaos,
        verify_service_chaos,
    )

    config = ServiceChaosConfig(
        seed=args.seed,
        honest_batches=args.arrivals if args.arrivals else 60,
    )
    report = run_service_chaos(config)
    body = format_service_chaos_report(report)
    if args.jsonl:
        write_jsonl(args.jsonl, json.dumps(report.to_dict()) + "\n")
        body += f"\nwrote chaos JSONL to {args.jsonl}"
    verify_service_chaos(report)
    return body


def _chaos_experiment_name(args: argparse.Namespace) -> str:
    """The experiment reference one ``chaos`` call names.

    Exactly one of the positional EXPERIMENT, ``--trace FILE``, or
    ``--scenario FILE`` must be given; the flags map onto the scenario
    library's ``trace:PATH`` / ``scenario-file:PATH`` references.
    """
    given = [
        ref
        for ref in (
            args.experiment,
            f"trace:{args.trace}" if args.trace else None,
            f"scenario-file:{args.scenario}" if args.scenario else None,
        )
        if ref
    ]
    if len(given) != 1:
        raise CLIError(
            "pass exactly one of an EXPERIMENT name, --trace FILE, or "
            "--scenario FILE"
        )
    return given[0]


def _split_list(text: Optional[str]) -> Optional[List[str]]:
    if not text:
        return None
    parts = [part.strip() for part in text.split(",") if part.strip()]
    return parts or None


def _cmd_chaos_matrix(args: argparse.Namespace) -> str:
    """``chaos matrix``: the scenario x fault plan x mode campaign."""
    from repro.scenarios.matrix import (
        FAIL,
        format_matrix_report,
        matrix_to_json,
        run_matrix,
    )

    out = args.out if args.out is not None else "CHAOS_matrix.json"
    _ensure_writable(out)
    scenarios = _split_list(args.scenarios) or []
    if args.trace:
        scenarios.append(f"trace:{args.trace}")
    if args.scenario:
        scenarios.append(f"scenario-file:{args.scenario}")
    payload = run_matrix(
        scenarios=scenarios or None,
        plans=_split_list(args.plans),
        modes=_split_list(args.modes),
        arrivals=args.arrivals if args.arrivals else 1500,
        seed=args.seed,
        progress=print,
    )
    body = format_matrix_report(payload)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(matrix_to_json(payload))
        body += f"\nwrote chaos matrix to {out}"
    if payload["totals"]["fail"]:
        failed = [
            f"{c['scenario']}/{c['plan']}/{c['mode']}"
            for c in payload["cells"]
            if c["verdict"] == FAIL
        ]
        raise CLIError(
            f"{len(failed)} matrix cell(s) FAILED: {', '.join(failed)}"
        )
    return body


def cmd_chaos(args: argparse.Namespace) -> str:
    """``chaos EXP``: run one experiment under a seeded fault schedule."""
    if args.experiment == "service":
        _ensure_writable(args.jsonl)
        return _cmd_service_chaos(args)
    if args.experiment == "matrix":
        _check_arrivals(args)
        return _cmd_chaos_matrix(args)
    args.experiment = _chaos_experiment_name(args)
    from repro.faults.chaos import (
        chaos_to_jsonl,
        format_chaos_report,
        format_dead_letters,
        parse_fault_overrides,
        run_chaos,
    )

    _check_arrivals(args)
    if args.crash is not None:
        return _cmd_crash_chaos(args)
    parallel = _parallel_of(args)
    _ensure_writable(args.jsonl)
    overrides = parse_fault_overrides(args.faults)
    report = run_chaos(
        args.experiment,
        seed=args.seed,
        arrivals=args.arrivals,
        overrides=overrides,
        shards=parallel.shards,
        backend=parallel.backend,
        batch_size=args.batch_size,
    )
    body = format_chaos_report(report)
    if args.dump_dead_letters:
        body += "\n" + format_dead_letters(report)
    if args.jsonl:
        write_jsonl(args.jsonl, chaos_to_jsonl(report))
        body += f"\nwrote chaos JSONL to {args.jsonl}"
    return body


def cmd_recover(args: argparse.Namespace) -> str:
    """``recover DIR``: restore a crashed journal directory and verify."""
    from repro.faults.crashes import format_crash_report, recover_and_verify

    return format_crash_report(recover_and_verify(args.directory))


def cmd_serve(args: argparse.Namespace) -> str:
    """``serve``: run the service until SIGINT/SIGTERM, then drain.

    Bind failures surface as the library's one-line ``error:`` (exit 1);
    a delivered signal drains every query (checkpoint + WAL close) and
    exits 0 — acknowledged updates are durable either way.
    """
    import signal
    import threading

    from repro.service import ServiceConfig, ServiceThread

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        wal_root=args.wal_root,
        checkpoint_interval=args.checkpoint_interval,
        tenant_rate=args.tenant_rate,
        queue_capacity_updates=args.queue_capacity,
        shared_engine=args.shared_engine,
    )
    thread = ServiceThread(config)
    url = thread.start()
    stop = threading.Event()

    def _on_signal(_signum, _frame) -> None:
        stop.set()

    previous = {
        signal.SIGINT: signal.signal(signal.SIGINT, _on_signal),
        signal.SIGTERM: signal.signal(signal.SIGTERM, _on_signal),
    }
    durability = (
        f"journaling under {args.wal_root}" if args.wal_root
        else "in-memory (no --wal-root: no durability)"
    )
    print(f"serving at {url} — {durability}; SIGINT/SIGTERM drains",
          flush=True)
    try:
        stop.wait()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        thread.stop()
    return f"drained and stopped {url}"


def _profile_workload(name: str):
    """The workload factory behind one ``profile`` experiment name."""
    from functools import partial

    from repro.streams.workloads import fig9_workload, three_way_chain

    if name not in PROFILE_EXPERIMENTS:
        raise CLIError(
            f"unknown profile experiment {name!r}; "
            f"available: {sorted(PROFILE_EXPERIMENTS)}"
        )
    relations = PROFILE_EXPERIMENTS[name]
    if relations:
        return partial(fig9_workload, relations, window=48)
    return partial(
        three_way_chain, t_multiplicity=5.0, window_r=96, window_s=96
    )


def _profile_tuning():
    """Adaptive tunables for ``profile`` runs.

    Faster-adapting than :func:`repro.parallel.bench.bench_tuning`: a
    sharded run hands each worker a stream ``shards``× thinner, and
    under the bench intervals the per-shard statistics profiler starves
    before the re-optimizer ever installs a cache. Shorter
    profiling/re-opt intervals keep caches engaging at profiling scales
    so the per-shard probe/hit counters show the imbalance instead of a
    wall of zeros.
    """
    from repro.core.acaching import ACachingConfig
    from repro.core.profiler import ProfilerConfig
    from repro.core.reoptimizer import ReoptimizerConfig
    from repro.ordering.agreedy import OrderingConfig

    return ACachingConfig(
        profiler=ProfilerConfig(
            window=6, profile_probability=0.3, bloom_window_tuples=256
        ),
        reoptimizer=ReoptimizerConfig(
            reopt_interval_updates=300,
            profiling_phase_updates=100,
            global_quota=6,
        ),
        ordering=OrderingConfig(interval_updates=400),
        adaptive_ordering=True,
    )


def _hotspot_lines(snapshot) -> List[str]:
    """The span hotspot table ``profile`` prints: the ten span names with
    the most self wall time, with dual-clock percentiles."""
    lines = [
        f"{'span':<24} | {'count':>7} | {'self ms':>8} | "
        f"{'p50 us':>7} | {'p95 us':>8} | {'p99 us':>8} | {'virt ms':>8}"
    ]
    hottest = sorted(
        snapshot.aggregates().values(), key=lambda a: a.self_ns, reverse=True
    )
    for aggregate in hottest[:10]:
        lines.append(
            f"{aggregate.name:<24} | {aggregate.count:>7,} | "
            f"{aggregate.self_ns / 1e6:>8.1f} | "
            f"{aggregate.quantile_ns(0.50) / 1e3:>7.1f} | "
            f"{aggregate.quantile_ns(0.95) / 1e3:>8.1f} | "
            f"{aggregate.quantile_ns(0.99) / 1e3:>8.1f} | "
            f"{aggregate.virtual_us / 1e3:>8.1f}"
        )
    return lines


def cmd_profile(args: argparse.Namespace) -> str:
    """``profile EXP``: run one experiment under the span profiler.

    Serial runs report where the wall time went (hotspot table, folded
    stacks, span coverage of the measured wall time); ``--shards N``
    runs partitioned, merges each worker's telemetry under ``shard``
    labels, and reports per-shard cache behaviour — the view that makes
    profiler starvation on a hot shard observable.
    """
    import time as _time

    from repro.api import EngineConfig, Session
    from repro.obs.profile import write_pstats

    _check_arrivals(args)
    parallel = _parallel_of(args)
    if args.batch_size < 1:
        raise CLIError(f"--batch-size must be >= 1, got {args.batch_size}")
    for path in (args.flame, args.pstats, args.prometheus):
        _ensure_writable(path)
    factory = _profile_workload(args.experiment)
    arrivals = args.arrivals if args.arrivals else 4_000
    config = EngineConfig(
        profile=True,
        batch_size=args.batch_size,
        shards=parallel.shards,
        parallel_backend=parallel.backend,
        tuning=_profile_tuning(),
        obs_flame=args.flame,
        obs_metrics_prom=args.prometheus,
    )
    session = Session.adaptive(factory, config)
    lines: List[str] = []
    if parallel.active:
        run = session.execute(arrivals=arrivals, output_mode="none")
        snapshot = session.last_telemetry.profile
        lines.append(
            f"profiled {args.experiment} — {arrivals} arrivals, "
            f"{parallel.shards} shards ({parallel.backend} backend), "
            f"{run.wall_seconds:.2f}s wall"
        )
        lines.append(
            f"{'shard':>5} | {'updates':>8} | {'outputs':>8} | "
            f"{'probes':>8} | {'hits':>8} | {'hit %':>6} | {'virtual s':>9}"
        )
        for result in run.results:
            stats = result.stats
            rate = (
                stats.cache_hits / stats.cache_probes
                if stats.cache_probes
                else 0.0
            )
            lines.append(
                f"{stats.shard:>5} | {stats.updates_processed:>8,} | "
                f"{stats.outputs_emitted:>8,} | {stats.cache_probes:>8,} | "
                f"{stats.cache_hits:>8,} | {rate:>6.1%} | "
                f"{stats.clock_us / 1e6:>9.3f}"
            )
    else:
        session.plan  # build the engine before the wall timer starts
        started = _time.perf_counter()
        session.run(arrivals=arrivals)
        wall = _time.perf_counter() - started
        snapshot = session.profile_snapshot()
        coverage = snapshot.root_self_ns("run") / (wall * 1e9)
        lines.append(
            f"profiled {args.experiment} — {arrivals} arrivals, "
            f"{wall:.2f}s wall"
        )
        lines.append(
            f"span coverage: run-rooted spans account for {coverage:.1%} "
            f"of the measured wall time"
        )
    lines.extend(_hotspot_lines(snapshot))
    if args.flame:
        lines.append(f"wrote folded stacks to {args.flame}")
    if args.prometheus:
        lines.append(f"wrote Prometheus metrics to {args.prometheus}")
    if args.pstats:
        write_pstats(args.pstats, snapshot)
        lines.append(f"wrote pstats profile to {args.pstats}")
    return "\n".join(lines)


TRACEABLE = tuple(sorted(FIGURES)) + ("demo",)


def _run_experiment(name: str, args: argparse.Namespace) -> str:
    """Dispatch one traceable experiment by name (figure key or demo)."""
    _check_arrivals(args)
    parallel = _parallel_of(args)
    if name == "demo":
        return cmd_demo(args)
    if name == "fig12":
        return _run_fig12(args.arrivals, parallel)
    if name == "fig13":
        return _run_fig13(args.arrivals, parallel)
    return _run_row_figure(name, args.arrivals, parallel)


def _trace_summary(active: "obs.Observability") -> str:
    """Human-readable recap of what one traced run captured."""
    lines = ["trace summary:"]
    for kind in active.tracer.kinds():
        count = len(active.tracer.events(kind))
        dropped = active.tracer.dropped.get(kind, 0)
        note = f" ({dropped} dropped)" if dropped else ""
        lines.append(f"  {kind:<18} {count:>8} events{note}")
    lines.append(f"  {'decisions':<18} {len(active.decisions):>8} records")
    for record in active.decisions.entries()[-12:]:
        net = f" net={record.net:,.0f}" if record.net is not None else ""
        lines.append(
            f"    t={record.t_us / 1e6:>9.3f}s {record.action:<13} "
            f"{record.candidate_id:<8}{net}  {record.reason}"
        )
    return "\n".join(lines)


def _ensure_writable(path: Optional[str]) -> None:
    """Fail fast on an unwritable export path — before the experiment
    runs, not after minutes of work produce a trace with nowhere to go."""
    if not path:
        return
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as error:
        raise SystemExit(f"cannot write {path}: {error}")


def cmd_trace(args: argparse.Namespace) -> str:
    """``trace EXP``: run one experiment with structured tracing on."""
    _ensure_writable(args.jsonl)
    _ensure_writable(args.prometheus)
    active = obs.Observability.tracing()
    with obs.session(active):
        body = _run_experiment(args.experiment, args)
    lines = [body, "", _trace_summary(active)]
    if args.jsonl:
        write_jsonl(args.jsonl, observability_to_jsonl(active))
        lines.append(f"wrote JSONL trace to {args.jsonl}")
    if args.prometheus:
        write_jsonl(args.prometheus, registry_to_prometheus(active.registry))
        lines.append(f"wrote Prometheus metrics to {args.prometheus}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI (also used by the tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's experiments (see EXPERIMENTS.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list commands and experiments").set_defaults(
        handler=cmd_list
    )

    def add_parallel_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--shards", type=int, default=1, metavar="N",
            help="hash-partition the streams across N shards (default 1)",
        )
        command.add_argument(
            "--parallel-backend", default="serial", metavar="BACKEND",
            help="how shards execute: serial (in-process, default) "
                 "or process (one OS process per shard)",
        )

    figure = sub.add_parser("figure", help="regenerate one figure's series")
    # Name validated in the handler so unknown figures surface as the
    # library's one-line `error: ...` rather than an argparse usage dump.
    figure.add_argument("name", metavar="NAME")
    figure.add_argument("--arrivals", type=int, default=None)
    figure.add_argument(
        "--obs-jsonl", metavar="PATH", default=None,
        help="run with tracing enabled; write the JSONL chronology here",
    )
    add_parallel_flags(figure)
    figure.set_defaults(handler=cmd_figure)

    spectrum = sub.add_parser(
        "spectrum", help="M/X/P/G comparison at a Table 2 point"
    )
    spectrum.add_argument("point", metavar="POINT")
    spectrum.add_argument("--arrivals", type=int, default=None)
    spectrum.add_argument(
        "--obs-jsonl", metavar="PATH", default=None,
        help="run with tracing enabled; write the JSONL chronology here",
    )
    add_parallel_flags(spectrum)
    spectrum.set_defaults(handler=cmd_spectrum)

    sub.add_parser("table2", help="print Table 2").set_defaults(
        handler=cmd_table2
    )

    demo = sub.add_parser("demo", help="adaptive caching vs MJoin, quickly")
    demo.add_argument("--arrivals", type=int, default=None)
    demo.add_argument(
        "--obs-jsonl", metavar="PATH", default=None,
        help="run with tracing enabled; write the JSONL chronology here",
    )
    add_parallel_flags(demo)
    demo.set_defaults(handler=cmd_demo)

    trace = sub.add_parser(
        "trace", help="run one experiment with structured tracing on"
    )
    trace.add_argument("experiment", choices=TRACEABLE)
    trace.add_argument("--arrivals", type=int, default=None)
    trace.add_argument(
        "--jsonl", metavar="PATH", default=None,
        help="write the merged trace + decision JSONL here",
    )
    trace.add_argument(
        "--prometheus", metavar="PATH", default=None,
        help="write a Prometheus-style metrics dump here",
    )
    trace.set_defaults(handler=cmd_trace)

    chaos = sub.add_parser(
        "chaos", help="run an experiment under deterministic fault injection"
    )
    chaos.add_argument(
        "experiment", nargs="?", default=None,
        help="experiment name (figure key, demo, scenario:NAME, "
             "'matrix' for the campaign runner, or 'service'); see `list`",
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--arrivals", type=int, default=None)
    chaos.add_argument(
        "--trace", metavar="FILE", default=None,
        help="run a recorded trace file instead of a named experiment",
    )
    chaos.add_argument(
        "--scenario", metavar="FILE", default=None,
        help="run a scenario file (JSON/YAML) instead of a named "
             "experiment",
    )
    chaos.add_argument(
        "--scenarios", metavar="NAME,...", default=None,
        help="with matrix: comma-separated scenario references "
             "(default: every built-in scenario)",
    )
    chaos.add_argument(
        "--plans", metavar="NAME,...", default=None,
        help="with matrix: fault plans to sweep (default: all)",
    )
    chaos.add_argument(
        "--modes", metavar="NAME,...", default=None,
        help="with matrix: execution modes to sweep (default: all)",
    )
    chaos.add_argument(
        "--out", metavar="PATH", default=None,
        help="with matrix: write the matrix JSON here "
             "(default CHAOS_matrix.json)",
    )
    chaos.add_argument(
        "--faults", metavar="K=V,...", default=None,
        help="override FaultSpec fields, e.g. "
             "duplicate_prob=0.05,burst_copies=5",
    )
    chaos.add_argument(
        "--jsonl", metavar="PATH", default=None,
        help="write the chaos summary + decision chronology here",
    )
    chaos.add_argument(
        "--batch-size", type=int, default=1, metavar="N",
        help="drive both passes through micro-batches of N updates "
             "(default 1 = per-update)",
    )
    chaos.add_argument(
        "--dump-dead-letters", action="store_true",
        help="print every quarantined update the dead-letter buffer "
             "retained",
    )
    chaos.add_argument(
        "--crash", metavar="KIND", default=None,
        help="crash-injection mode: kill a journaled run (at_event, "
             "torn_tail, during_checkpoint), recover it, and verify the "
             "result against a clean run",
    )
    chaos.add_argument(
        "--cache-mode", default="snapshot", metavar="MODE",
        help="checkpoint cache mode for --crash: snapshot (full engine) "
             "or rebuild (windows only; caches re-converge)",
    )
    chaos.add_argument(
        "--checkpoint-interval", type=int, default=500, metavar="N",
        help="updates between checkpoints for --crash (default 500)",
    )
    chaos.add_argument(
        "--fsync-every", type=int, default=32, metavar="N",
        help="WAL records per fsync batch for --crash (default 32)",
    )
    chaos.add_argument(
        "--wal-dir", metavar="DIR", default=None,
        help="keep the --crash journal here (with a manifest.json for "
             "`repro recover`) instead of a throwaway temp dir",
    )
    chaos.add_argument(
        "--no-recover", action="store_true",
        help="with --crash --wal-dir: stop after the kill, leaving a "
             "genuinely crashed journal for `repro recover DIR`",
    )
    add_parallel_flags(chaos)
    chaos.set_defaults(handler=cmd_chaos)

    recover = sub.add_parser(
        "recover",
        help="restore a crashed --crash journal directory and verify it",
    )
    recover.add_argument(
        "directory", metavar="DIR",
        help="the --wal-dir a `chaos --crash` run journaled into",
    )
    recover.set_defaults(handler=cmd_recover)

    serve = sub.add_parser(
        "serve",
        help="run the streaming ingestion service (HTTP + WebSocket)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=8734,
        help="bind port; 0 picks an ephemeral port (default 8734)",
    )
    serve.add_argument(
        "--wal-root", metavar="DIR", default=None,
        help="journal queries under DIR/<query>/ and resume them on "
             "restart (no DIR = in-memory only, no durability)",
    )
    serve.add_argument(
        "--checkpoint-interval", type=int, default=1000, metavar="N",
        help="updates between checkpoints per query (default 1000)",
    )
    serve.add_argument(
        "--tenant-rate", type=float, default=50_000.0, metavar="R",
        help="admission token-bucket refill, updates/sec per tenant "
             "(default 50000)",
    )
    serve.add_argument(
        "--queue-capacity", type=int, default=8192, metavar="N",
        help="bounded ingress queue capacity in updates (default 8192)",
    )
    serve.add_argument(
        "--shared-engine", action="store_true",
        help="host every registered query on one multi-query engine "
             "(shared streams + inter-query caches; incompatible with "
             "--wal-root)",
    )
    serve.set_defaults(handler=cmd_serve)

    profile = sub.add_parser(
        "profile",
        help="run one experiment under the dual-clock span profiler",
    )
    # Name validated in the handler for the library's one-line error.
    profile.add_argument("experiment", metavar="EXP")
    profile.add_argument("--arrivals", type=int, default=None)
    profile.add_argument(
        "--batch-size", type=int, default=1, metavar="N",
        help="drive the run in micro-batches of N updates (default 1)",
    )
    profile.add_argument(
        "--flame", metavar="PATH", default=None,
        help="write folded stacks here (flamegraph.pl / inferno input); "
             "sharded runs prefix each stack with its shard",
    )
    profile.add_argument(
        "--pstats", metavar="PATH", default=None,
        help="write a pstats-loadable dump here "
             "(python -m pstats PATH, or pstats.Stats(PATH))",
    )
    profile.add_argument(
        "--prometheus", metavar="PATH", default=None,
        help="write the metrics dump here (sharded runs label every "
             "per-shard series shard=\"N\")",
    )
    add_parallel_flags(profile)
    profile.set_defaults(handler=cmd_profile)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        obs_jsonl = getattr(args, "obs_jsonl", None)
        if obs_jsonl:
            _ensure_writable(obs_jsonl)
            active = obs.Observability.tracing()
            with obs.session(active):
                output = args.handler(args)
            write_jsonl(obs_jsonl, observability_to_jsonl(active))
            output += f"\nwrote JSONL trace to {obs_jsonl}"
        else:
            output = args.handler(args)
        print(output)
    except BrokenPipeError:  # e.g. `python -m repro table2 | head`
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
    except ReproError as error:
        # Library errors are user-facing configuration problems, not
        # crashes: one line on stderr, exit status 1, no traceback.
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
