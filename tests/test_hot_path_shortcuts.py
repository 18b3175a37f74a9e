"""Each per-update shortcut equals the code it replaced.

* the profiler's deterministic gate continues a precomputed CRC of the
  ``"<seed>:"`` prefix; it must equal :func:`deterministic_gate_hash`;
* single-class cache keys read one slot and repeat it; the key must equal
  the value read at every slot by name, on composites from a live run;
* A-Greedy samples each ``(predicate, target)`` once per check; its
  smoothed estimates and the clock must equal those of an estimator that
  re-samples on every call.
"""

from __future__ import annotations

import math

import pytest

from repro.api import EngineConfig, Session
from repro.caching.key import CacheKey
from repro.core.profiler import (
    Profiler,
    ProfilerConfig,
    deterministic_gate_hash,
)
from repro.mjoin.executor import MJoinExecutor
from repro.operators.join_op import JoinOperator
from repro.ordering.agreedy import (
    MatchRateEstimator,
    greedy_order,
    order_cost,
)
from repro.parallel.bench import bench_tuning
from repro.relations.predicates import JoinGraph
from repro.relations.relation import Relation
from repro.scenarios.library import SCENARIOS, build_scenario_workload
from repro.streams.tuples import CompositeTuple, Row, Schema, layout_of
from repro.streams.workloads import fig9_workload


# ----------------------------------------------------------------------
# the profiler gate
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 17, 2**31 - 1])
def test_gate_equals_deterministic_gate_hash(seed):
    executor = MJoinExecutor(fig9_workload(3).graph)
    profiler = Profiler(
        executor, ProfilerConfig(seed=seed, deterministic_gate=True)
    )
    relation = next(iter(executor.pipelines))
    for seq in (0, 1, 9, 10, -1, -12345, 2**31, 10**12):
        expected = deterministic_gate_hash(seed, seq)
        # ``hash < p`` flips exactly between p = hash and the next float
        # above it, which pins the gate's hash to the last bit.
        profiler.config.profile_probability = expected
        assert profiler._gate(relation, seq) is False
        profiler.config.profile_probability = math.nextafter(expected, 2.0)
        assert profiler._gate(relation, seq) is True
    arrivals = profiler.profiles[relation]._arrival_times
    assert list(arrivals) == [executor.ctx.clock.now_us] * 16


# ----------------------------------------------------------------------
# single-class cache keys
# ----------------------------------------------------------------------
def _live_run(workload, arrivals, monkeypatch):
    """An adaptive engine after ``arrivals`` arrivals, and (up to 40 per
    relation set) the composites its join operators took and produced."""
    seen = {}
    apply = JoinOperator.apply

    def recording(self, composites, ctx):
        outputs = apply(self, composites, ctx)
        for layout, batch in (
            (layout_of(self.prior), composites),
            (layout_of(self.prior + (self.target,)), outputs),
        ):
            for rows in batch:
                composite = CompositeTuple(layout, rows)
                kept = seen.setdefault(frozenset(composite), [])
                if len(kept) < 40:
                    kept.append(composite)
        return outputs

    monkeypatch.setattr(JoinOperator, "apply", recording)
    engine = Session.adaptive(
        workload, EngineConfig(tuning=bench_tuning())
    ).plan
    for update in workload.updates(arrivals):
        engine.process(update)
    monkeypatch.undo()
    return engine, [c for kept in seen.values() for c in kept]


KEY_WORKLOADS = {
    "fig9_star6": lambda: fig9_workload(6, window=48),
    "delete_storm": lambda: build_scenario_workload(
        SCENARIOS["delete_storm"], 1_500
    ),
}


def _read(composite, slots):
    """The values at ``(relation, position)`` slots, read by name."""
    return tuple(composite.value(relation, p) for relation, p in slots)


def _laid_out(composite, relations):
    """``composite``'s rows laid out as ``relations``."""
    return tuple(composite.row(relation) for relation in relations)


@pytest.mark.parametrize("name", sorted(KEY_WORKLOADS))
def test_single_class_keys_equal_values_at(name, monkeypatch):
    workload = KEY_WORKLOADS[name]()
    engine, composites = _live_run(workload, 1_500, monkeypatch)
    graph = engine.executor.graph
    candidates = list(engine.reoptimizer.candidates.values())
    assert candidates
    single = 0
    for candidate in candidates:
        key = CacheKey(graph, candidate.prefix, candidate.segment)
        prefix_slots = key.prefix_slots
        segment_slots = key.signature()
        probed = entered = 0
        for composite in composites:
            bound = set(composite)
            if set(candidate.prefix) <= bound:
                probed += 1
                assert key.probe_value(
                    _laid_out(composite, candidate.prefix)
                ) == _read(composite, prefix_slots)
            if set(candidate.segment) <= bound:
                entered += 1
                assert key.entry_key(
                    _laid_out(composite, candidate.segment)
                ) == _read(composite, segment_slots)
        assert probed and entered, candidate.candidate_id
        single += key._probe_slot is not None and key._entry_slot is not None
    if name == "fig9_star6":
        # Every star key is single-class on both sides.
        assert single == len(candidates)


def test_keys_off_one_class_read_every_slot():
    """R.A = S.A and R.B = T.B cross into the segment (S, T), whose own
    predicate S.C = T.C does not equate S.A with T.B: the entry key
    must keep both values, and so must the probe key (R.A, R.B)."""
    graph = JoinGraph.parse(
        [Schema("R", ("A", "B")), Schema("S", ("A", "C")),
         Schema("T", ("B", "C"))],
        ["R.A = S.A", "R.B = T.B", "S.C = T.C"],
    )
    key = CacheKey(graph, ("R",), ("S", "T"))
    assert key._probe_slot is None and key._entry_slot is None
    r, s, t = Row(0, (1, 2)), Row(1, (1, 7)), Row(2, (2, 7))
    assert key.probe_value((r,)) == (1, 2)
    assert key.entry_key((s, t)) == (1, 2)


# ----------------------------------------------------------------------
# A-Greedy: one sample per (predicate, target) per check
# ----------------------------------------------------------------------
class _Resampling(MatchRateEstimator):
    """The estimator before the per-check sample memo."""

    def match_rate(self, prefix, target):
        self._sampled.clear()
        return super().match_rate(prefix, target)


def _star_engine():
    tuning = bench_tuning()
    tuning.ordering.interval_updates = 290
    workload = fig9_workload(6, window=48)
    return workload, Session.adaptive(
        workload, EngineConfig(tuning=tuning)
    ).plan


def test_agreedy_samples_each_predicate_once_per_check(monkeypatch):
    workload, engine = _star_engine()
    for update in workload.updates(800):
        engine.process(update)
    graph = engine.executor.graph
    estimator = engine.orderer.estimator

    calls = []
    match_count = Relation.match_count

    def counted(self, attribute, value):
        calls.append((attribute, value))
        return match_count(self, attribute, value)

    monkeypatch.setattr(Relation, "match_count", counted)

    def one_check(estimator):
        calls.clear()
        estimator.begin_batch()
        for owner in graph.relations:
            order = greedy_order(owner, graph, estimator)
            order_cost(owner, order, graph, estimator)
        return len(calls)

    pairs = 2 * len(graph.predicates)   # (predicate, either side)
    sample_size = engine.orderer.config.sample_size
    memoized = one_check(estimator)
    assert 0 < memoized <= pairs * sample_size
    resampling = _Resampling(
        graph, engine.executor.relations, engine.orderer.config
    )
    assert one_check(resampling) > memoized


def test_agreedy_estimates_and_clock_equal_a_resampling_estimator():
    workload, engine = _star_engine()
    _, reference = _star_engine()
    reference.orderer.estimator.__class__ = _Resampling
    checks = 0
    for update in workload.updates(3_000):
        engine.process(update)
        reference.process(update)
        assert repr(engine.ctx.clock.now_us) == repr(
            reference.ctx.clock.now_us
        )
        ours = engine.orderer.estimator._smoothed
        assert ours == reference.orderer.estimator._smoothed
        checks += bool(ours) and engine.orderer._last_check_updates == (
            engine.ctx.metrics.updates_processed
        )
    assert checks > 5
