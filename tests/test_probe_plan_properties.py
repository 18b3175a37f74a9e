"""Properties of the compiled join path (probe plans, compiled pipelines).

A join operator evaluates fewer predicates than it is bound to: the ones
the composite invariant already implies are collapsed away at plan time
(``JoinOperator`` docstring; DESIGN.md "Hot path: what is resolved when").
These properties check, on random connected join graphs — multi-attribute
predicates, equivalence classes holding several attributes of one
relation, indexed and unindexed targets — that the collapse never changes
a match set, and that the compiled state survives a checkpoint pickle.
"""

import itertools
import pickle
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.acaching import ACaching, ACachingConfig
from repro.core.profiler import ProfilerConfig
from repro.core.reoptimizer import ReoptimizerConfig
from repro.mjoin.executor import MJoinExecutor
from repro.relations.predicates import JoinGraph
from repro.streams.events import Sign, Update, canonical_delta
from repro.streams.tuples import CompositeTuple, RowFactory, Schema

WINDOW = 4  # rows kept per relation: small enough to brute-force the join


@st.composite
def join_cases(draw, min_arrivals=10, max_arrivals=40):
    """A connected join graph, an index choice, and an update stream."""
    count = draw(st.integers(2, 4))
    schemas = [
        Schema(f"R{i}", "ABC"[: draw(st.integers(1, 3))])
        for i in range(count)
    ]

    def predicate(i, j):
        left = draw(st.sampled_from(schemas[i].attributes))
        right = draw(st.sampled_from(schemas[j].attributes))
        return f"R{i}.{left} = R{j}.{right}"

    # A spanning tree keeps the graph connected; the extras make
    # multi-attribute predicates and fold several attributes of one
    # relation into one equivalence class.
    predicates = [
        predicate(draw(st.integers(0, j - 1)), j) for j in range(1, count)
    ]
    for _ in range(draw(st.integers(0, 3))):
        i, j = sorted(
            draw(
                st.lists(
                    st.integers(0, count - 1),
                    min_size=2, max_size=2, unique=True,
                )
            )
        )
        predicates.append(predicate(i, j))
    graph = JoinGraph.parse(schemas, predicates)
    indexed = {
        schema.relation: tuple(
            a for a in schema.attributes if draw(st.booleans())
        )
        for schema in schemas
    }
    arrivals = draw(
        st.lists(
            st.tuples(st.integers(0, count - 1), st.integers(0, 26)),
            min_size=min_arrivals, max_size=max_arrivals,
        )
    )
    return graph, indexed, _windowed_updates(schemas, arrivals)


def _windowed_updates(schemas, arrivals):
    """Inserts with count-window expiry deletes, in global order."""
    factory = RowFactory()
    live = {schema.relation: [] for schema in schemas}
    updates = []
    for which, code in arrivals:
        schema = schemas[which]
        # Base-3 digits of ``code``: values 0..2 per attribute, so rows
        # collide often and two attributes of one row often differ.
        values = tuple((code // 3 ** k) % 3 for k in range(len(schema)))
        window = live[schema.relation]
        if len(window) == WINDOW:
            updates.append(
                Update(schema.relation, window.pop(0), Sign.DELETE, len(updates))
            )
        row = factory.make(values)
        window.append(row)
        updates.append(Update(schema.relation, row, Sign.INSERT, len(updates)))
    return updates


def _bound_predicates_hold(graph, operator, composite, row):
    """Test-only reference: evaluate *every* predicate the operator binds."""
    for pred in graph.predicates_between(operator.prior, operator.target):
        target_ref = pred.side_for(operator.target)
        prior_ref = pred.other_side(operator.target)
        prior_row = composite[operator.prior.index(prior_ref.relation)]
        if (
            row.values[graph.attr_position(target_ref)]
            != prior_row.values[graph.attr_position(prior_ref)]
        ):
            return False
    return True


def _brute_force_join(graph, relations):
    """Every combination of live rows satisfying every base predicate."""
    names = list(graph.relations)
    results = Counter()
    for rows in itertools.product(*(relations[n].rows() for n in names)):
        bound = dict(zip(names, rows))
        if all(
            bound[p.left.relation].values[graph.attr_position(p.left)]
            == bound[p.right.relation].values[graph.attr_position(p.right)]
            for p in graph.base_predicates
        ):
            results[tuple(row.rid for row in rows)] += 1
    return results


def _identity(graph, composite):
    return composite.identity(graph.relations)


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(join_cases())
def test_compiled_match_sets_equal_brute_force(case):
    graph, indexed, updates = case
    executor = MJoinExecutor(graph, indexed_attributes=indexed)
    live = Counter()
    for update in updates:
        pipeline = executor.pipelines[update.relation]
        composites = [(update.row,)]
        for operator in pipeline.operators:
            for composite in composites:
                expected = {
                    row.rid
                    for row in operator.relation.rows()
                    if _bound_predicates_hold(graph, operator, composite, row)
                }
                found = operator.match_rows(composite, executor.ctx)
                assert {row.rid for row in found} == expected
                assert len(found) == len(expected)
            composites = operator.apply(composites, executor.ctx)
        deltas = executor.process(update)
        assert sorted(_identity(graph, d.composite) for d in deltas) == sorted(
            _identity(graph, CompositeTuple(pipeline.layout, c))
            for c in composites
        )
        for delta in deltas:
            live[_identity(graph, delta.composite)] += int(delta.sign)
    # End to end: the collapsed residuals kept the composite invariant, so
    # the accumulated result is the join of the final windows.
    assert +live == _brute_force_join(graph, executor.relations)


def _eager_tuning():
    """Adaptivity fast enough to wire caches within a few dozen updates."""
    return ACachingConfig(
        profiler=ProfilerConfig(
            window=2, profile_probability=0.5, bloom_window_tuples=8
        ),
        reoptimizer=ReoptimizerConfig(
            reopt_interval_updates=10,
            profiling_phase_updates=6,
            monitor_every_updates=5,
            global_quota=2,
        ),
        adaptive_ordering=False,
    )


@pytest.mark.parametrize("seed", [8, 23, 28, 64])
def test_profiled_owner_delete_consumes_last_global_witness(seed):
    """One equivalence class over three relations, global caches on.

    A *profiled* owner-side delete bypasses every CacheLookup, but it must
    still consume a globally-consistent entry whose last owner witness it
    removes; otherwise the entry outlives its witness and later serves a
    stale composite. These seeds reached that state before the check ran
    on the profiled path too.
    """
    schemas = [Schema(f"R{i}", "A") for i in range(3)]
    graph = JoinGraph.parse(schemas, ["R0.A = R1.A", "R1.A = R2.A"])
    indexed = {schema.relation: ("A",) for schema in schemas}
    rng = random.Random(seed)
    arrivals = [(rng.randrange(3), rng.randrange(3)) for _ in range(80)]
    engine = ACaching(
        graph, indexed_attributes=indexed, config=_eager_tuning()
    )
    live = Counter()
    for update in _windowed_updates(schemas, arrivals):
        for delta in engine.process(update):
            live[_identity(graph, delta.composite)] += int(delta.sign)
        assert +live == _brute_force_join(graph, engine.executor.relations), (
            update.seq
        )


@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(join_cases(min_arrivals=40, max_arrivals=80), st.data())
def test_checkpoint_pickle_resumes_identically(case, data):
    graph, indexed, updates = case
    cut = data.draw(st.integers(1, len(updates) - 1))
    engine = ACaching(graph, indexed_attributes=indexed, config=_eager_tuning())
    live = Counter()
    for update in updates[:cut]:
        for delta in engine.process(update):
            live[_identity(graph, delta.composite)] += int(delta.sign)
    # recovery.cache_recovery="snapshot" pickles the whole engine: compiled
    # pipelines and probe plans must come back usable, rows keep their rids.
    restored = pickle.loads(pickle.dumps(engine, pickle.HIGHEST_PROTOCOL))
    for update in updates[cut:]:
        kept = engine.process(update)
        resumed = restored.process(update)
        assert [canonical_delta(d) for d in resumed] == [
            canonical_delta(d) for d in kept
        ]
        for delta in kept:
            live[_identity(graph, delta.composite)] += int(delta.sign)
    assert repr(restored.ctx.clock.now_us) == repr(engine.ctx.clock.now_us)
    assert restored.used_caches() == engine.used_caches()
    assert +live == _brute_force_join(graph, engine.executor.relations)
