"""Positional composites mean what their names say.

Inside a pipeline a joined tuple is a plain tuple of rows laid out in the
pipeline's order, a join step and a cache hit are one concatenation each,
and an output delta carries the row tuple with its layout. These
properties read everything back by relation name and compare it with
name-keyed references computed from the windows, on random join graphs
(index and scan plans, residual predicates) and on the one-class star
with a window of 4 and globally-consistent caches (anchor deletes and
last-witness consumption), through an A-Greedy reorder and a pickle →
resume mid-run. After every update:

* every output delta, read by name, is a row of the reference join of
  the update with the other windows, and together they are all of them;
* every cache entry, read by name, equals the recomputed segment join
  for its key (Definition 3.1); a globally-consistent entry lies between
  the anchor-semijoin-filtered segment join and the full one (§6);
* a cache lookup's spliced outputs are the tuples the bypassed join
  operators would have built.
"""

import itertools
import pickle
from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.caching.cache import Cache
from repro.caching.global_cache import GlobalCache
from repro.caching.key import CacheKey
from repro.core.acaching import ACaching
from repro.mjoin.executor import MJoinExecutor
from repro.operators.base import ExecContext
from repro.operators.cache_ops import CacheLookup
from repro.operators.pipeline import Pipeline
from repro.relations.predicates import JoinGraph
from repro.streams.tuples import CompositeTuple, Schema, layout_of
from tests.test_probe_plan_properties import (
    _eager_tuning,
    _windowed_updates,
    join_cases,
)


@st.composite
def one_class_stars(draw):
    """R0.A = Ri.A for every i: one equivalence class, window 4 (the
    shared ``_windowed_updates``), values 0..2 so keys collide."""
    count = draw(st.integers(3, 4))
    schemas = [Schema(f"R{i}", "A") for i in range(count)]
    graph = JoinGraph.parse(
        schemas, [f"R0.A = R{i}.A" for i in range(1, count)]
    )
    indexed = {
        schema.relation: ("A",) if draw(st.booleans()) else ()
        for schema in schemas
    }
    arrivals = draw(st.lists(
        st.tuples(st.integers(0, count - 1), st.integers(0, 2)),
        min_size=40, max_size=100,
    ))
    return graph, indexed, _windowed_updates(schemas, arrivals)


def _holds(graph, bound, predicates):
    return all(
        bound[p.left.relation].values[graph.attr_position(p.left)]
        == bound[p.right.relation].values[graph.attr_position(p.right)]
        for p in predicates
    )


def _joins(graph, relations, names, fixed=None):
    """Name-keyed combinations of live rows over ``names`` (``fixed``
    pins one relation to one row) satisfying every base predicate among
    them."""
    fixed = fixed or {}
    inside = [
        p for p in graph.base_predicates
        if p.left.relation in names and p.right.relation in names
    ]
    pools = [
        [fixed[name]] if name in fixed else list(relations[name].rows())
        for name in names
    ]
    for rows in itertools.product(*pools):
        bound = dict(zip(names, rows))
        if _holds(graph, bound, inside):
            yield bound


def _reference_delta(graph, relations, update):
    names = tuple(graph.relations)
    return Counter(
        tuple(bound[name].rid for name in names)
        for bound in _joins(
            graph, relations, names, {update.relation: update.row}
        )
    )


def _check_outputs(graph, update, deltas, expected):
    names = tuple(graph.relations)
    for delta in deltas:
        composite = delta.composite
        assert delta.sign is update.sign
        assert composite.relations() == frozenset(names)
        assert composite.row(update.relation) is update.row
    assert Counter(d.composite.identity(names) for d in deltas) == expected


def _check_caches(engine):
    graph = engine.executor.graph
    relations = engine.executor.relations
    wired = engine.reoptimizer.wiring.wired.values()
    stores = {id(w.cache): w.cache for w in wired}
    for cache in stores.values():
        segment = cache.segment
        layout = layout_of(segment)
        slots = cache.key.signature()   # segment-side (relation, position)
        for key, value in cache.store.entries():
            stored = {
                CompositeTuple(layout, rows).identity(segment)
                for rows in value.values()
            }
            assert len(stored) == len(value)
            full = {}
            for bound in _joins(graph, relations, segment):
                composite_key = tuple(
                    bound[rel].values[pos] for rel, pos in slots
                )
                if composite_key == key:
                    full[tuple(bound[r].rid for r in segment)] = bound
            if not isinstance(cache, GlobalCache):
                assert stored == set(full), (cache.name, key)
                continue
            assert stored <= set(full), (cache.name, key)
            names = segment + cache.anchor
            witnessed = {
                identity for identity, bound in full.items()
                if any(True for _ in _joins(graph, relations, names, bound))
            }
            assert witnessed <= stored, (cache.name, key)


# The path under test, kept past the patches below that wrap it.
THROUGH_CACHE = Pipeline._through_cache


def _checked_through_cache(splices):
    """``Pipeline._through_cache``, checked against the join operators it
    bypasses, run on a throwaway context."""

    def through_cache(self, lookup, composites, sign, ctx):
        joined = list(composites)
        for op in self.operators[lookup.start:lookup.end + 1]:
            joined = op.apply(joined, ExecContext())
        results = THROUGH_CACHE(self, lookup, composites, sign, ctx)
        assert all(len(r) == lookup.end + 2 for r in results)
        if isinstance(lookup.cache, GlobalCache):
            # A global entry may lack composites with no downstream
            # anchor witness; it never holds one the join would not build.
            assert not Counter(results) - Counter(joined)
        else:
            assert Counter(results) == Counter(joined)
        splices.append(len(results))
        return results

    return through_cache


@settings(
    max_examples=80, deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow, HealthCheck.function_scoped_fixture,
    ],
)
@given(
    case=st.one_of(
        join_cases(min_arrivals=30, max_arrivals=70), one_class_stars()
    ),
    data=st.data(),
)
def test_positional_composites_equal_name_keyed_references(
    case, data, monkeypatch
):
    graph, indexed, updates = case
    reorder_at = data.draw(st.integers(1, len(updates) - 1))
    resume_at = data.draw(st.integers(1, len(updates) - 1))
    owner = data.draw(st.sampled_from(graph.relations))
    engine = ACaching(
        graph, indexed_attributes=indexed, config=_eager_tuning()
    )
    order = engine.executor.order_of(owner)
    new_order = data.draw(st.permutations(order))
    splices = []
    monkeypatch.setattr(
        Pipeline, "_through_cache",
        _checked_through_cache(splices),
    )
    for index, update in enumerate(updates):
        if index == reorder_at and tuple(new_order) != order:
            # What an A-Greedy reorder does between two updates.
            engine.executor.reorder_pipeline(owner, new_order)
            engine.reoptimizer.on_reorder(owner)
        if index == resume_at:
            engine = pickle.loads(
                pickle.dumps(engine, pickle.HIGHEST_PROTOCOL)
            )
        expected = _reference_delta(graph, engine.executor.relations, update)
        _check_outputs(graph, update, engine.process(update), expected)
        _check_caches(engine)


def test_hit_splice_and_join_splice_build_identical_tuples(monkeypatch):
    """A cache hit (prefix + cached segment tuple) builds the tuples the
    join steps it bypasses (prefix + (row,), once per operator) build:
    the same rows in the pipeline's layout, in the entry's order."""
    schemas = [Schema(f"R{i}", "A") for i in range(3)]
    graph = JoinGraph.parse(schemas, ["R0.A = R1.A", "R0.A = R2.A"])
    executor = MJoinExecutor(graph, orders={"R0": ("R1", "R2")})
    key = CacheKey(graph, ("R0",), ("R1", "R2"))
    cache = Cache("c", "R0", ("R1", "R2"), key)
    pipeline = executor.pipelines["R0"]
    pipeline.attach_lookup(CacheLookup(cache, 0, 1))
    splices = []
    monkeypatch.setattr(
        Pipeline, "_through_cache",
        _checked_through_cache(splices),
    )
    updates = _windowed_updates(
        schemas, [(1, 1), (1, 1), (2, 1), (2, 1), (0, 1), (0, 1)]
    )
    for update in updates[:5]:
        executor.process(update)
    assert executor.ctx.metrics.cache_creates == 1
    probing = updates[5]
    deltas = executor.process(probing)
    assert executor.ctx.metrics.cache_hits == 1 and splices == [4, 4]
    (_, entry), = cache.store.entries()
    assert [d.rows for d in deltas] == [
        (probing.row,) + segment for segment in entry.values()
    ]
    joined = [(probing.row,)]
    for op in pipeline.operators:
        joined = op.apply(joined, ExecContext())
    assert Counter(d.rows for d in deltas) == Counter(joined)
    for delta in deltas:
        assert delta.layout is pipeline.layout
        assert [delta.composite.row(name) for name in pipeline.layout.names] \
            == list(delta.rows)


def test_shared_store_hits_are_laid_out_as_the_probing_pipeline(monkeypatch):
    """One store behind two lookups whose pipelines join its segment in
    opposite orders: the second pipeline's hit maps the stored tuples
    into its own layout, and equals what its join steps would build."""
    schemas = [Schema(f"R{i}", "A") for i in range(4)]
    graph = JoinGraph.parse(
        schemas, ["R0.A = R1.A", "R0.A = R2.A", "R0.A = R3.A"]
    )
    executor = MJoinExecutor(
        graph, orders={"R0": ("R1", "R2", "R3"), "R1": ("R0", "R3", "R2")}
    )
    cache = Cache(
        "c", "R0", ("R2", "R3"), CacheKey(graph, ("R0", "R1"), ("R2", "R3"))
    )
    executor.pipelines["R0"].attach_lookup(CacheLookup(cache, 1, 2))
    reversed_lookup = CacheLookup(
        cache, 1, 2, key=CacheKey(graph, ("R1", "R0"), ("R3", "R2"))
    )
    executor.pipelines["R1"].attach_lookup(reversed_lookup)
    assert reversed_lookup.from_store is not None
    splices = []
    monkeypatch.setattr(
        Pipeline, "_through_cache", _checked_through_cache(splices),
    )
    updates = _windowed_updates(
        schemas, [(2, 1), (2, 1), (3, 1), (3, 1), (1, 1), (0, 1), (1, 1)]
    )
    for update in updates[:6]:
        executor.process(update)
    assert executor.ctx.metrics.cache_creates == 1
    deltas = executor.process(updates[6])
    assert executor.ctx.metrics.cache_hits == 1 and len(deltas) == 4
    layout = executor.pipelines["R1"].layout
    for delta in deltas:
        assert delta.layout is layout
        for name, row in zip(layout.names, delta.rows):
            assert row in executor.relations[name].rows() or (
                row is updates[6].row
            )
            assert delta.composite.row(name) is row
