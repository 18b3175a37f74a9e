"""One lookup per distinct key: the grouped hot path equals the
one-composite-at-a-time path.

``JoinOperator.apply`` reads each distinct match set once per call
(inside a micro-batch: the batch memo once per distinct signature), and
``CacheUpdate.apply`` always reads each run of equal entry keys once,
while the clock still charges every composite as if it had gone alone
(DESIGN.md §7, "per call: one lookup per distinct key"). These tests feed
random windows and composite lists with repeated keys through both
paths, under a clock that records every charge, and require equal
outputs in order, equal charge sequences and equal cache contents, memo
contents and metrics. They also pin the batch-memo signature, which is
now built from slots fixed at construction, to the sorted tuple it
replaced.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.api import EngineConfig, Session
from repro.caching.cache import Cache
from repro.caching.global_cache import GlobalCache
from repro.caching.key import CacheKey
from repro.caching.store import LRUStore
from repro.core.acaching import ACaching
from repro.engine.clock import VirtualClock
from repro.operators.base import BatchProbeMemo, ExecContext
from repro.operators.cache_ops import CacheUpdate
from repro.operators.join_op import JoinOperator
from repro.parallel.bench import bench_tuning
from repro.relations.predicates import JoinGraph
from repro.relations.relation import Relation
from repro.scenarios.library import SCENARIOS, build_scenario_workload
from repro.streams.events import DeltaBatch, Sign
from repro.streams.tuples import RowFactory, Schema, layout_map
from repro.streams.workloads import fig9_workload, star_graph
from tests.test_probe_plan_properties import _eager_tuning, join_cases


class RecordingClock(VirtualClock):
    """A virtual clock that keeps every charged value, in order."""

    __slots__ = ("charges",)

    def __init__(self) -> None:
        super().__init__()
        self.charges = []

    def charge(self, microseconds: float) -> None:
        self.charges.append(microseconds)
        super().charge(microseconds)


def _ctx() -> ExecContext:
    return ExecContext(clock=RecordingClock())


# Few distinct values, so keys repeat.
small_values = st.integers(0, 2)


def _read_slots(composite, slots):
    """The values at ``(row, position)`` slots of a positional composite."""
    return tuple(composite[i].values[p] for i, p in slots)


# ----------------------------------------------------------------------
# the join step
# ----------------------------------------------------------------------
def _two_attribute_graph():
    return JoinGraph.parse(
        [Schema("R", ("A", "B")), Schema("T", ("A", "B"))],
        ["R.A = T.A", "R.B = T.B"],
    )


def _one_class_graph():
    # R.A = T.A and R.A = T.B: two attributes of T in R.A's class.
    return JoinGraph.parse(
        [Schema("R", ("A",)), Schema("T", ("A", "B"))],
        ["R.A = T.A", "R.A = T.B"],
    )


# name -> (graph, prior, target, indexed target attributes)
JOIN_CASES = {
    "index_with_residual": (_two_attribute_graph, ("R",), "T", ("A",)),
    "scan_with_residuals": (_two_attribute_graph, ("R",), "T", ()),
    "two_target_attributes_one_class": (
        _one_class_graph, ("R",), "T", ("A", "B"),
    ),
    # The prior side holds two attributes of one relation in the class.
    "two_prior_attributes_one_relation": (
        _one_class_graph, ("T",), "R", ("A",),
    ),
    "two_prior_attributes_one_relation_scan": (
        _one_class_graph, ("T",), "R", (),
    ),
    "star_index": (lambda: star_graph(3), ("R1", "R2"), "R3", ("A",)),
    "star_scan": (lambda: star_graph(3), ("R1", "R2"), "R3", ()),
}


def _operator(name):
    make_graph, prior, target, indexed = JOIN_CASES[name]
    graph = make_graph()
    relation = Relation(graph.schemas[target], indexed)
    return graph, JoinOperator(graph, prior, target).bind(relation)


def _rows_of(graph, relation, factory, draw):
    width = len(graph.schemas[relation].attributes)
    return factory.make(tuple(draw(small_values) for _ in range(width)))


def _draw_composites(graph, operator, factory, draw, min_size=2):
    """Composites laid out as the operator's prior relations; few
    distinct values, so keys repeat, and some composites are reused."""
    composites = []
    for _ in range(draw(st.integers(min_size, 10))):
        if composites and draw(st.booleans()):
            composites.append(draw(st.sampled_from(composites)))
            continue
        composites.append(tuple(
            _rows_of(graph, relation, factory, draw)
            for relation in operator.prior
        ))
    return composites


@pytest.mark.parametrize("name", sorted(JOIN_CASES))
@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_grouped_join_equals_one_at_a_time(name, data, monkeypatch):
    graph, operator = _operator(name)
    factory = RowFactory()
    for _ in range(data.draw(st.integers(0, 8))):
        operator.relation.insert(
            _rows_of(graph, operator.target, factory, data.draw)
        )
    composites = _draw_composites(graph, operator, factory, data.draw)

    reads = []
    matching = Relation.matching

    def counted(self, attribute, value):
        reads.append(value)
        return matching(self, attribute, value)

    monkeypatch.setattr(Relation, "matching", counted)
    grouped_ctx, alone_ctx = _ctx(), _ctx()
    grouped = operator.apply(composites, grouped_ctx)
    grouped_reads = len(reads)
    alone = []
    for composite in composites:
        alone += operator.apply([composite], alone_ctx)

    assert grouped == alone
    assert grouped_ctx.clock.charges == alone_ctx.clock.charges
    assert repr(grouped_ctx.clock.now_us) == repr(alone_ctx.clock.now_us)
    plan = operator.probe_plan()
    if plan.index_attribute is None:
        assert grouped_reads == 0
    else:
        signatures = {
            _read_slots(
                composite,
                [(plan.probe_index, plan.probe_position)]
                + [(i, p) for _, i, p in plan.residuals],
            )
            for composite in composites
        }
        assert grouped_reads == len(signatures)


def test_star_fan_out_reads_the_index_once(monkeypatch):
    """Every composite of one star update carries the same ``A``: one
    index read per operator call, however many composites it takes."""
    graph = star_graph(3)
    relation = Relation(graph.schemas["R3"], ("A",))
    factory = RowFactory()
    for value in (5, 5, 5, 6):
        relation.insert(factory.make((value,)))
    operator = JoinOperator(graph, ("R1", "R2"), "R3").bind(relation)
    r1 = factory.make((5,))
    composites = [(r1, factory.make((5,))) for _ in range(4)]
    reads = []
    matching = Relation.matching
    monkeypatch.setattr(
        Relation, "matching",
        lambda self, attribute, value: reads.append(value)
        or matching(self, attribute, value),
    )
    ctx = _ctx()
    outputs = operator.apply(composites, ctx)
    assert reads == [5]
    assert len(outputs) == 12
    cm = ctx.cost_model
    # Index probe, the one collapsed residual on 3 rows, 3 matches: for
    # every composite, as if each had probed alone.
    assert ctx.clock.charges == [
        cm.index_probe, cm.predicate_eval * 3 * 1, cm.per_match * 3,
    ] * len(composites)


# ----------------------------------------------------------------------
# maintenance taps
# ----------------------------------------------------------------------
def _chain_graph():
    return JoinGraph.parse(
        [Schema("R", ("A",)), Schema("S", ("A", "B")), Schema("T", ("B",))],
        ["R.A = S.A", "S.B = T.B"],
    )


def _plain_cache(graph, lru):
    # Segment (S, R) probed from T: the entry key is S.B.
    key = CacheKey(graph, ("T",), ("S", "R"))
    store = LRUStore(3) if lru else None
    return Cache("c", "T", ("S", "R"), key, buckets=4, store=store)


def _global_cache(graph, lru):
    # Segment (S, T) anchored on R, probed from R: the entry key is S.A.
    key = CacheKey(graph, ("R",), ("S", "T"))
    store = LRUStore(3) if lru else None
    return GlobalCache(
        "g", "R", ("S", "T"), key, anchor=("R",), buckets=4, store=store
    )


# The tap composites below are laid out as (S, T, R); the tap projects
# them onto the cache's layout.
FULL = ("S", "T", "R")


def _full(factory, a, b):
    """A tap composite binding S, T and R."""
    return (
        factory.make((a, b)), factory.make((b,)), factory.make((a,))
    )


def _tap(cache, owner):
    tap = CacheUpdate(cache, 0, owner)
    tap.bind_layout(FULL)
    return tap


def _contents(cache):
    return [
        (key, dict(value)) for key, value in cache.store.entries()
    ], cache.memory_bytes, getattr(cache, "invalidations", 0)


def _maintain_both(make, entries, composites, sign, owner):
    """The grouped tap call and the one-composite-per-call reference, on
    two caches created alike; returns both contexts and caches."""
    graph = _chain_graph()
    caches = [make(graph), make(graph)]
    for cache in caches:
        for key, composites_at in entries:
            cache.create(key, composites_at)
    grouped_ctx, alone_ctx = _ctx(), _ctx()
    _tap(caches[0], owner).apply(composites, sign, grouped_ctx)
    alone_tap = _tap(caches[1], owner)
    for composite in composites:
        alone_tap.apply([composite], sign, alone_ctx)
    return (grouped_ctx, caches[0]), (alone_ctx, caches[1])


def _assert_same(grouped, alone):
    (grouped_ctx, grouped_cache), (alone_ctx, alone_cache) = grouped, alone
    assert grouped_ctx.clock.charges == alone_ctx.clock.charges
    assert (
        grouped_ctx.metrics.cache_maintenance_calls
        == alone_ctx.metrics.cache_maintenance_calls
    )
    # Same entries, same values, same (LRU) order, same accounting.
    assert _contents(grouped_cache) == _contents(alone_cache)


@pytest.mark.parametrize("kind", ["plain", "global"])
@pytest.mark.parametrize("lru", [False, True], ids=["direct", "lru"])
@pytest.mark.parametrize(
    "sign", [Sign.INSERT, Sign.DELETE], ids=lambda sign: sign.name
)
@pytest.mark.parametrize("owner", ["R", "S"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_grouped_maintenance_equals_one_at_a_time(
    kind, lru, sign, owner, data
):
    factory = RowFactory()
    if kind == "plain":
        segment = ("S", "R")

        def make(graph):
            return _plain_cache(graph, lru)
    else:
        segment = ("S", "T")

        def make(graph):
            return _global_cache(graph, lru)

    entry_key = make(_chain_graph()).key.entry_key
    project = layout_map(FULL, segment)
    # Few distinct values, so keys repeat, often in runs; some composites
    # come twice (a second delete of one identity finds it gone).
    composites = []
    for _ in range(data.draw(st.integers(2, 12))):
        if composites and data.draw(st.booleans()):
            composites.append(data.draw(st.sampled_from(composites)))
        else:
            a, b = data.draw(small_values), data.draw(small_values)
            composites.append(_full(factory, a, b))
    # Entries for some of the keys, holding some of the deltas already.
    entries = []
    for key in sorted({entry_key(project(c)) for c in composites}):
        if data.draw(st.booleans()):
            held = {
                project(c): None for c in composites
                if entry_key(project(c)) == key and data.draw(st.booleans())
            }
            entries.append((key, list(held)))
    grouped, alone = _maintain_both(make, entries, composites, sign, owner)
    _assert_same(grouped, alone)


def test_anchor_delete_inside_a_same_key_run():
    """The first delete of the run invalidates the entry; the rest of the
    run, and a later composite of that key, find no entry."""
    factory = RowFactory()
    composites = [
        _full(factory, 1, 0),
        _full(factory, 2, 0), _full(factory, 2, 1), _full(factory, 2, 2),
        _full(factory, 3, 0),
        _full(factory, 2, 0),
    ]
    entries = [((1,), []), ((2,), [composites[1][:2]])]  # its (S, T)
    grouped, alone = _maintain_both(
        lambda graph: _global_cache(graph, False),
        entries, composites, Sign.DELETE, "R",
    )
    _assert_same(grouped, alone)
    ctx, cache = grouped
    assert cache.invalidations == 2 and cache.entry_count == 0
    check, maintain = ctx.cost_model.cache_maintain_check, (
        ctx.cost_model.cache_maintain
    )
    assert ctx.clock.charges == [
        check, maintain, check, maintain, check, check, check, check,
    ]


def test_micro_batch_checks_each_distinct_key_once():
    """Inside a micro-batch the same deltas share one check per distinct
    entry key; each applied delta still pays its own maintain charge."""
    factory = RowFactory()
    graph = _chain_graph()
    cache = _global_cache(graph, False)
    composites = [
        _full(factory, 1, 0),
        _full(factory, 2, 0), _full(factory, 2, 1),
        _full(factory, 3, 0),
        _full(factory, 2, 2),
    ]
    cache.create((1,), [])
    cache.create((2,), [composites[1][:2]])  # its (S, T)
    ctx = _ctx()
    ctx.probe_memo = BatchProbeMemo()
    _tap(cache, "R").apply(composites, Sign.DELETE, ctx)
    check, maintain = ctx.cost_model.cache_maintain_check, (
        ctx.cost_model.cache_maintain
    )
    assert ctx.clock.charges == [check, maintain, check, maintain, check]
    assert ctx.metrics.cache_maintenance_calls == len(composites)
    assert cache.invalidations == 2 and cache.entry_count == 0


# ----------------------------------------------------------------------
# the batch-memo signature
# ----------------------------------------------------------------------
def _sorted_signature(operator, composite):
    """The signature as it was built before it was precomputed."""
    return tuple(sorted([
        (
            b.target_position,
            composite[operator.prior.index(b.prior_relation)]
            .values[b.prior_position],
        )
        for b in operator._bound
    ]))


def _recorded_inputs(monkeypatch):
    """Patch ``JoinOperator.apply`` to keep (operator, composite) inputs."""
    seen = []
    apply = JoinOperator.apply

    def recording(self, composites, ctx):
        seen.extend((self, composite) for composite in composites)
        return apply(self, composites, ctx)

    monkeypatch.setattr(JoinOperator, "apply", recording)
    return seen


MEMO_WORKLOADS = {
    "fig9_star6": lambda: fig9_workload(6, window=48),
    "delete_storm": lambda: build_scenario_workload(
        SCENARIOS["delete_storm"], 1_500
    ),
}


@pytest.mark.parametrize("name", sorted(MEMO_WORKLOADS))
@pytest.mark.parametrize("batch_size", [1, 16])
def test_memo_signature_equals_sorted_pairs(name, batch_size, monkeypatch):
    workload = MEMO_WORKLOADS[name]()
    seen = _recorded_inputs(monkeypatch)
    session = Session.adaptive(
        workload, EngineConfig(tuning=bench_tuning(), batch_size=batch_size)
    )
    session.run(workload.updates(1_500))
    monkeypatch.undo()
    operators = Counter()
    for operator, composite in seen:
        assert operator.memo_signature(composite) == _sorted_signature(
            operator, composite
        )
        operators[operator.target, operator.prior] += 1
    # Operators of every pipeline were checked, on many composites.
    relations = session.plan.executor.graph.relations
    assert {target for target, _ in operators} == set(relations)
    assert len(seen) > 1_000


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow, HealthCheck.function_scoped_fixture,
    ],
)
@given(case=join_cases(min_arrivals=30, max_arrivals=60))
def test_memo_signature_on_random_graphs(case, monkeypatch):
    graph, indexed, updates = case
    seen = _recorded_inputs(monkeypatch)
    engine = ACaching(
        graph, indexed_attributes=indexed, config=_eager_tuning()
    )
    try:
        for update in updates:
            engine.process(update)
    finally:
        monkeypatch.undo()
    for operator, composite in seen:
        assert operator.memo_signature(composite) == _sorted_signature(
            operator, composite
        )


# ----------------------------------------------------------------------
# the join step inside a micro-batch
# ----------------------------------------------------------------------
def _memo_loop(operator, composites, ctx):
    """Reference: one memo read per composite, as the micro-batch join
    step ran before it grouped composites by signature."""
    plan = operator.probe_plan()
    memo, cm, charge = ctx.probe_memo, ctx.cost_model, ctx.clock.charge
    target = operator.target
    outputs = []
    for composite in composites:
        signature = operator.memo_signature(composite)
        matches = memo.get(target, signature)
        if matches is not None:
            charge(cm.batch_memo_hit)
        else:
            matches = operator._matches(composite, plan, cm, charge)
            memo.put(target, signature, matches)
        charge(cm.per_match * len(matches))
        outputs += [composite + (row,) for row in matches]
    return outputs


class CountingMemo(BatchProbeMemo):
    """A batch memo that counts its reads."""

    __slots__ = ("reads",)

    def __init__(self) -> None:
        super().__init__()
        self.reads = 0

    def get(self, target, signature):
        self.reads += 1
        return super().get(target, signature)


def _holds_invariant(graph, relations, composite):
    """Whether ``composite`` satisfies every join predicate among the
    ``relations`` it binds."""
    for i, target in enumerate(relations[1:], 1):
        for pred in graph.predicates_between(relations[:i], target):
            sides = (pred.side_for(target), pred.other_side(target))
            left, right = (
                composite[relations.index(ref.relation)]
                .values[graph.attr_position(ref)]
                for ref in sides
            )
            if left != right:
                return False
    return True


def _memo_copy(memo):
    copy = CountingMemo()
    copy._by_target = {
        target: dict(entries) for target, entries in memo._by_target.items()
    }
    copy.hits, copy.misses = memo.hits, memo.misses
    return copy


def _memo_state(memo):
    return memo._by_target, memo.hits, memo.misses


# The path under test, kept past the patches below that wrap it.
GROUPED_APPLY = JoinOperator.apply


def _assert_grouped_memo_equals_loop(operator, composites, memo, cost_model):
    """The grouped path and the reference loop, each on a copy of
    ``memo``, give equal outputs, charges and memo state, and the grouped
    path reads the memo once per distinct ``plan.slots`` signature."""
    grouped_ctx, loop_ctx = (
        ExecContext(
            clock=RecordingClock(), cost_model=cost_model,
            probe_memo=_memo_copy(memo),
        )
        for _ in range(2)
    )
    grouped = GROUPED_APPLY(operator, composites, grouped_ctx)
    expected = _memo_loop(operator, composites, loop_ctx)
    assert grouped == expected
    assert grouped_ctx.clock.charges == loop_ctx.clock.charges
    assert repr(grouped_ctx.clock.now_us) == repr(loop_ctx.clock.now_us)
    assert _memo_state(grouped_ctx.probe_memo) == _memo_state(
        loop_ctx.probe_memo
    )
    slots = operator.probe_plan().slots
    assert grouped_ctx.probe_memo.reads == len(
        {_read_slots(composite, slots) for composite in composites}
    )


@pytest.mark.parametrize("name", sorted(JOIN_CASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_grouped_memo_equals_per_composite_loop(name, data):
    graph, operator = _operator(name)
    factory = RowFactory()
    for _ in range(data.draw(st.integers(0, 8))):
        operator.relation.insert(
            _rows_of(graph, operator.target, factory, data.draw)
        )
    # Composites an earlier update of the batch joined: some of the
    # call's groups find their signature in the memo already.
    memo = BatchProbeMemo()
    earlier = _draw_composites(graph, operator, factory, data.draw, 0)
    _memo_loop(operator, earlier, ExecContext(probe_memo=memo))
    # Only composites that hold the composite invariant reach a join.
    composites = [
        composite
        for composite in _draw_composites(graph, operator, factory, data.draw)
        if _holds_invariant(graph, operator.prior, composite)
    ]
    assume(len(composites) >= 2)
    _assert_grouped_memo_equals_loop(
        operator, composites, memo, ExecContext().cost_model
    )


def test_memo_read_once_per_group_and_empty_sets_hit():
    """A group whose signature an earlier update stored hits on its first
    composite; an empty match set is memoized and hits like any other."""
    graph = star_graph(3)
    relation = Relation(graph.schemas["R3"], ("A",))
    factory = RowFactory()
    for value in (5, 5, 6):
        relation.insert(factory.make((value,)))
    operator = JoinOperator(graph, ("R1", "R2"), "R3").bind(relation)

    def composite(value):
        return (factory.make((value,)), factory.make((value,)))

    memo = BatchProbeMemo()
    ctx = ExecContext(clock=RecordingClock(), probe_memo=memo)
    operator.apply([composite(5)], ctx)
    assert (memo.hits, memo.misses) == (0, 1)
    composites = [composite(v) for v in (5, 7, 5, 7, 7)]
    _assert_grouped_memo_equals_loop(
        operator, composites, memo, ctx.cost_model
    )
    ctx.clock.charges.clear()
    outputs = operator.apply(composites, ctx)
    assert len(outputs) == 4
    cm = ctx.cost_model
    hit, probe, residual = (
        cm.batch_memo_hit, cm.index_probe, cm.predicate_eval
    )
    assert ctx.clock.charges == [
        hit, cm.per_match * 2,      # stored by the earlier update
        probe, residual * 0, 0.0,   # 7: a miss with no rows
        hit, cm.per_match * 2,
        hit, 0.0,                   # the empty set is a hit
        hit, 0.0,
    ]
    assert (memo.hits, memo.misses) == (4, 2)
    assert memo.get("R3", operator.memo_signature(composite(7))) == []


def _checked_memo_calls(monkeypatch):
    """Patch ``JoinOperator.apply`` so that every micro-batch call is
    first checked against the reference loop; returns the list of checked
    calls' sizes."""
    checked = []
    apply = JoinOperator.apply

    def checking(self, composites, ctx):
        if ctx.probe_memo is not None:
            _assert_grouped_memo_equals_loop(
                self, composites, ctx.probe_memo, ctx.cost_model
            )
            checked.append(len(composites))
        return apply(self, composites, ctx)

    monkeypatch.setattr(JoinOperator, "apply", checking)
    return checked


@pytest.mark.parametrize("name", sorted(MEMO_WORKLOADS))
def test_live_memo_calls_equal_per_composite_loop(name, monkeypatch):
    workload = MEMO_WORKLOADS[name]()
    checked = _checked_memo_calls(monkeypatch)
    session = Session.adaptive(
        workload, EngineConfig(tuning=bench_tuning(), batch_size=16)
    )
    session.run(workload.updates(1_500))
    monkeypatch.undo()
    assert len(checked) > 1_000
    # delete_storm's updates fan out too little for a call to carry two
    # composites; Fig 9's star carries several per call.
    assert name == "delete_storm" or sum(n > 1 for n in checked) > 100


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow, HealthCheck.function_scoped_fixture,
    ],
)
@given(
    case=join_cases(min_arrivals=30, max_arrivals=60),
    batch_size=st.integers(2, 16),
)
def test_memo_grouping_on_random_graphs(case, batch_size, monkeypatch):
    graph, indexed, updates = case
    _checked_memo_calls(monkeypatch)
    engine = ACaching(
        graph, indexed_attributes=indexed, config=_eager_tuning()
    )
    try:
        for start in range(0, len(updates), batch_size):
            engine.process_batch(DeltaBatch(updates[start:start + batch_size]))
    finally:
        monkeypatch.undo()
