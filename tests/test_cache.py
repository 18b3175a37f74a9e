"""Unit tests for Cache and GlobalCache semantics."""

import pytest

from repro.caching.cache import Cache
from repro.caching.global_cache import GlobalCache
from repro.caching.key import CacheKey
from repro.caching.store import DirectMappedStore
from repro.relations.predicates import JoinGraph
from repro.streams.tuples import RowFactory, Schema


def chain_graph():
    return JoinGraph.parse(
        [Schema("R", ("A",)), Schema("S", ("A", "B")), Schema("T", ("B",))],
        ["R.A = S.A", "S.B = T.B"],
    )


@pytest.fixture
def graph():
    return chain_graph()


@pytest.fixture
def rows():
    return RowFactory()


def make_cache(graph, buckets=64):
    key = CacheKey(graph, prefix_relations=("T",), segment_relations=("S", "R"))
    return Cache("c", "T", ("S", "R"), key, buckets=buckets)


def seg_composite(rows, a, b):
    """A segment tuple, laid out as the cache's segment (S, R)."""
    s = rows.make((a, b))
    r = rows.make((a,))
    return (s, r)


class TestCacheProbeCreate:
    def test_miss_then_hit(self, graph, rows):
        cache = make_cache(graph)
        t_row = rows.make((7,))
        probe = (t_row,)
        key, values = cache.probe(probe)
        assert values is None
        composite = seg_composite(rows, a=1, b=7)
        cache.create(key, [composite])
        key2, values2 = cache.probe(probe)
        assert key2 == key
        assert list(values2) == [composite]
        assert cache.probes == 2 and cache.hits == 1

    def test_empty_entry_is_a_hit(self, graph, rows):
        cache = make_cache(graph)
        probe = (rows.make((9,)),)
        key, _ = cache.probe(probe)
        cache.create(key, [])
        _, values = cache.probe(probe)
        assert list(values) == []

    def test_observed_miss_prob(self, graph, rows):
        cache = make_cache(graph)
        probe = (rows.make((1,)),)
        key, _ = cache.probe(probe)  # miss
        cache.create(key, [])
        cache.probe(probe)  # hit
        assert cache.observed_miss_prob == pytest.approx(0.5)
        cache.reset_counters()
        assert cache.observed_miss_prob == 1.0


class TestCacheMaintenance:
    def test_insert_into_present_key(self, graph, rows):
        cache = make_cache(graph)
        probe = (rows.make((7,)),)
        key, _ = cache.probe(probe)
        cache.create(key, [])
        new_seg = seg_composite(rows, a=1, b=7)
        assert cache.maintain_insert(new_seg)
        _, values = cache.probe(probe)
        assert list(values) == [new_seg]

    def test_insert_on_absent_key_ignored(self, graph, rows):
        cache = make_cache(graph)
        assert not cache.maintain_insert(seg_composite(rows, a=1, b=99))
        assert cache.entry_count == 0

    def test_delete_removes_exact_composite(self, graph, rows):
        cache = make_cache(graph)
        probe = (rows.make((7,)),)
        key, _ = cache.probe(probe)
        a = seg_composite(rows, a=1, b=7)
        b = seg_composite(rows, a=2, b=7)
        cache.create(key, [a, b])
        cache.maintain_delete(a)
        _, values = cache.probe(probe)
        assert list(values) == [b]

    def test_delete_is_idempotent(self, graph, rows):
        cache = make_cache(graph)
        probe = (rows.make((7,)),)
        key, _ = cache.probe(probe)
        a = seg_composite(rows, a=1, b=7)
        cache.create(key, [a])
        cache.maintain_delete(a)
        cache.maintain_delete(a)  # second call is a no-op
        _, values = cache.probe(probe)
        assert list(values) == []


class TestCacheMemoryAccounting:
    def test_bytes_track_contents(self, graph, rows):
        cache = make_cache(graph)
        assert cache.memory_bytes == 0
        probe = (rows.make((7,)),)
        key, _ = cache.probe(probe)
        cache.create(key, [seg_composite(rows, a=1, b=7)])
        after_create = cache.memory_bytes
        assert after_create > 0
        cache.maintain_insert(seg_composite(rows, a=2, b=7))
        assert cache.memory_bytes > after_create
        cache.drop_all()
        assert cache.memory_bytes == 0
        assert cache.entry_count == 0

    def test_same_key_recreate_does_not_leak(self, graph, rows):
        cache = make_cache(graph)
        probe = (rows.make((7,)),)
        key, _ = cache.probe(probe)
        cache.create(key, [seg_composite(rows, a=1, b=7)])
        size = cache.memory_bytes
        cache.create(key, [seg_composite(rows, a=1, b=7)])
        assert cache.memory_bytes == size

    def test_direct_mapped_eviction_accounted(self, graph, rows):
        cache = make_cache(graph, buckets=1)
        p1 = (rows.make((1,)),)
        p2 = (rows.make((2,)),)
        k1, _ = cache.probe(p1)
        cache.create(k1, [seg_composite(rows, a=1, b=1)])
        k2, _ = cache.probe(p2)
        cache.create(k2, [seg_composite(rows, a=1, b=2)])
        assert cache.entry_count == 1  # collision replaced
        cache.invalidate(k2)
        assert cache.memory_bytes == 0

    def test_invalidate(self, graph, rows):
        cache = make_cache(graph)
        probe = (rows.make((7,)),)
        key, _ = cache.probe(probe)
        cache.create(key, [seg_composite(rows, a=1, b=7)])
        assert cache.invalidate(key)
        assert not cache.invalidate(key)
        assert cache.memory_bytes == 0


class TestGlobalCache:
    def make(self, graph, rows):
        key = CacheKey(graph, prefix_relations=("R",), segment_relations=("S", "T"))
        return GlobalCache(
            "g", "R", ("S", "T"), key, anchor=("R",), buckets=64
        )

    def segment_tuple(self, rows, a, b):
        """An (S, T) segment tuple: a tap's (S, T, R) delta projected onto
        the cache's layout, which is what the tap hands the cache."""
        return (rows.make((a, b)), rows.make((b,)))

    def test_anchor_disjoint_from_segment(self, graph):
        key = CacheKey(graph, ("R",), ("S", "T"))
        with pytest.raises(ValueError):
            GlobalCache("g", "R", ("S", "T"), key, anchor=("S",))

    def test_segment_insert_repairs_entry(self, graph, rows):
        cache = self.make(graph, rows)
        probe = (rows.make((5,)),)
        key, _ = cache.probe(probe)
        cache.create(key, [])
        seg = self.segment_tuple(rows, a=5, b=2)
        assert cache.maintain_insert(seg, "S")
        _, values = cache.probe(probe)
        assert list(values) == [seg]

    def test_anchor_delete_invalidates_whole_entry(self, graph, rows):
        cache = self.make(graph, rows)
        probe = (rows.make((5,)),)
        key, _ = cache.probe(probe)
        seg = self.segment_tuple(rows, a=5, b=2)
        cache.create(key, [seg])
        assert cache.maintain_delete(seg, "R")
        assert cache.invalidations == 1
        _, values = cache.probe(probe)
        assert values is None  # entry gone → miss

    def test_segment_delete_removes_composite_only(self, graph, rows):
        cache = self.make(graph, rows)
        probe = (rows.make((5,)),)
        key, _ = cache.probe(probe)
        seg_a = self.segment_tuple(rows, a=5, b=2)
        seg_b = self.segment_tuple(rows, a=5, b=3)
        cache.create(key, [seg_a, seg_b])
        cache.maintain_delete(seg_a, "S")
        _, values = cache.probe(probe)
        assert list(values) == [seg_b]

    def test_maintenance_relations(self, graph, rows):
        cache = self.make(graph, rows)
        assert set(cache.maintenance_relations) == {"S", "T", "R"}
