"""Tests for cache key construction (Kijk) and sharing identity."""

import pytest

from repro.caching.key import CacheKey
from repro.errors import PlanError
from repro.relations.predicates import JoinGraph
from repro.streams.tuples import RowFactory, Schema
from repro.streams.workloads import star_graph


def chain_graph():
    return JoinGraph.parse(
        [Schema("R", ("A",)), Schema("S", ("A", "B")), Schema("T", ("B",))],
        ["R.A = S.A", "S.B = T.B"],
    )


class TestChainKeys:
    def test_key_for_rs_segment_in_t_pipeline(self):
        graph = chain_graph()
        key = CacheKey(graph, ("T",), ("S", "R"))
        # Only S.B = T.B crosses; probe from the T side, store by S side.
        assert key.width == 1
        rows = RowFactory()
        t = rows.make((42,))
        assert key.probe_value((t,)) == (42,)
        s = rows.make((1, 42))
        r = rows.make((1,))
        assert key.entry_key((s, r)) == (42,)  # laid out as (S, R)

    def test_keyless_segment_rejected(self):
        graph = chain_graph()
        with pytest.raises(PlanError, match="empty"):
            CacheKey(graph, ("R",), ("T",))  # R and T share no predicate


class TestStarKeys:
    def test_multi_component_key(self):
        graph = star_graph(4)
        key = CacheKey(graph, ("R4",), ("R1", "R2"))
        # Closure gives R4-R1 and R4-R2 predicates: two components.
        assert key.width == 2
        rows = RowFactory()
        probe = (rows.make((9,)),)
        assert key.probe_value(probe) == (9, 9)

    def test_shared_signature_across_pipelines(self):
        graph = star_graph(4)
        key_a = CacheKey(graph, ("R3",), ("R1", "R2"))
        key_b = CacheKey(graph, ("R4",), ("R1", "R2"))
        # Same segment, same (segment-side) key: shared per Definition 4.1.
        assert key_a.signature() == key_b.signature()

    def test_entry_keys_agree_for_shared_caches(self):
        graph = star_graph(4)
        key_a = CacheKey(graph, ("R3",), ("R1", "R2"))
        key_b = CacheKey(graph, ("R4",), ("R2", "R1"))  # reversed order
        rows = RowFactory()
        r1 = rows.make((5,))
        r2 = rows.make((5,))
        # Each key reads a segment tuple laid out in its own order.
        assert key_a.entry_key((r1, r2)) == key_b.entry_key((r2, r1))

    def test_prefix_slots_exposed(self):
        graph = star_graph(4)
        key = CacheKey(graph, ("R4",), ("R1", "R2"))
        assert all(rel == "R4" for rel, _pos in key.prefix_slots)


class TestClassWithTwoAttributesOfOneRelation:
    def graph(self):
        # R.A = T.A and R.A = T.B: one class holds two attributes of T.
        return JoinGraph.parse(
            [Schema("R", ("A",)), Schema("T", ("A", "B"))],
            ["R.A = T.A", "R.A = T.B"],
        )

    def test_single_prefix_relation_keeps_both_attributes(self):
        # In ∆T's pipeline nothing has compared T.A with T.B, so the key
        # needs both: a probe with T.A != T.B must not hit R.A's entry.
        key = CacheKey(self.graph(), ("T",), ("R",))
        assert key.width == 2
        rows = RowFactory()
        entry = key.entry_key((rows.make((5,)),))
        assert key.probe_value((rows.make((5, 5)),)) == entry
        assert key.probe_value((rows.make((5, 6)),)) != entry

    def test_two_prefix_relations_dedupe_to_one_component(self):
        # Star: R3.A equals R1.A and R2.A, which upstream made equal.
        key = CacheKey(star_graph(3), ("R1", "R2"), ("R3",))
        assert key.width == 1
