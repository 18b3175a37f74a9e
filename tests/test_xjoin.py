"""Tests for join-tree enumeration and the XJoin executor."""

import pytest

from repro.engine.drive import drive
from repro.errors import PlanError
from repro.relations.predicates import JoinGraph
from repro.streams.tuples import Schema
from repro.streams.workloads import star_graph, three_way_chain
from repro.xjoin.executor import SubresultStore, XJoinExecutor
from repro.xjoin.tree import (
    Inner,
    Leaf,
    canonical,
    enumerate_trees,
    inner_nodes,
    leaves,
    left_deep,
)


def chain_graph():
    return JoinGraph.parse(
        [Schema("R", ("A",)), Schema("S", ("A", "B")), Schema("T", ("B",))],
        ["R.A = S.A", "S.B = T.B"],
    )


class TestTreeStructure:
    def test_left_deep(self):
        tree = left_deep(["R", "S", "T"])
        assert isinstance(tree, Inner)
        assert tree.relations == {"R", "S", "T"}
        assert [leaf.relation for leaf in leaves(tree)] == ["R", "S", "T"]

    def test_left_deep_empty(self):
        with pytest.raises(PlanError):
            left_deep([])

    def test_inner_nodes_children_first(self):
        tree = left_deep(["R", "S", "T"])
        nodes = inner_nodes(tree)
        assert len(nodes) == 2
        assert nodes[-1] is tree

    def test_canonical_ignores_child_order(self):
        a = Inner(Leaf("R"), Leaf("S"))
        b = Inner(Leaf("S"), Leaf("R"))
        assert canonical(a) == canonical(b)


class TestEnumeration:
    def test_chain_has_two_trees(self):
        # R-S-T chain: only (R⋈S)⋈T and R⋈(S⋈T); R⋈T is a cross product.
        trees = enumerate_trees(chain_graph())
        assert len(trees) == 2

    def test_star_has_all_fifteen(self):
        # All 15 unordered binary trees over 4 leaves connect in a star
        # (transitive closure equates every pair on A).
        trees = enumerate_trees(star_graph(4))
        assert len(trees) == 15

    def test_trees_cover_all_relations(self):
        for tree in enumerate_trees(star_graph(4)):
            assert tree.relations == {"R1", "R2", "R3", "R4"}

    def test_no_duplicate_shapes(self):
        trees = enumerate_trees(star_graph(4))
        shapes = {canonical(t) for t in trees}
        assert len(shapes) == len(trees)


class TestSubresultStore:
    def test_add_lookup_remove(self):
        from repro.streams.tuples import CompositeTuple, RowFactory

        rows = RowFactory()
        store = SubresultStore(["R", "S"], indexed_slots=[("S", 1)])
        s = rows.make((1, 7))
        r = rows.make((1,))
        composite = CompositeTuple.of("R", r).extended("S", s)
        store.add(composite)
        assert store.lookup("S", 1, 7) == [composite]
        assert store.lookup("S", 1, 8) == []
        assert len(store) == 1
        assert store.memory_bytes > 0
        store.remove(composite)
        assert store.lookup("S", 1, 7) == []
        assert store.memory_bytes == 0

    def test_unindexed_lookup_returns_none(self):
        store = SubresultStore(["R"], indexed_slots=[])
        assert store.lookup("R", 0, 5) is None

    def test_remove_absent_is_noop(self):
        from repro.streams.tuples import CompositeTuple, RowFactory

        rows = RowFactory()
        store = SubresultStore(["R"], indexed_slots=[("R", 0)])
        store.remove(CompositeTuple.of("R", rows.make((1,))))
        assert len(store) == 0


class TestXJoinExecutor:
    def test_tree_must_cover_relations(self):
        workload = three_way_chain()
        with pytest.raises(PlanError):
            XJoinExecutor(workload.graph, left_deep(["R", "S"]))

    @pytest.mark.parametrize("order", [["R", "S", "T"], ["T", "S", "R"]])
    def test_matches_mjoin_outputs(self, order):
        from repro.mjoin.executor import MJoinExecutor

        def norm(outputs):
            return sorted(
                (
                    int(o.sign),
                    tuple(
                        sorted(
                            (rel, o.composite.row(rel).rid)
                            for rel in o.composite
                        )
                    ),
                )
                for o in outputs
            )

        workload = three_way_chain(t_multiplicity=2.0, window_r=16, window_s=16)
        xjoin = XJoinExecutor(workload.graph, left_deep(order))
        x_out = drive(xjoin, workload.updates(800))
        workload2 = three_way_chain(
            t_multiplicity=2.0, window_r=16, window_s=16
        )
        mjoin = MJoinExecutor(workload2.graph)
        m_out = drive(mjoin, workload2.updates(800))
        assert norm(x_out) == norm(m_out)

    def test_memory_tracking(self):
        workload = three_way_chain(t_multiplicity=2.0, window_r=16, window_s=16)
        executor = XJoinExecutor(workload.graph, left_deep(["R", "S", "T"]))
        drive(executor, workload.updates(500))
        assert executor.peak_memory_bytes >= executor.memory_in_use()
        assert executor.peak_memory_bytes > 0

    def test_root_not_materialized(self):
        workload = three_way_chain()
        executor = XJoinExecutor(workload.graph, left_deep(["R", "S", "T"]))
        assert len(executor.stores) == 1  # only the R⋈S inner node
