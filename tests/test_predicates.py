"""Unit tests for equijoin predicates and the join graph."""

import pytest

from repro.errors import PlanError, SchemaError
from repro.relations.predicates import (
    AttrRef,
    EquiPredicate,
    JoinGraph,
    independent_checks,
    parse_predicate,
)
from repro.streams.tuples import Schema


def three_way_graph():
    return JoinGraph.parse(
        [Schema("R", ("A",)), Schema("S", ("A", "B")), Schema("T", ("B",))],
        ["R.A = S.A", "S.B = T.B"],
    )


class TestParsePredicate:
    def test_roundtrip(self):
        pred = parse_predicate("R.A = S.B")
        assert pred.left == AttrRef("R", "A")
        assert pred.right == AttrRef("S", "B")

    def test_whitespace_tolerated(self):
        assert parse_predicate("  R.A=S.B ") == parse_predicate("R.A = S.B")

    @pytest.mark.parametrize("bad", ["R.A", "R.A = S", "A = B", "R.A = S.B = T.C"])
    def test_malformed_raises(self, bad):
        with pytest.raises(PlanError):
            parse_predicate(bad)


class TestEquiPredicate:
    def test_side_selection(self):
        pred = parse_predicate("R.A = S.B")
        assert pred.side_for("R") == AttrRef("R", "A")
        assert pred.other_side("R") == AttrRef("S", "B")
        with pytest.raises(PlanError):
            pred.side_for("T")

    def test_relations(self):
        assert parse_predicate("R.A = S.B").relations() == {"R", "S"}


class TestJoinGraph:
    def test_unknown_relation_rejected(self):
        with pytest.raises(SchemaError, match="unknown relation"):
            JoinGraph.parse([Schema("R", ("A",))], ["R.A = S.A"])

    def test_unknown_attribute_rejected(self):
        with pytest.raises(SchemaError):
            JoinGraph.parse(
                [Schema("R", ("A",)), Schema("S", ("A",))], ["R.Z = S.A"]
            )

    def test_self_join_rejected(self):
        with pytest.raises(PlanError, match="self-join"):
            JoinGraph.parse([Schema("R", ("A", "B"))], ["R.A = R.B"])

    def test_predicates_between(self):
        graph = three_way_graph()
        preds = graph.predicates_between(["R"], "S")
        assert len(preds) == 1
        assert preds[0] == parse_predicate("R.A = S.A")
        assert graph.predicates_between(["R"], "T") == []
        assert len(graph.predicates_between(["R", "S"], "T")) == 1

    def test_crossing_predicates(self):
        graph = three_way_graph()
        crossing = graph.crossing_predicates(["T"], ["S", "R"])
        assert crossing == [parse_predicate("S.B = T.B")]

    def test_internal_predicates(self):
        graph = three_way_graph()
        assert len(graph.internal_predicates(["R", "S"])) == 1
        assert graph.internal_predicates(["R", "T"]) == []

    def test_connected_order(self):
        graph = three_way_graph()
        assert graph.connected_order(["R", "S", "T"])
        assert graph.connected_order(["T", "S", "R"])
        assert not graph.connected_order(["R", "T", "S"])

    def test_are_connected(self):
        graph = three_way_graph()
        assert graph.are_connected(["R"], ["S"])
        assert not graph.are_connected(["R"], ["T"])

    def test_duplicate_relations_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            JoinGraph([Schema("R", ("A",)), Schema("R", ("A",))], [])


class TestIndependentChecks:
    def test_sources_in_two_relations_decide_each_other(self):
        # One checked slot, sources R1.A and R2.A: upstream made them equal.
        a, b = independent_checks([(0, ("R1", 0)), (0, ("R2", 0))])
        assert a == b

    def test_sources_in_one_relation_stay_apart(self):
        # T.A and T.B both checked against slot 0: nobody compared them.
        a, b = independent_checks([(0, ("T", 0)), (0, ("T", 1))])
        assert a != b

    def test_different_checked_slots_stay_apart(self):
        a, b = independent_checks([(0, ("R", 0)), (1, ("R", 0))])
        assert a != b

    def test_same_relation_attributes_fold_once_another_relation_joins(self):
        # T.A = R.A and T.B = R.A were both enforced upstream, so T.A = T.B.
        checks = independent_checks(
            [(0, ("T", 0)), (0, ("T", 1)), (0, ("R", 0))]
        )
        assert len(set(checks)) == 1
