"""Unit tests for the pipeline join operator ./ij."""

import pytest

from repro.errors import PlanError
from repro.mjoin.executor import MJoinExecutor
from repro.operators.base import ExecContext
from repro.operators.join_op import JoinOperator
from repro.relations.predicates import JoinGraph
from repro.relations.relation import Relation
from repro.streams.events import canonical_delta
from repro.streams.tuples import CompositeTuple, RowFactory, Schema, layout_of
from repro.streams.workloads import star_graph, three_way_chain


def chain_graph():
    return JoinGraph.parse(
        [Schema("R", ("A",)), Schema("S", ("A", "B")), Schema("T", ("B",))],
        ["R.A = S.A", "S.B = T.B"],
    )


def named(op, outputs):
    """Read an operator's positional outputs by relation name."""
    layout = layout_of(op.prior + (op.target,))
    return [CompositeTuple(layout, rows) for rows in outputs]


@pytest.fixture
def ctx():
    return ExecContext()


@pytest.fixture
def rows():
    return RowFactory()


class TestIndexedJoin:
    def test_matches_by_index(self, ctx, rows):
        graph = chain_graph()
        relation = Relation(graph.schemas["S"], ("A",))
        relation.insert(rows.make((1, 10)))
        relation.insert(rows.make((1, 11)))
        relation.insert(rows.make((2, 12)))
        op = JoinOperator(graph, prior=["R"], target="S").bind(relation)
        composite = (rows.make((1,)),)
        out = named(op, op.apply([composite], ctx))
        assert len(out) == 2
        assert all(o.value("S", 0) == 1 for o in out)
        assert ctx.clock.now_us > 0  # probes were charged

    def test_unbound_operator_raises(self, ctx, rows):
        graph = chain_graph()
        op = JoinOperator(graph, prior=["R"], target="S")
        with pytest.raises(PlanError, match="unbound"):
            op.apply([(rows.make((1,)),)], ctx)

    def test_bind_wrong_relation(self, rows):
        graph = chain_graph()
        op = JoinOperator(graph, prior=["R"], target="S")
        with pytest.raises(PlanError, match="bound"):
            op.bind(Relation(graph.schemas["T"], ()))

    def test_residual_predicates_verified(self, ctx, rows):
        # T joins the prefix on two different attributes: the index
        # serves one, the other is a residual no upstream operator implies.
        graph = JoinGraph.parse(
            [Schema("R", ("A", "B")), Schema("T", ("A", "B"))],
            ["R.A = T.A", "R.B = T.B"],
        )
        relation = Relation(graph.schemas["T"], ("A",))
        relation.insert(rows.make((5, 7)))
        relation.insert(rows.make((5, 8)))
        op = JoinOperator(graph, prior=["R"], target="T").bind(relation)
        assert op.predicate_count == 2
        assert len(op.probe_plan().residuals) == 1
        out = named(op, op.apply([(rows.make((5, 7)),)], ctx))
        assert [o.row("T").values for o in out] == [(5, 7)]
        assert op.apply([(rows.make((5, 9)),)], ctx) == []

    def test_two_target_attributes_in_one_class_both_checked(self, ctx, rows):
        # R.A = T.A and R.A = T.B put T.A and T.B in one equivalence class;
        # the closure keeps T.A = T.B implicit, so only this operator can
        # reject a T row whose two attributes differ.
        graph = JoinGraph.parse(
            [Schema("R", ("A",)), Schema("T", ("A", "B"))],
            ["R.A = T.A", "R.A = T.B"],
        )
        relation = Relation(graph.schemas["T"], ("A", "B"))
        relation.insert(rows.make((5, 5)))
        relation.insert(rows.make((5, 6)))
        relation.insert(rows.make((6, 5)))
        op = JoinOperator(graph, prior=["R"], target="T").bind(relation)
        out = named(op, op.apply([(rows.make((5,)),)], ctx))
        assert [o.row("T").values for o in out] == [(5, 5)]

    def test_two_prior_attributes_of_one_relation_both_checked(
        self, ctx, rows
    ):
        # Same class seen from the other side: both predicates land on
        # R.A, but the T row entering ∆T's pipeline was never filtered on
        # T.A = T.B, so neither check is implied by the other.
        graph = JoinGraph.parse(
            [Schema("R", ("A",)), Schema("T", ("A", "B"))],
            ["R.A = T.A", "R.A = T.B"],
        )
        relation = Relation(graph.schemas["R"], ("A",))
        relation.insert(rows.make((5,)))
        op = JoinOperator(graph, prior=["T"], target="R").bind(relation)
        assert len(op.probe_plan().residuals) == 1
        assert len(op.apply([(rows.make((5, 5)),)], ctx)) == 1
        assert op.apply([(rows.make((5, 6)),)], ctx) == []
        assert op.apply([(rows.make((6, 5)),)], ctx) == []

    def test_star_plan_collapses_residuals_but_charges_all(self, ctx, rows):
        # Star graph: joining R3 to prior {R1, R2} has two predicates, both
        # on R3.A. R1.A = R2.A was enforced upstream, so the index probe
        # decides both — nothing is left to evaluate — while the model
        # still bills the one residual per candidate row it always did.
        graph = star_graph(3)
        relation = Relation(graph.schemas["R3"], ("A",))
        relation.insert(rows.make((5,)))
        relation.insert(rows.make((5,)))
        relation.insert(rows.make((6,)))
        op = JoinOperator(graph, prior=["R1", "R2"], target="R3").bind(
            relation
        )
        assert op.predicate_count == 2
        plan = op.probe_plan()
        assert plan.index_attribute == "A"
        assert plan.residuals == ()
        assert plan.charged == 1
        composite = (rows.make((5,)), rows.make((5,)))  # (R1, R2)
        assert len(op.apply([composite], ctx)) == 2
        cm = ctx.cost_model
        assert ctx.clock.now_us == (
            cm.index_probe + cm.predicate_eval * 2 * 1 + cm.per_match * 2
        )


class TestScanJoin:
    def test_scan_without_index(self, ctx, rows):
        graph = chain_graph()
        relation = Relation(graph.schemas["S"], ())  # no indexes at all
        relation.insert(rows.make((1, 10)))
        relation.insert(rows.make((2, 11)))
        op = JoinOperator(graph, prior=["R"], target="S").bind(relation)
        composite = (rows.make((1,)),)
        out = op.apply([composite], ctx)
        assert len(out) == 1

    def test_scan_cost_scales_with_relation(self, rows):
        graph = chain_graph()
        small = Relation(graph.schemas["S"], ())
        large = Relation(graph.schemas["S"], ())
        for i in range(10):
            small.insert(rows.make((99, i)))
        for i in range(1000):
            large.insert(rows.make((99, i)))
        probe = (rows.make((1,)),)
        ctx_small, ctx_large = ExecContext(), ExecContext()
        JoinOperator(graph, ["R"], "S").bind(small).apply(
            [probe], ctx_small
        )
        JoinOperator(graph, ["R"], "S").bind(large).apply(
            [probe], ctx_large
        )
        assert ctx_large.clock.now_us > 10 * ctx_small.clock.now_us

    def test_cross_product_when_unconnected(self, ctx, rows):
        graph = chain_graph()
        relation = Relation(graph.schemas["T"], ("B",))
        relation.insert(rows.make((7,)))
        relation.insert(rows.make((8,)))
        # R and T share no predicate: the join degenerates to a product.
        op = JoinOperator(graph, prior=["R"], target="T").bind(relation)
        assert op.is_cross_product()
        out = op.apply([(rows.make((1,)),)], ctx)
        assert len(out) == 2

    def test_match_rows_counts_without_extending(self, ctx, rows):
        graph = chain_graph()
        relation = Relation(graph.schemas["S"], ("A",))
        relation.insert(rows.make((1, 10)))
        op = JoinOperator(graph, prior=["R"], target="S").bind(relation)
        matches = op.match_rows((rows.make((1,)),), ctx)
        assert len(matches) == 1
        assert matches[0].values == (1, 10)


class TestIndexSetEpoch:
    """The probe plan re-resolves when the target's index set changes."""

    def test_drop_and_readd_index_under_bound_operator(self, rows):
        graph = chain_graph()
        relation = Relation(graph.schemas["S"], ("A",))
        for values in ((1, 10), (1, 11), (2, 12)):
            relation.insert(rows.make(values))
        op = JoinOperator(graph, prior=["R"], target="S").bind(relation)
        probe = (rows.make((1,)),)
        cm = ExecContext().cost_model

        def run():
            ctx = ExecContext()
            out = named(op, op.apply([probe], ctx))
            return sorted(o.row("S").rid for o in out), ctx.clock.now_us

        probed = cm.index_probe + cm.per_match * 2
        scanned = (
            cm.scan_tuple * 3 + cm.predicate_eval * 3 * 1 + cm.per_match * 2
        )
        indexed_out, charge = run()
        assert charge == probed
        assert op.probe_plan().index_attribute == "A"

        # Figure 10's configuration, reached mid-run: nested-loop scan.
        relation.drop_index("A")
        assert op.probe_plan().index_attribute is None
        scan_out, charge = run()
        assert scan_out == indexed_out
        assert charge == scanned

        relation.add_index("A")
        assert op.probe_plan().index_attribute == "A"
        again_out, charge = run()
        assert again_out == indexed_out
        assert charge == probed

    def test_epoch_moves_only_when_the_index_set_does(self, rows):
        relation = Relation(chain_graph().schemas["S"], ("A",))
        epoch = relation.index_epoch
        assert relation.index_count == 1
        relation.add_index("A")         # already there
        relation.drop_index("B")        # never was
        relation.insert(rows.make((1, 10)))
        assert relation.index_epoch == epoch
        relation.add_index("B")
        assert (relation.index_epoch, relation.index_count) == (epoch + 1, 2)
        relation.drop_index("A")
        assert (relation.index_epoch, relation.index_count) == (epoch + 2, 1)

    def test_executor_follows_index_changes_mid_run(self):
        def build():
            workload = three_way_chain(window_r=16, window_s=16)
            executor = MJoinExecutor(
                workload.graph,
                indexed_attributes=workload.indexed_attributes,
            )
            return executor, list(workload.updates(600))

        steady, updates = build()
        churned, _ = build()

        def run_phase(phase):
            """Feed both executors; return their virtual-time advances."""
            started = steady.ctx.clock.now_us, churned.ctx.clock.now_us
            for update in phase:
                assert [
                    canonical_delta(d) for d in churned.process(update)
                ] == [canonical_delta(d) for d in steady.process(update)]
            return (
                steady.ctx.clock.now_us - started[0],
                churned.ctx.clock.now_us - started[1],
            )

        indexed, same = run_phase(updates[:200])
        assert same == indexed

        # ∆T's pipeline joins S through S.B: without the index those probes
        # run (and are billed) as scans, and S's own window updates
        # maintain one index fewer.
        churned.relations["S"].drop_index("B")
        assert churned.relations["S"].index_count == 1
        indexed, scanning = run_phase(updates[200:400])
        assert scanning > indexed

        churned.relations["S"].add_index("B")
        indexed, reindexed = run_phase(updates[400:])
        assert reindexed == pytest.approx(indexed)
        assert churned.ctx.metrics.outputs_emitted == (
            steady.ctx.metrics.outputs_emitted
        )
