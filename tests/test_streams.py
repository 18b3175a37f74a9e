"""Tests for windows, schedulers, generators, and workload plumbing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.drive import drive
from repro.errors import WorkloadError
from repro.streams.events import Sign
from repro.streams.generators import (
    SequentialValues,
    StreamSpec,
    UniformValues,
    fit_domain_sizes,
    predicted_pairwise_selectivity,
)
from repro.streams.sources import DeficitScheduler
from repro.streams.tuples import RowFactory
from repro.streams.windows import CountWindow
from repro.streams.workloads import (
    TABLE2_POINTS,
    fig6_workload,
    fig7_workload,
    fig9_workload,
    star_graph,
    table2_workload,
    three_way_chain,
)


class TestCountWindow:
    def test_emits_insert_then_delete_when_full(self):
        window = CountWindow("R", size=2, rows=RowFactory())
        updates = window.feed((1,), seq_start=0)
        assert [u.sign for u in updates] == [Sign.INSERT]
        window.feed((2,), seq_start=1)
        updates = window.feed((3,), seq_start=2)
        assert [u.sign for u in updates] == [Sign.DELETE, Sign.INSERT]
        # The deleted row is the oldest one.
        assert updates[0].row.values == (1,)
        assert window.fill == 2

    def test_sequence_numbers_consecutive(self):
        window = CountWindow("R", size=1)
        window.feed((1,), 0)
        updates = window.feed((2,), 1)
        assert [u.seq for u in updates] == [1, 2]

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            CountWindow("R", size=0)


class TestDeficitScheduler:
    def test_rates_respected(self):
        scheduler = DeficitScheduler({"R": 1.0, "T": 5.0})
        emitted = list(scheduler.schedule(600))
        assert emitted.count("T") == 500
        assert emitted.count("R") == 100

    def test_rate_function_burst(self):
        scheduler = DeficitScheduler(
            {"R": 1.0, "S": 1.0},
            rate_function=lambda n: {"R": 9.0} if n >= 100 else {"R": 1.0},
        )
        before = list(scheduler.schedule(100))
        after = list(scheduler.schedule(100))
        assert abs(before.count("R") - 50) <= 1
        assert after.count("R") == 90

    def test_validation(self):
        with pytest.raises(WorkloadError):
            DeficitScheduler({})
        with pytest.raises(WorkloadError):
            DeficitScheduler({"R": -1.0})
        with pytest.raises(WorkloadError):
            DeficitScheduler({"R": 0.0})

    def test_deterministic(self):
        a = list(DeficitScheduler({"R": 2, "S": 3}).schedule(50))
        b = list(DeficitScheduler({"R": 2, "S": 3}).schedule(50))
        assert a == b


class TestGenerators:
    def test_sequential_multiplicity(self):
        gen = SequentialValues(multiplicity=3)
        assert [gen.next_value() for _ in range(7)] == [0, 0, 0, 1, 1, 1, 2]

    def test_sequential_fractional_skips(self):
        gen = SequentialValues(multiplicity=0.5)
        assert [gen.next_value() for _ in range(4)] == [0, 2, 4, 6]

    def test_sequential_offset(self):
        gen = SequentialValues(multiplicity=1, offset=100)
        assert gen.next_value() == 100

    def test_sequential_validation(self):
        with pytest.raises(WorkloadError):
            SequentialValues(multiplicity=0)

    def test_uniform_range_and_determinism(self):
        a = UniformValues(10, seed=3, offset=50)
        b = UniformValues(10, seed=3, offset=50)
        values = [a.next_value() for _ in range(100)]
        assert values == [b.next_value() for _ in range(100)]
        assert all(50 <= v < 60 for v in values)

    def test_stream_spec_payload_serial(self):
        spec = StreamSpec("R", ("A", "P"), {"A": SequentialValues(1)})
        first, second = spec.next_tuple(), spec.next_tuple()
        assert first[0] == 0 and second[0] == 1
        assert first[1] != second[1]  # payload serial advances

    def test_stream_spec_unknown_attribute(self):
        with pytest.raises(WorkloadError):
            StreamSpec("R", ("A",), {"Z": SequentialValues(1)})


class TestDomainFitting:
    def test_uniform_targets_recovered(self):
        names = ("R1", "R2", "R3")
        targets = {
            frozenset(("R1", "R2")): 0.004,
            frozenset(("R1", "R3")): 0.004,
            frozenset(("R2", "R3")): 0.004,
        }
        sizes = fit_domain_sizes(names, targets)
        for pair, target in targets.items():
            a, b = tuple(pair)
            realized = predicted_pairwise_selectivity(sizes, a, b)
            assert 0.5 * target <= realized <= 2.0 * target

    def test_all_zero_targets(self):
        sizes = fit_domain_sizes(("R1", "R2"), {frozenset(("R1", "R2")): 0.0})
        assert all(size >= 2 for size in sizes.values())


class TestWorkloads:
    def test_three_way_chain_structure(self):
        workload = three_way_chain()
        assert set(workload.graph.relations) == {"R", "S", "T"}
        updates = list(workload.updates(100))
        assert all(u.relation in {"R", "S", "T"} for u in updates)
        # sequence numbers strictly increasing
        seqs = [u.seq for u in updates]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_fig6_t_rate_scales_with_multiplicity(self):
        workload = fig6_workload(t_multiplicity=5)
        assert workload.rates["T"] == 5.0 * workload.rates["R"]

    def test_fig7_zero_selectivity_yields_no_results(self):
        from repro.mjoin.executor import MJoinExecutor

        workload = fig7_workload(0.0, window=16)
        executor = MJoinExecutor(workload.graph)
        outputs = drive(executor, workload.updates(300))
        assert outputs == []

    def test_fig9_star_graph(self):
        workload = fig9_workload(5, window=8)
        assert len(workload.graph.relations) == 5
        assert star_graph(3).connected_order(["R1", "R2", "R3"])

    def test_table2_all_points_build(self):
        for point in TABLE2_POINTS:
            workload = table2_workload(point, window_base=10)
            assert len(list(workload.updates(50))) >= 50

    def test_table2_unknown_point(self):
        with pytest.raises(WorkloadError):
            table2_workload("D99")

    def test_fig10_drops_s_b_index(self):
        from repro.mjoin.executor import MJoinExecutor
        from repro.streams.workloads import fig10_workload

        workload = fig10_workload(s_window=50)
        executor = MJoinExecutor(
            workload.graph, indexed_attributes=workload.indexed_attributes
        )
        assert not executor.relations["S"].has_index("B")
        assert executor.relations["S"].has_index("A")


@settings(max_examples=25)
@given(
    rates=st.dictionaries(
        st.sampled_from(["A", "B", "C"]),
        st.floats(0.1, 10.0),
        min_size=2,
        max_size=3,
    ),
    count=st.integers(10, 400),
)
def test_scheduler_long_run_ratios(rates, count):
    """Property: emitted counts track rate shares within one tuple each."""
    scheduler = DeficitScheduler(rates)
    emitted = list(scheduler.schedule(count))
    total_rate = sum(rates.values())
    for name, rate in rates.items():
        expected = count * rate / total_rate
        assert abs(emitted.count(name) - expected) <= len(rates)
