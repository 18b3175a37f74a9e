"""Tests for the CLI, time-based windows, and the Zipf generator."""

import argparse

import pytest

from repro.cli import build_parser, main
from repro.engine.drive import drive
from repro.errors import WorkloadError
from repro.streams.events import Sign
from repro.streams.generators import ZipfValues
from repro.streams.tuples import RowFactory
from repro.streams.windows import TimeWindow


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig6" in output and "spectrum" in output

    def test_list_names_every_registered_subcommand(self, capsys):
        assert main(["list"]) == 0
        listed = {
            line.split()[0]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("  ")
        }
        (subparsers,) = [
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert set(subparsers.choices) <= listed
        assert {"serve", "trace"} <= listed

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        output = capsys.readouterr().out
        assert "D8" in output

    def test_figure_small(self, capsys):
        assert main(["figure", "fig6", "--arrivals", "1200"]) == 0
        output = capsys.readouterr().out
        assert "Figure 6" in output
        assert "time ratio" in output

    def test_demo(self, capsys):
        assert main(["demo", "--arrivals", "2500"]) == 0
        output = capsys.readouterr().out
        assert "speedup" in output

    def test_unknown_figure_rejected(self, capsys):
        # Validated in the handler, not argparse: one-line error, exit 1.
        assert main(["figure", "fig99"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "fig99" in err

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestTimeWindow:
    def test_expiry_by_timestamp(self):
        window = TimeWindow("R", span=10.0, rows=RowFactory())
        first = window.feed((1,), timestamp=0.0, seq_start=0)
        assert [u.sign for u in first] == [Sign.INSERT]
        second = window.feed((2,), timestamp=5.0, seq_start=1)
        assert [u.sign for u in second] == [Sign.INSERT]
        third = window.feed((3,), timestamp=11.0, seq_start=2)
        # t=0 row has aged out (11 - 10 = 1 >= 0), t=5 row has not.
        assert [u.sign for u in third] == [Sign.DELETE, Sign.INSERT]
        assert third[0].row.values == (1,)
        assert window.fill == 2

    def test_multiple_expiries_in_one_feed(self):
        window = TimeWindow("R", span=1.0)
        window.feed((1,), 0.0, 0)
        window.feed((2,), 0.5, 1)
        updates = window.feed((3,), 100.0, 2)
        assert [u.sign for u in updates] == [
            Sign.DELETE,
            Sign.DELETE,
            Sign.INSERT,
        ]

    def test_timestamps_must_not_regress(self):
        window = TimeWindow("R", span=1.0)
        window.feed((1,), 5.0, 0)
        with pytest.raises(ValueError, match="non-decreasing"):
            window.feed((2,), 4.0, 1)

    def test_invalid_span(self):
        with pytest.raises(ValueError):
            TimeWindow("R", span=0.0)

    def test_sequence_numbers(self):
        window = TimeWindow("R", span=1.0)
        window.feed((1,), 0.0, 0)
        updates = window.feed((2,), 10.0, 7)
        assert [u.seq for u in updates] == [7, 8]


class TestZipfValues:
    def test_range_and_determinism(self):
        a = ZipfValues(domain=50, exponent=1.2, seed=5, offset=100)
        b = ZipfValues(domain=50, exponent=1.2, seed=5, offset=100)
        values = [a.next_value() for _ in range(500)]
        assert values == [b.next_value() for _ in range(500)]
        assert all(100 <= v < 150 for v in values)

    def test_skew_favors_low_ranks(self):
        generator = ZipfValues(domain=100, exponent=1.5, seed=1)
        values = [generator.next_value() for _ in range(3000)]
        head = sum(1 for v in values if v < 10)
        tail = sum(1 for v in values if v >= 90)
        assert head > 5 * max(1, tail)

    def test_higher_exponent_more_skew(self):
        mild = ZipfValues(domain=100, exponent=0.5, seed=2)
        steep = ZipfValues(domain=100, exponent=2.5, seed=2)
        mild_head = sum(
            1 for _ in range(2000) if mild.next_value() == 0
        )
        steep_head = sum(
            1 for _ in range(2000) if steep.next_value() == 0
        )
        assert steep_head > mild_head

    def test_validation(self):
        with pytest.raises(WorkloadError):
            ZipfValues(domain=0)
        with pytest.raises(WorkloadError):
            ZipfValues(domain=10, exponent=0.0)

    def test_zipf_keys_boost_cache_hits(self):
        """Skewed probe keys are exactly where caches shine."""
        from repro.api import EngineConfig, build_static_plan
        from repro.relations.predicates import JoinGraph
        from repro.streams.generators import StreamSpec, UniformValues
        from repro.streams.tuples import Schema
        from repro.streams.workloads import Workload

        def build(model_factory):
            graph = JoinGraph.parse(
                [
                    Schema("R", ("A",)),
                    Schema("S", ("A", "B")),
                    Schema("T", ("B",)),
                ],
                ["R.A = S.A", "S.B = T.B"],
            )
            specs = {
                "R": StreamSpec("R", ("A",), {"A": UniformValues(64, 1)}),
                "S": StreamSpec(
                    "S",
                    ("A", "B"),
                    {"A": UniformValues(64, 2), "B": UniformValues(64, 3)},
                ),
                "T": StreamSpec("T", ("B",), {"B": model_factory()}),
            }
            return Workload(
                name="zipf-test",
                graph=graph,
                specs=specs,
                windows={"R": 48, "S": 48, "T": 240},
                rates={"R": 1.0, "S": 1.0, "T": 5.0},
            )

        orders = {"T": ("S", "R"), "R": ("S", "T"), "S": ("R", "T")}

        def hit_rate(model_factory):
            workload = build(model_factory)
            plan = build_static_plan(
                workload,
                EngineConfig(orders=orders, candidate_ids=("T:0-1p",)),
            )
            drive(plan, workload.updates(3000))
            return plan.ctx.metrics.hit_rate

        uniform = hit_rate(lambda: UniformValues(64, seed=9))
        zipf = hit_rate(lambda: ZipfValues(64, exponent=1.5, seed=9))
        assert zipf > uniform
