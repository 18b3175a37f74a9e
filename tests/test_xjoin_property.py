"""Property: every enumerated join tree computes the same join."""

import pytest

from repro.engine.drive import drive
from repro.mjoin.executor import MJoinExecutor
from repro.streams.workloads import table2_workload
from repro.xjoin.executor import XJoinExecutor
from repro.xjoin.tree import canonical, enumerate_trees


def normalized(outputs):
    return sorted(
        (
            int(o.sign),
            tuple(sorted((r, o.composite.row(r).rid) for r in o.composite)),
        )
        for o in outputs
    )


@pytest.fixture(scope="module")
def reference():
    workload = table2_workload("D5", window_base=12)
    executor = MJoinExecutor(workload.graph)
    outputs = drive(executor, workload.updates(700))
    return normalized(outputs)


@pytest.fixture(scope="module")
def trees():
    workload = table2_workload("D5", window_base=12)
    return enumerate_trees(workload.graph)


def test_enumeration_is_complete(trees):
    assert len(trees) == 15  # all unordered shapes over 4 star leaves


@pytest.mark.parametrize("index", range(15))
def test_every_tree_matches_the_mjoin(index, trees, reference):
    tree = trees[index]
    workload = table2_workload("D5", window_base=12)
    executor = XJoinExecutor(workload.graph, tree)
    outputs = drive(executor, workload.updates(700))
    assert normalized(outputs) == reference, f"tree {canonical(tree)} diverged"


def test_memory_differs_across_shapes(trees):
    """Bushy vs deep trees materialize different subresults."""
    footprints = set()
    for tree in trees[:6]:
        workload = table2_workload("D5", window_base=12)
        executor = XJoinExecutor(workload.graph, tree)
        drive(executor, workload.updates(700))
        footprints.add(executor.peak_memory_bytes)
    assert len(footprints) > 1
