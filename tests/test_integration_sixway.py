"""Integration: the paper's six-way Figure 5 configuration, end to end.

Wires the full Example 4.1/4.2 structure — nested candidates, a
three-pipeline shared cache group — runs a live star workload, and checks
exactness against brute force plus the sharing economics (one physical
store, three probing pipelines).
"""

import pytest

from repro.core.candidates import enumerate_prefix_candidates, shared_groups
from repro.core.wiring import CacheWiring
from repro.engine.drive import drive
from repro.mjoin.executor import MJoinExecutor
from repro.streams.workloads import fig9_workload

FIGURE5_ORDERS = {
    "R1": ("R2", "R3", "R4", "R5", "R6"),
    "R2": ("R1", "R3", "R5", "R4", "R6"),
    "R3": ("R2", "R1", "R4", "R5", "R6"),
    "R4": ("R5", "R1", "R2", "R3", "R6"),
    "R5": ("R4", "R2", "R3", "R1", "R6"),
    "R6": ("R2", "R1", "R4", "R5", "R3"),
}


def brute_force(executor):
    total = 0
    for row in executor.relations["R1"].rows():
        product = 1
        for other in ("R2", "R3", "R4", "R5", "R6"):
            product *= executor.relations[other].match_count(
                "A", row.values[0]
            )
            if product == 0:
                break
        total += product
    return total


@pytest.fixture(scope="module")
def run():
    workload = fig9_workload(6, window=12)
    executor = MJoinExecutor(workload.graph, orders=FIGURE5_ORDERS)
    candidates = enumerate_prefix_candidates(
        workload.graph, FIGURE5_ORDERS
    )
    # Wire the shared {R1,R2} group (three pipelines) plus the {R4,R5}
    # candidates — all mutually conflict-free.
    chosen = []
    for candidate in candidates:
        if frozenset(candidate.segment) in (
            frozenset({"R1", "R2"}),
            frozenset({"R4", "R5"}),
        ):
            if not any(candidate.conflicts_with(c) for c in chosen):
                chosen.append(candidate)
    wiring = CacheWiring(executor)
    for candidate in chosen:
        wiring.attach(candidate, buckets=128)
    outputs = drive(executor, workload.updates(2500))
    return executor, wiring, chosen, outputs


class TestSixWayIntegration:
    def test_exactness(self, run):
        executor, _wiring, _chosen, outputs = run
        live = sum(int(o.sign) for o in outputs)
        assert live == brute_force(executor)

    def test_sharing_structure(self, run):
        executor, wiring, chosen, _outputs = run
        r1r2 = [
            c for c in chosen if frozenset(c.segment) == frozenset({"R1", "R2"})
        ]
        assert {c.owner for c in r1r2} == {"R3", "R4", "R6"}
        stores = {id(wiring.wired[c.candidate_id].cache) for c in r1r2}
        assert len(stores) == 1, "shared group must back one physical store"

    def test_shared_cache_served_multiple_pipelines(self, run):
        executor, wiring, chosen, _outputs = run
        r1r2 = [
            c for c in chosen if frozenset(c.segment) == frozenset({"R1", "R2"})
        ]
        cache = wiring.wired[r1r2[0].candidate_id].cache
        assert cache.probes > 0
        assert cache.hits > 0
        # Per-pipeline probe metrics: every owner's lookup fired.
        per_cache = executor.ctx.metrics.per_cache_hits
        assert per_cache.get(cache.name, 0) > 0

def test_detach_and_reattach_mid_stream_preserves_exactness():
    """Dropping and re-adding shared members mid-run must not disturb
    results (plan switching is free, Section 3.2)."""
    workload = fig9_workload(6, window=12)
    executor = MJoinExecutor(workload.graph, orders=FIGURE5_ORDERS)
    candidates = enumerate_prefix_candidates(workload.graph, FIGURE5_ORDERS)
    wiring = CacheWiring(executor)
    chosen = []
    for candidate in candidates:
        if frozenset(candidate.segment) == frozenset({"R1", "R2"}):
            chosen.append(candidate)
            wiring.attach(candidate, buckets=128)
    outputs = []
    for i, update in enumerate(workload.updates(3000)):
        outputs.extend(executor.process(update))
        if i == 1500:
            wiring.detach(chosen[0].candidate_id)
        if i == 2200:
            wiring.attach(chosen[0], buckets=128)
    live = sum(int(o.sign) for o in outputs)
    assert live == brute_force(executor)
