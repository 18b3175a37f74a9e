"""How many GC-tracked objects one output delta keeps alive.

An output delta carries its pipeline's row tuple and layout directly: the
joined tuple is one ``tuple`` of rows, and the delta is one more tuple
around it. On the ledger's ``skew_fanout`` workload (the
``key_skew_churn`` scenario, about 125 outputs per update) this drives
400 updates after a warm-up with the collector paused, holds every
output, and counts the GC-tracked objects that appeared. Everything else
those updates leave behind (window rows, index and cache entries) is
counted too, so the budget is a little above the two objects a delta
needs; a name-keyed composite (a ``{relation: Row}`` dict behind a
wrapper object) would keep three per output alive and fail it.
"""

import gc
from dataclasses import replace

from repro.api import Session
from repro.parallel.bench import bench_engine_config
from repro.scenarios.library import SCENARIOS, build_scenario_workload

ARRIVALS = 1_500
WARMUP = 1_000
MEASURED = 400
BUDGET = 2.2


def _skew_fanout_session(seed: int):
    workload = build_scenario_workload(
        dict(SCENARIOS["key_skew_churn"], seed=seed), ARRIVALS
    )
    config = bench_engine_config(1)
    tuning = config.tuning
    config = replace(config, tuning=replace(
        tuning, profiler=replace(tuning.profiler, seed=seed)
    ))
    return Session.adaptive(workload, config), list(workload.updates(ARRIVALS))


def _retained_per_output(session, updates) -> float:
    for update in updates[:WARMUP]:
        session.process(update)
    measured = updates[WARMUP:WARMUP + MEASURED]
    assert len(measured) == MEASURED
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        held = [session.process(update) for update in measured]
        after = len(gc.get_objects())
    finally:
        gc.enable()
    outputs = sum(map(len, held))
    assert outputs > 50 * MEASURED   # the fan-out this budget is about
    return (after - before) / outputs


def test_skew_fanout_outputs_retain_at_most_the_budget():
    session, updates = _skew_fanout_session(seed=11)
    retained = _retained_per_output(session, updates)
    assert retained <= BUDGET, f"{retained:.3f} GC-tracked objects per output"
