"""The adaptivity hooks' due point changes nothing the model computes.

``ACaching`` runs its hooks (A-Greedy reordering, the re-optimizer's
monitor / profiling phase / interval, memory enforcement) only once an
update count or a clock reading reaches the earliest of their deadlines.
Each twin pair below feeds the same updates to two engines built alike:
one runs ``_adaptivity_hooks()`` after every update or batch, which is
what the engine did before the due point existed, the other uses the due
point. After every step both must agree on the virtual clock to the last
digit, on the decision log, on the Used caches and on the deltas.
"""

from __future__ import annotations

import pickle

import pytest

from repro.api import EngineConfig, Session
from repro.core.acaching import ACaching
from repro.parallel.bench import bench_tuning
from repro.scenarios.library import SCENARIOS, build_scenario_workload
from repro.streams.events import batched
from repro.streams.workloads import Workload, fig9_workload

ARRIVALS = 3_000

# name -> (workload, tunables changed from the short cadences below).
# Each case crosses many deadlines of the kind it names; between them
# they take the update-count and seconds intervals, both profile gates, a
# memory budget that evicts, the incremental re-optimizer, an A-Greedy
# reorder and the re-optimizer's profiling phase.
CASES = {
    "updates": ("star6", {}),
    "seconds": (
        "star6",
        {"reoptimizer.reopt_interval_updates": None,
         "reoptimizer.reopt_interval_seconds": 0.013},
    ),
    "budget": (
        "star6",
        {"reoptimizer.memory_budget_bytes": 40_000,
         "profiler.deterministic_gate": False},
    ),
    "incremental": ("star6", {"incremental_reoptimizer": True}),
    "reorder": ("master_join", {"profiler.deterministic_gate": False}),
    "profiling": ("star6", {}),
}

# With R2 and R3 joining each other first, {R2, R3} is prefix-valid and
# ∆R6's candidate R6:1-2p lies inside R6:0-4p: once that cache is Used,
# each cycle opens with a profiling phase (Section 4.5, improvement b).
ORDERS = {
    "profiling": {
        "R2": ("R3", "R1", "R4", "R5", "R6"),
        "R3": ("R2", "R1", "R4", "R5", "R6"),
    },
}


def _workload(name: str) -> Workload:
    if name == "star6":
        return fig9_workload(6, window=48)
    return build_scenario_workload(SCENARIOS[name], ARRIVALS)


def _engine(case: str, batch_size: int) -> ACaching:
    workload, overrides = CASES[case]
    tuning = bench_tuning()
    # Short cadences, none a multiple of another, so the deadlines of
    # different hooks fall on different updates.
    tuning.reoptimizer.reopt_interval_updates = 530
    tuning.reoptimizer.profiling_phase_updates = 110
    tuning.reoptimizer.monitor_every_updates = 70
    tuning.ordering.interval_updates = 290
    tuning.memory_check_every_updates = 130
    tuning.profiler.profile_probability = 0.1
    for path, value in overrides.items():
        target = tuning
        *groups, knob = path.split(".")
        for group in groups:
            target = getattr(target, group)
        setattr(target, knob, value)
    config = EngineConfig(
        tuning=tuning, batch_size=batch_size, orders=ORDERS.get(case)
    )
    return Session.adaptive(_workload(workload), config).plan


def _every_step(engine: ACaching, step: list) -> list:
    """The engine before the due point: hooks after every update/batch."""
    if len(step) == 1:
        deltas = [engine.executor.process(step[0])]
    else:
        deltas = engine.executor.process_batch(step)
    engine._adaptivity_hooks()
    return deltas


def _when_due(engine: ACaching, step: list) -> list:
    if len(step) == 1:
        return [engine.process(step[0])]
    return engine.process_batch(step)


class _Twins:
    def __init__(self, name: str, batch_size: int):
        self.old = _engine(name, batch_size)
        self.new = _engine(name, batch_size)
        self.batch_size = batch_size
        self.decisions_seen = 0

    def run(self, updates: list) -> None:
        for step in batched(updates, self.batch_size):
            assert _when_due(self.new, step) == _every_step(self.old, step)
            self.check()

    def check(self) -> None:
        old, new = self.old.ctx, self.new.ctx
        assert repr(new.clock.now_us) == repr(old.clock.now_us)
        assert new.metrics.updates_processed == old.metrics.updates_processed
        assert new.obs.decisions.last_seq == old.obs.decisions.last_seq
        assert [r.to_dict() for r in new.obs.decisions.since(
            self.decisions_seen
        )] == [r.to_dict() for r in old.obs.decisions.since(
            self.decisions_seen
        )]
        self.decisions_seen = new.obs.decisions.last_seq
        assert self.new.used_caches() == self.old.used_caches()

    def resume_from_pickles(self) -> None:
        self.old = pickle.loads(pickle.dumps(self.old))
        self.new = pickle.loads(pickle.dumps(self.new))


def _updates(case: str) -> list:
    return list(_workload(CASES[case][0]).updates(ARRIVALS))


# What each case must reach, or it would not test its branch.
REACHED = {
    "updates": lambda e: e.ctx.metrics.reoptimizations > 1,
    "seconds": lambda e: e.ctx.metrics.reoptimizations > 1,
    "budget": lambda e: "memory_evict" in _actions(e),
    "incremental": lambda e: e.reoptimizer.incremental_rounds > 0,
    "reorder": lambda e: e.orderer.reorders > 0,
    "profiling": lambda e: e.reoptimizer._shadowing_used_caches(),
}


def _actions(engine: ACaching) -> set:
    return {record.action for record in engine.ctx.obs.decisions.entries()}


@pytest.mark.parametrize(
    "case, batch_size",
    [(case, 1) for case in CASES] + [
        ("updates", 16), ("seconds", 16), ("budget", 16), ("profiling", 16)
    ],
)
def test_due_point_matches_hooks_after_every_step(case, batch_size):
    twins = _Twins(case, batch_size)
    twins.run(_updates(case))
    assert REACHED[case](twins.new)


def test_hooks_are_skipped_between_deadlines():
    engine = _engine("updates", 1)
    calls = []
    hooks = engine._adaptivity_hooks
    engine._adaptivity_hooks = lambda: calls.append(hooks())
    updates = _updates("updates")
    for update in updates:
        engine.process(update)
    # Deadlines every 70 (monitor), 130 (memory), 290 (A-Greedy) and at
    # the profiling phase / interval: a few percent of the updates.
    assert 0 < len(calls) < len(updates) // 20


@pytest.mark.parametrize("batch_size", [1, 16])
def test_due_point_survives_pickling_mid_run(batch_size):
    updates = _updates("seconds")
    twins = _Twins("seconds", batch_size)
    twins.run(updates[:1_500])
    twins.resume_from_pickles()
    # Not pickled: a restored engine runs its hooks on its first update.
    assert "_due_updates" not in twins.new.__getstate__()
    twins.run(updates[1_500:])


def test_coordinated_flip_reschedules_the_hooks():
    updates = _updates("budget")
    twins = _Twins("budget", 1)
    for engine in (twins.old, twins.new):
        engine.reoptimizer.coordinated = True
    twins.run(updates[:1_200])
    assert twins.new.ctx.metrics.reoptimizations == 0
    for engine in (twins.old, twins.new):
        engine.reoptimizer.coordinated = False
    twins.run(updates[1_200:])
    assert twins.new.ctx.metrics.reoptimizations > 0
