"""Golden virtual-clock values: "Figures 6-13 do not move", in CI.

The virtual clock is a deterministic function of the sequence of modeled
charges, and the adaptive decisions (which caches are Used, when the
re-optimizer runs) are functions of that clock. A change that is meant
to alter only what the *machine* does per update — a hot-path
optimisation — must therefore reproduce these values bit for bit; a
change that means to alter the cost model regenerates the file and says
so in its description::

    PYTHONPATH=src python tests/test_golden_clock.py

``tests/data/golden_clock.json`` was recorded on the commit before the
pipelines were compiled at plan-switch time (PR 13's parent);
``star6_timed_budget`` was added later, recorded on the commit before the
adaptivity hooks ran only when due.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, Tuple

import pytest

from repro.api import EngineConfig, Session
from repro.parallel.bench import bench_engine_config, bench_tuning
from repro.planner.enumeration import measured_run
from repro.scenarios.library import SCENARIOS, build_scenario_workload
from repro.streams.events import batched
from repro.streams.workloads import Workload, fig9_workload

GOLDEN = Path(__file__).parent / "data" / "golden_clock.json"


def _star6(arrivals: int) -> Workload:
    return fig9_workload(6, window=48)


def _scenario(name: str) -> Callable[[int], Workload]:
    return lambda arrivals: build_scenario_workload(SCENARIOS[name], arrivals)


def _timed_budget_config(batch_size: int) -> EngineConfig:
    """The bench config on the branches the other entries never take: the
    RNG profile gate, the seconds re-optimization interval, and a memory
    budget small enough that runtime enforcement evicts caches."""
    tuning = bench_tuning()
    tuning.profiler.deterministic_gate = False
    tuning.reoptimizer.reopt_interval_updates = None
    tuning.reoptimizer.reopt_interval_seconds = 0.03
    tuning.reoptimizer.memory_budget_bytes = 30_000
    return EngineConfig(tuning=tuning, batch_size=batch_size)


# name -> (workload builder, arrivals, batch size, engine config builder)
WORKLOADS: Dict[
    str,
    Tuple[Callable[[int], Workload], int, int, Callable[[int], EngineConfig]],
] = {
    "star6_batch1": (_star6, 3_000, 1, bench_engine_config),
    "star6_batch64": (_star6, 3_000, 64, bench_engine_config),
    "star6_timed_budget": (_star6, 6_000, 1, _timed_budget_config),
    "key_skew_churn": (
        _scenario("key_skew_churn"), 2_000, 1, bench_engine_config
    ),
    "delete_storm": (_scenario("delete_storm"), 6_000, 1, bench_engine_config),
}


def _loop(session: Session, workload: Workload, arrivals: int) -> None:
    """The hand-written per-update / per-batch loop."""
    updates = workload.updates(arrivals)
    batch_size = session.config.batch_size
    if batch_size == 1:
        for update in updates:
            session.process(update)
    else:
        for batch in batched(updates, batch_size):
            session.process_batch(batch)


# How the updates reach the engine: every runner must land on the same
# golden entry, whichever loop feeds it.
DRIVERS: Dict[str, Callable[[Session, Workload, int], None]] = {
    "loop": _loop,
    "session_run": lambda s, w, n: s.run(w.updates(n)),
    "session_series": lambda s, w, n: s.series(w.updates(n)),
    "measured_run": lambda s, w, n: measured_run(
        s.plan, w, n, warmup_fraction=0.4, batch_size=s.config.batch_size
    ),
}


def measure(name: str, driver: str = "loop") -> Dict[str, object]:
    """Run one workload on the bench config; return what is pinned."""
    build, arrivals, batch_size, config = WORKLOADS[name]
    workload = build(arrivals)
    session = Session.adaptive(workload, config(batch_size))
    DRIVERS[driver](session, workload, arrivals)
    ctx = session.ctx
    return {
        "clock_now_us": repr(ctx.clock.now_us),
        "outputs_emitted": ctx.metrics.outputs_emitted,
        "cache_hits": ctx.metrics.cache_hits,
        "reoptimizations": ctx.metrics.reoptimizations,
        "used_caches": sorted(session.plan.used_caches()),
    }


# The hand-written loop keeps the bare workload name as its test id.
CASES = [(name, driver) for name in sorted(WORKLOADS) for driver in DRIVERS]
IDS = [name if d == "loop" else f"{name}-{d}" for name, d in CASES]


@pytest.mark.parametrize("name, driver", CASES, ids=IDS)
def test_virtual_clock_and_decisions_match_golden(name, driver):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert measure(name, driver) == golden[name]


def test_golden_runs_exercise_adaptivity():
    """The pinned runs must reach the states a hot-path change can break."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert set(golden) == set(WORKLOADS)
    for name, values in golden.items():
        assert values["outputs_emitted"] > 0, name
        assert values["reoptimizations"] > 0, name
    assert golden["star6_batch1"]["cache_hits"] > 0
    assert golden["star6_batch1"]["used_caches"]
    assert golden["star6_timed_budget"]["reoptimizations"] > 1


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(
            {name: measure(name) for name in sorted(WORKLOADS)}, indent=2
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN}")
