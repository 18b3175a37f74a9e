"""Satellite guarantees riding with the service PR.

* profiler spans close on exception paths (a poison update must not
  leave the span stack unbalanced for the rest of the process);
* the wall-clock shedding trigger is opt-in via
  ``SheddingConfig(wall_clock=True)`` and never on by default
  (virtual-clock shedding keeps batch equivalence and recovery
  byte-identity deterministic — see docs/robustness.md);
* dead-letter quarantine at capacity drops the oldest entry and logs
  that decision.
"""

import pytest

from repro import obs as obs_mod
from repro.faults.guard import (
    DeadLetterBuffer,
    IngressGuard,
    ORPHAN_DELETE,
    UNKNOWN_RELATION,
)
from repro.faults.shedding import LoadShedder, SheddingConfig
from repro.mjoin.executor import MJoinExecutor
from repro.obs import Observability
from repro.obs.decisions import DEAD_LETTER_OVERFLOW, QUARANTINE
from repro.operators.base import ExecContext
from repro.streams.events import Sign, Update
from repro.streams.tuples import Row
from repro.streams.workloads import three_way_chain
from repro.xjoin.executor import XJoinExecutor
from repro.xjoin.tree import left_deep


def _profiled_ctx():
    return ExecContext(obs=Observability.tracing(profile=True))


class _Boom(Exception):
    pass


# ----------------------------------------------------------------------
# Spans close on exception paths
# ----------------------------------------------------------------------
def test_mjoin_span_stack_balanced_when_pipeline_raises():
    workload = three_way_chain()
    executor = MJoinExecutor(
        workload.graph,
        indexed_attributes=workload.indexed_attributes,
        ctx=_profiled_ctx(),
    )
    prof = executor.ctx.obs.profiler

    class PoisonOp:
        def apply(self, composites, ctx):
            raise _Boom("poisoned operator")

    executor.process(Update("R", Row(1, (5,)), Sign.INSERT, 1))
    assert prof.depth == 0

    # Poison the pipeline an update will walk: both the operator span
    # (operators/pipeline.py) and the update span (mjoin/executor.py)
    # must unwind.
    executor.pipelines["R"].operators[0] = PoisonOp()
    with pytest.raises(_Boom):
        executor.process(Update("R", Row(2, (6,)), Sign.INSERT, 2))
    assert prof.depth == 0

    # The profiler keeps working afterwards on an un-poisoned pipeline.
    executor.process(Update("S", Row(3, (5, 7)), Sign.INSERT, 3))
    assert prof.depth == 0
    snapshot = prof.snapshot()
    assert snapshot.spans["update:R"]["count"] == 2  # poison span closed
    assert snapshot.spans["update:S"]["count"] == 1


def test_xjoin_span_stack_balanced_when_propagation_raises():
    workload = three_way_chain()
    executor = XJoinExecutor(
        workload.graph,
        left_deep(["R", "S", "T"]),
        ctx=_profiled_ctx(),
    )
    prof = executor.ctx.obs.profiler

    def boom(*args, **kwargs):
        raise _Boom("poisoned subresult probe")

    executor._matches = boom
    with pytest.raises(_Boom):
        executor.process(Update("R", Row(1, (5,)), Sign.INSERT, 1))
    assert prof.depth == 0


# ----------------------------------------------------------------------
# Wall-clock shedding stays opt-in
# ----------------------------------------------------------------------
def test_shedder_clock_source_follows_wall_clock_flag():
    # The default stays virtual — recovery byte-identity depends on it.
    assert SheddingConfig().wall_clock is False
    ctx = ExecContext()  # virtual clock parked at 0
    virtual = LoadShedder(SheddingConfig())
    wall = LoadShedder(SheddingConfig(wall_clock=True))
    assert virtual._now_us(ctx) == ctx.clock.now_us
    # perf_counter-based readings move between calls; the virtual clock
    # does not.
    first, second = wall._now_us(ctx), wall._now_us(ctx)
    assert second > first > 0.0


# ----------------------------------------------------------------------
# Dead-letter quarantine at the bound
# ----------------------------------------------------------------------
def test_dead_letter_overflow_drops_oldest_and_logs_the_decision():
    workload = three_way_chain()
    executor = MJoinExecutor(
        workload.graph, indexed_attributes=workload.indexed_attributes
    )
    ctx = executor.ctx
    guard = IngressGuard(executor.relations, DeadLetterBuffer(capacity=2))

    # Three quarantines into a 2-slot buffer: the third evicts the first.
    assert guard.admit(Update("Z", Row(1, (1,)), Sign.INSERT, 1), ctx)
    assert guard.admit(Update("R", Row(7, (1,)), Sign.DELETE, 2), ctx)
    assert guard.admit(Update("Z", Row(3, (1,)), Sign.INSERT, 3), ctx)

    assert guard.dead_letters.dropped == 1
    assert [e.rid for e in guard.dead_letters.entries()] == [7, 3]

    entries = ctx.obs.decisions.entries()
    actions = [e.action for e in entries]
    assert actions.count(QUARANTINE) == 3
    assert actions.count(DEAD_LETTER_OVERFLOW) == 1
    overflow = next(
        e for e in entries if e.action == DEAD_LETTER_OVERFLOW
    )
    # The decision names what was lost: the oldest entry and its reason.
    assert "dropped oldest rid=1" in overflow.reason
    assert UNKNOWN_RELATION in overflow.reason
    # The surviving entries are the newest two.
    assert [e.reason for e in guard.dead_letters.entries()] == [
        ORPHAN_DELETE, UNKNOWN_RELATION,
    ]
