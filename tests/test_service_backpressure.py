"""Service admission control and backpressure, unit level.

The token bucket and the degradation ladder both take an injectable
clock, so every test here is deterministic: time only moves when the
test says so.
"""

import asyncio

import pytest

from repro.api import EngineConfig
from repro.errors import ConfigError
from repro.obs.decisions import DecisionLog, TIER_CHANGE
from repro.service.admission import AdmissionController, TokenBucket
from repro.service.backpressure import (
    DegradationController,
    IngressQueue,
    TIER_NORMAL,
    TIER_PAUSE_SUBSCRIPTIONS,
    TIER_REJECT_INGEST,
    TIER_SHED_DELTAS,
)
from repro.service.config import ServiceConfig


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
# Token bucket
# ----------------------------------------------------------------------
def test_bucket_burst_then_throttles_with_retry_after():
    clock = FakeClock()
    bucket = TokenBucket(rate=10.0, burst=5.0, clock=clock)
    assert bucket.take(5) == 0.0          # the whole burst, immediately
    delay = bucket.take(1)
    assert delay == pytest.approx(0.1)    # one token at 10/s
    clock.now += 0.1
    assert bucket.take(1) == 0.0          # refilled exactly that token


def test_bucket_refill_caps_at_burst():
    clock = FakeClock()
    bucket = TokenBucket(rate=100.0, burst=10.0, clock=clock)
    clock.now += 60.0                     # a minute idle
    assert bucket.take(10) == 0.0
    assert bucket.take(1) > 0.0           # nothing banked past the burst


def test_bucket_degraded_rate_factor_doubles_cost():
    clock = FakeClock()
    bucket = TokenBucket(rate=10.0, burst=10.0, clock=clock)
    # rate_factor 0.5: each update costs double, effective refill halves.
    assert bucket.take(5, rate_factor=0.5) == 0.0   # costs the full burst
    delay = bucket.take(1, rate_factor=0.5)
    # deficit of 2 tokens at an effective 5 tokens/s
    assert delay == pytest.approx(0.4)


def test_admission_controller_is_per_tenant_and_feels_degradation():
    clock = FakeClock()
    admission = AdmissionController(
        rate=10.0, burst=5.0, degraded_rate_factor=0.5, clock=clock
    )
    assert admission.admit("a", 5) == 0.0
    assert admission.admit("b", 5) == 0.0   # separate bucket
    assert admission.admit("a", 1) > 0.0
    admission.note_engine_degraded(True)
    # Degraded: tenant b's remaining capacity is halved.
    clock.now += 0.25                        # 2.5 tokens at nominal rate
    assert admission.admit("b", 2) > 0.0     # costs 4 under 0.5 factor
    admission.note_engine_degraded(False)
    summary = admission.summary()
    assert summary["tenants"] == 2
    assert summary["rejections"] >= 2


# ----------------------------------------------------------------------
# Ingress queue
# ----------------------------------------------------------------------
def test_queue_reserve_put_release_accounting():
    queue = IngressQueue(10)
    assert queue.reserve(6)
    assert not queue.reserve(5)        # 6 + 5 > 10
    queue.cancel_reservation(2)        # worst-case shrank to 4 actual
    assert queue.reserve(6)            # 4 + 6 = 10, exactly full
    assert queue.depth_fraction == pytest.approx(1.0)
    queue.put("batch-a")
    queue.release(4)
    assert queue.depth_fraction == pytest.approx(0.6)


def test_queue_get_yields_in_fifo_order():
    async def scenario():
        queue = IngressQueue(10)
        queue.reserve(2)
        queue.put("a")
        queue.put("b")
        return [await queue.get(), await queue.get()]

    assert asyncio.run(scenario()) == ["a", "b"]


def test_queue_get_waits_until_put():
    async def scenario():
        queue = IngressQueue(10)

        async def producer():
            await asyncio.sleep(0.01)
            queue.reserve(1)
            queue.put("late")

        task = asyncio.ensure_future(producer())
        value = await asyncio.wait_for(queue.get(), timeout=2.0)
        await task
        return value

    assert asyncio.run(scenario()) == "late"


def test_queue_oldest_lag_tracks_head_batch():
    clock = FakeClock()
    queue = IngressQueue(10, clock=clock)
    assert queue.oldest_lag_s() == 0.0
    queue.reserve(1)
    queue.put("a")
    clock.now += 3.0
    assert queue.oldest_lag_s() == pytest.approx(3.0)


# ----------------------------------------------------------------------
# Degradation ladder
# ----------------------------------------------------------------------
def _controller(log=None):
    clock = FakeClock()
    config = ServiceConfig(
        shed_depth_fraction=0.5,
        pause_depth_fraction=0.75,
        reject_depth_fraction=0.95,
        shed_lag_s=1.0,
        pause_lag_s=4.0,
        reject_lag_s=10.0,
        recover_fraction=0.5,
    )
    return DegradationController(config, decision_log=log, clock=clock)


def test_ladder_engages_on_worst_signal():
    tiers = _controller()
    assert tiers.update(0.1, 0.0) == TIER_NORMAL
    assert tiers.update(0.6, 0.0) == TIER_SHED_DELTAS
    assert tiers.update(0.6, 5.0) == TIER_PAUSE_SUBSCRIPTIONS  # lag worse
    assert tiers.update(0.96, 0.0) == TIER_REJECT_INGEST
    assert tiers.rejecting_ingest


def test_ladder_recovers_one_step_at_a_time_with_hysteresis():
    tiers = _controller()
    tiers.update(0.96, 12.0)
    assert tiers.tier == TIER_REJECT_INGEST
    # Both signals must fall under recover_fraction x the *current*
    # tier's engage threshold before a step down; 0.6 is not enough
    # (0.5 x 0.95 = 0.475).
    assert tiers.update(0.6, 0.0) == TIER_REJECT_INGEST
    assert tiers.update(0.4, 0.0) == TIER_PAUSE_SUBSCRIPTIONS
    # One step per evaluation, even from idle signals.
    assert tiers.update(0.0, 0.0) == TIER_SHED_DELTAS
    assert tiers.update(0.0, 0.0) == TIER_NORMAL
    assert not tiers.shedding_deltas


def test_ladder_records_tier_change_decisions():
    log = DecisionLog()
    tiers = _controller(log=log)
    tiers.update(0.8, 0.0)
    tiers.update(0.0, 0.0)
    actions = [entry.action for entry in log.entries()]
    assert actions == [TIER_CHANGE, TIER_CHANGE]
    reasons = [entry.reason for entry in log.entries()]
    assert "normal->pause_subscriptions" in reasons[0]
    assert "pause_subscriptions->shed_deltas" in reasons[1]


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs, needle",
    [
        (dict(queue_capacity_updates=0), "queue_capacity_updates"),
        (dict(max_batch_updates=0), "max_batch_updates"),
        (dict(tenant_rate=0), "tenant_rate"),
        (dict(tenant_burst=-1), "tenant_burst"),
        (dict(recover_fraction=1.5), "recover_fraction"),
        (
            dict(shed_depth_fraction=0.9, pause_depth_fraction=0.5),
            "depth fractions must be non-decreasing",
        ),
        # Rejected in every hosting mode, not only with shared_engine.
        (dict(engine=EngineConfig(batch_size=4)), "batch_size 1"),
        (dict(engine=EngineConfig(shards=2)), "shards 1"),
        (dict(engine=EngineConfig(wal_dir="journal")), "wal_dir"),
    ],
)
def test_service_config_validation(kwargs, needle):
    with pytest.raises(ConfigError) as err:
        ServiceConfig(**kwargs)
    assert needle in str(err.value)
