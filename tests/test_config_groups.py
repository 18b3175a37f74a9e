"""EngineConfig's flat knobs and the run()/execute() API.

Every construction knob has one flat spelling, validated with the
messages the seed API used. ``Session.run`` dispatches on the config's
shard count, and adaptive sharded runs coordinate their cache plans
through the global adaptivity plane unless a caller opts out per call.
"""

import warnings
from dataclasses import replace
from functools import partial

import pytest

from repro.api import EngineConfig, Session
from repro.errors import ConfigError, PlanError
from repro.streams.workloads import fig9_workload

FACTORY = partial(fig9_workload, 3, window=24)


class TestReconciliation:
    def test_flat_validation_messages_are_preserved(self):
        with pytest.raises(PlanError, match="shards must be >= 1"):
            EngineConfig(shards=0)
        with pytest.raises(ConfigError, match="wal_fsync_every"):
            EngineConfig(wal_fsync_every=0)
        with pytest.raises(ConfigError, match="cache_recovery"):
            EngineConfig(cache_recovery="magic")
        with pytest.raises(ConfigError, match="checkpoint_interval"):
            replace(EngineConfig(), checkpoint_interval=0)


class TestUnifiedRunApi:
    def test_run_dispatches_on_the_sharding_config(self):
        serial = Session.adaptive(FACTORY).run(arrivals=300)
        sharded = Session.adaptive(
            FACTORY, EngineConfig(shards=2)
        ).run(arrivals=300)
        # One entry point, two execution paths: the sharded result is
        # the parallel stats object, the serial one the engine report.
        # run() returns deltas from both paths — the sharded path is
        # merged back into global arrival order.
        assert serial and sharded
        assert len(sharded) == len(serial)

    def test_execute_itself_does_not_warn(self):
        session = Session.adaptive(FACTORY, EngineConfig(shards=2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session.execute(300)

    def test_adaptive_sharded_runs_coordinate_unless_opted_out(self):
        coordinated = Session.adaptive(
            FACTORY, EngineConfig(shards=2)
        ).experiment(300)
        assert coordinated.adaptivity is not None
        assert coordinated.adaptivity.sync_every_updates == 2000
        opted_out = Session.adaptive(
            FACTORY, EngineConfig(shards=2)
        ).experiment(300, adaptivity=None)
        assert opted_out.adaptivity is None
        # Unsharded and static runs never join the adaptivity plane.
        assert Session.adaptive(FACTORY).experiment(300).adaptivity is None
        assert Session.static(
            FACTORY, EngineConfig(shards=2)
        ).experiment(300).adaptivity is None
