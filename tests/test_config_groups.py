"""EngineConfig's nested sub-config groups and the run()/execute() API.

The flat sharding/durability/tenancy knobs moved into frozen sub-configs
(``ShardingConfig``, ``DurabilityConfig``, ``TenancyConfig``). Flat
keywords stay accepted for back-compat and are reconciled into the
nested form; conflicts must fail loudly naming the new path. Alongside:
``Session.run`` dispatches on the config's sharding, and
``Session.run_sharded`` is a deprecation shim over ``execute``.
"""

import warnings
from dataclasses import replace
from functools import partial

import pytest

from repro.api import (
    DurabilityConfig,
    EngineConfig,
    Session,
    ShardingConfig,
    TenancyConfig,
)
from repro.errors import ConfigError, PlanError
from repro.streams.workloads import fig9_workload

FACTORY = partial(fig9_workload, 3, window=24)


class TestReconciliation:
    def test_flat_keywords_synthesize_the_nested_groups(self):
        config = EngineConfig(
            shards=2,
            parallel_backend="process",
            checkpoint_interval=500,
            tenant_min_bytes=1024,
        )
        assert config.sharding == ShardingConfig(
            shards=2, backend="process"
        )
        assert config.durability.checkpoint_interval == 500
        assert config.tenancy.min_bytes == 1024

    def test_nested_groups_mirror_back_to_the_flat_attrs(self):
        config = EngineConfig(
            sharding=ShardingConfig(shards=4, backend="process"),
            durability=DurabilityConfig(fsync_every=8),
            tenancy=TenancyConfig(max_bytes=1 << 20),
        )
        # Old readers (service layer, multi-engine) still see the flat
        # attributes.
        assert config.shards == 4
        assert config.parallel_backend == "process"
        assert config.wal_fsync_every == 8
        assert config.tenant_max_bytes == 1 << 20

    def test_conflicting_flat_and_nested_fail_naming_the_new_path(self):
        with pytest.raises(ConfigError, match="ShardingConfig"):
            EngineConfig(shards=2, sharding=ShardingConfig(shards=4))

    def test_agreeing_flat_and_nested_coexist_for_replace(self):
        config = EngineConfig(sharding=ShardingConfig(shards=2))
        # dataclasses.replace re-passes the mirrored flats alongside the
        # nested group; agreement must not be treated as a conflict.
        again = replace(config, global_quota=4)
        assert again.sharding.shards == 2
        assert again.shards == 2

    def test_nested_validation_names_the_nested_field(self):
        with pytest.raises(ConfigError, match="sharding.shards"):
            ShardingConfig(shards=0)
        with pytest.raises(ConfigError, match="sharding.sync_every_updates"):
            ShardingConfig(sync_every_updates=0)
        with pytest.raises(
            ConfigError, match="durability.checkpoint_interval"
        ):
            DurabilityConfig(checkpoint_interval=0)
        with pytest.raises(ConfigError, match="tenancy.min_bytes"):
            TenancyConfig(min_bytes=-1)

    def test_flat_validation_messages_are_preserved(self):
        with pytest.raises(PlanError, match="shards must be >= 1"):
            EngineConfig(shards=0)
        with pytest.raises(ConfigError, match="wal_fsync_every"):
            EngineConfig(wal_fsync_every=0)
        with pytest.raises(ConfigError, match="cache_recovery"):
            EngineConfig(cache_recovery="magic")


class TestUnifiedRunApi:
    def test_run_dispatches_on_the_sharding_config(self):
        serial = Session.adaptive(FACTORY).run(arrivals=300)
        sharded = Session.adaptive(
            FACTORY, EngineConfig(sharding=ShardingConfig(shards=2))
        ).run(arrivals=300)
        # One entry point, two execution paths: the sharded result is
        # the parallel stats object, the serial one the engine report.
        # run() returns deltas from both paths — the sharded path is
        # merged back into global arrival order.
        assert serial and sharded
        assert len(sharded) == len(serial)

    def test_execute_itself_does_not_warn(self):
        session = Session.adaptive(
            FACTORY, EngineConfig(sharding=ShardingConfig(shards=2))
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            session.execute(300)

    def test_coordinate_false_opts_out_of_the_adaptivity_plane(self):
        session = Session.adaptive(
            FACTORY,
            EngineConfig(
                sharding=ShardingConfig(shards=2, coordinate=False)
            ),
        )
        spec = session.experiment(300)
        assert spec.adaptivity is None
        coordinated = Session.adaptive(
            FACTORY, EngineConfig(sharding=ShardingConfig(shards=2))
        ).experiment(300)
        assert coordinated.adaptivity is not None
        assert coordinated.adaptivity.sync_every_updates == 2000
