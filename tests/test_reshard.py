"""Elastic resharding: a mid-run rescale is invisible in the output.

``ParallelRun.rescale`` repartitions live window state at an update
boundary; the stopped prefix plus the rescaled suffix must render the
same output chronology and leave the same final windows as one
uninterrupted run at the target shard count.
"""

from dataclasses import replace
from functools import partial

import pytest

from repro.errors import ParallelError
from repro.parallel.adaptivity import AdaptivityConfig
from repro.parallel.engine import (
    ParallelConfig,
    output_chronology,
    run_sharded,
)
from repro.parallel.spec import EngineSpec, ExperimentSpec, ReshardSeed
from repro.streams.workloads import fig9_workload

SYNC = 100
ARRIVALS = 500


def _spec(**overrides):
    base = dict(
        workload_factory=partial(fig9_workload, 3, window=24),
        arrivals=ARRIVALS,
        engine=EngineSpec(kind="acaching"),
        adaptivity=AdaptivityConfig(sync_every_updates=SYNC),
        output_mode="deltas",
        collect_windows=True,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


@pytest.mark.parametrize(
    "from_shards,to_shards,backend",
    [
        pytest.param(2, 4, "serial", id="2-4"),
        pytest.param(4, 2, "serial", id="4-2"),
        pytest.param(2, 1, "serial", id="2-1"),
        # A stopped process run rescales on its own backend.
        pytest.param(2, 2, "process", id="2-2-process"),
    ],
)
def test_rescale_output_is_identical_to_a_fixed_shard_run(
    from_shards, to_shards, backend
):
    base = _spec()
    fixed = run_sharded(
        base, ParallelConfig(shards=to_shards, backend="serial")
    )
    stopped = run_sharded(
        replace(base, stop_after_updates=2 * SYNC),
        ParallelConfig(shards=from_shards, backend=backend),
    )
    resumed = stopped.rescale(to_shards)
    assert resumed.backend == backend
    assert output_chronology(stopped, resumed) == output_chronology(fixed)
    assert resumed.merged_windows() == fixed.merged_windows()


def test_rescale_boundary_splits_the_stream_exactly_once():
    base = _spec()
    stopped = run_sharded(
        replace(base, stop_after_updates=2 * SYNC),
        ParallelConfig(shards=2, backend="serial"),
    )
    resumed = stopped.rescale(4, backend="serial")
    stopped_seqs = {seq for seq, _, _ in stopped.merged_deltas()}
    resumed_seqs = {seq for seq, _, _ in resumed.merged_deltas()}
    assert not stopped_seqs & resumed_seqs, (
        "an update produced output on both sides of the boundary"
    )


def test_rescale_requires_a_stop_boundary():
    run = run_sharded(_spec(), ParallelConfig(shards=2, backend="serial"))
    with pytest.raises(ParallelError, match="stop_after_updates"):
        run.rescale(4)


def test_reshard_seed_rejects_negative_skip():
    with pytest.raises(ParallelError, match="skip_source_through"):
        ReshardSeed(skip_source_through=-1, windows={})


def test_stop_after_updates_validates():
    with pytest.raises(ParallelError, match="stop_after_updates"):
        _spec(stop_after_updates=0)


def test_xjoin_engines_cannot_be_resharded():
    with pytest.raises(ParallelError, match="xjoin"):
        ExperimentSpec(
            workload_factory=partial(fig9_workload, 3, window=24),
            arrivals=ARRIVALS,
            engine=EngineSpec(kind="xjoin"),
            reshard=ReshardSeed(skip_source_through=0, windows={}),
        )
