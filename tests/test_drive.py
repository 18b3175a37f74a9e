"""The one drive loop: journal-before-process, micro-batches, safe points."""

import pytest

from repro.api import EngineConfig, build_adaptive_engine
from repro.engine.drive import Driver
from repro.recovery.manager import Recorder, RecoveryConfig
from repro.streams.workloads import three_way_chain


class _Plan:
    """A stand-in engine that logs what the driver asks of it."""

    def __init__(self, events):
        self.events = events

    def process(self, update):
        self.events.append(("process", update.seq))
        return [f"d{update.seq}"]

    def process_batch(self, batch):
        self.events.append(("batch", tuple(u.seq for u in batch)))
        return [[f"d{u.seq}"] for u in batch]


class _Recorder:
    """A stand-in journal: every safe point is a due checkpoint."""

    def __init__(self, events):
        self.events = events

    def log(self, update):
        self.events.append(("log", update.seq))

    def mark_processed(self, count=1):
        self.events.append(("mark", count))

    def due(self):
        return True

    def checkpoint(self, last_seq, runner_state=None):
        self.events.append(("checkpoint", last_seq, runner_state))

    def close(self):
        self.events.append(("close",))


def _updates(count):
    return list(three_way_chain().updates(count))[:count]


@pytest.mark.parametrize("batch_size", [1, 3])
def test_journal_before_process_and_safe_point_order(batch_size):
    events = []
    updates = _updates(4)
    driver = Driver(
        _Plan(events),
        lambda update, deltas: events.append(("sink", update.seq, deltas)),
        batch_size=batch_size,
        recorder=_Recorder(events),
        state=lambda: "state",
    )
    for update in updates:
        driver.offer(update)
    driver.close()
    seqs = [u.seq for u in updates]
    if batch_size == 1:
        expected = []
        for seq in seqs:
            expected += [
                ("log", seq),
                ("process", seq),
                ("sink", seq, [f"d{seq}"]),
                ("mark", 1),
                ("checkpoint", seq, "state"),
            ]
    else:
        first, last = seqs[:3], seqs[3]
        expected = [("log", seq) for seq in first]
        expected += [("batch", tuple(first))]
        expected += [("sink", seq, [f"d{seq}"]) for seq in first]
        expected += [("mark", 3), ("checkpoint", first[-1], "state")]
        expected += [
            ("log", last),
            ("batch", (last,)),
            ("sink", last, [f"d{last}"]),
            ("mark", 1),
            ("checkpoint", last, "state"),
        ]
    assert events == expected + [("close",)]


def test_replayed_updates_count_toward_the_next_checkpoint():
    events = []
    Driver(_Plan(events), recorder=_Recorder(events), replayed=7)
    assert events == [("mark", 7)]


@pytest.mark.parametrize("batch_size", [1, 16])
def test_state_is_evaluated_only_for_written_checkpoints(tmp_path, batch_size):
    """Runner state can be large (a shard's whole delta list): building it
    on every update would cost O(n^2) copies on a run that checkpoints
    rarely."""
    workload = three_way_chain()
    plan = build_adaptive_engine(workload, EngineConfig())
    recorder = Recorder(
        plan, RecoveryConfig(wal_dir=str(tmp_path), checkpoint_interval=100)
    )
    calls = 0

    def state():
        nonlocal calls
        calls += 1
        return {"calls": calls}

    driver = Driver(
        plan, batch_size=batch_size, recorder=recorder, state=state
    )
    for update in workload.updates(500):
        driver.offer(update)
    driver.close()
    assert recorder.checkpoints >= 4
    assert calls == recorder.checkpoints
