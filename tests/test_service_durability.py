"""The service's durable layout: WAL + delta journal + checkpoints.

A checkpoint holds engine state and a few counters; the delta log is
journaled as it is produced and telemetry is not persisted at all, so a
checkpoint's size — and its pickle + sha256 + fsync time — does not grow
with the server's age. These tests pin that down, and that a killed
server still hands back the byte-identical acknowledged log from the
journal: across checkpoints, with a torn journal tail, and after the log
has trimmed past a journal head.
"""

import json
import os
import random
import time

import pytest

from repro.recovery.journal import JOURNAL_NAME, PREVIOUS_NAME
from repro.recovery.snapshot import CheckpointStore
from repro.service import ServiceClient, ServiceConfig, ServiceThread
from repro.service.deltas import DeltaLog

CHAIN = {
    "kind": "chain",
    "params": {"window_r": 32, "window_s": 32, "window_t": 32},
}


def _triples(start, count):
    arrivals = []
    for value in range(start, start + count):
        v = value % 64
        arrivals += [["R", [v]], ["S", [v, v]], ["T", [v]]]
    return arrivals


def _wait_processed(client, seq, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while client.status("q")["processed_seq"] < seq:
        assert time.monotonic() < deadline, f"engine never reached seq {seq}"
        time.sleep(0.01)


def _ingest(client, batches, per_batch=4, start=0):
    """POST ``batches`` batches of matching triples; returns the last
    acknowledged seq once the engine has processed it."""
    acked_last = -1
    for i in range(batches):
        status, ack = client.ingest(
            "q", _triples(start + i * per_batch, per_batch)
        )
        assert status == 202 and ack["durable"] is True
        acked_last = ack["seq_last"]
    _wait_processed(client, acked_last)
    return acked_last


def _acked_log(client, acked_last):
    """The log through ``acked_last`` as canonical bytes, paged."""
    out, since = [], -1
    while True:
        page = client.results("q", since_seq=since, limit=50)["entries"]
        if not page:
            return out
        out += [json.dumps(e, sort_keys=True) for e in page
                if e["seq"] <= acked_last]
        since = page[-1]["seq"]


def _boot(root, **overrides):
    thread = ServiceThread(ServiceConfig(wal_root=root, **overrides))
    thread.start()
    return thread, ServiceClient(thread.base_url)


# ----------------------------------------------------------------------
# (b) checkpoint size is flat in server age
# ----------------------------------------------------------------------
def test_checkpoint_size_does_not_grow_with_processed_updates(tmp_path):
    root = str(tmp_path / "wal")
    thread, client = _boot(root)   # default checkpoint_interval = 1000
    store = CheckpointStore(os.path.join(root, "q", "checkpoints"))
    try:
        client.register("q", CHAIN)

        def newest_checkpoint_after(updates):
            batches = 0
            while client.status("q")["processed_seq"] < updates:
                _ingest(client, 1, per_batch=20, start=batches * 20)
                batches += 1
            # The worker publishes processed_seq before it writes the
            # interval checkpoint, so wait for the checkpoint that must
            # follow: fewer than checkpoint_interval updates behind.
            processed = client.status("q")["processed_seq"]
            deadline = time.monotonic() + 30.0
            while not store.seqs() or store.seqs()[-1] <= processed - 1_000:
                assert time.monotonic() < deadline, (
                    f"no checkpoint within 1,000 updates of {processed}"
                )
                time.sleep(0.01)
            seq = store.seqs()[-1]
            return seq, os.path.getsize(store.path_for(seq))

        young_seq, young = newest_checkpoint_after(1_100)
        old_seq, old = newest_checkpoint_after(7_100)
        assert young_seq < 2_000 and old_seq >= 6_000
        assert old < 1.5 * young, (young, old)

        payload = store.load(old_seq)
        state = payload["runner_state"]["service"]
        assert "delta_log" not in state
        telemetry = payload["engine"].ctx.obs
        assert len(telemetry.tracer) == 0
        assert telemetry.profiler.snapshot().spans == {}
    finally:
        thread.stop()


# ----------------------------------------------------------------------
# (c) kill / restart reads the delta log back from the journal
# ----------------------------------------------------------------------
def _kill_and_revive(tmp_path, tamper=None, **overrides):
    root = str(tmp_path / "wal")
    thread, client = _boot(root, checkpoint_interval=100, **overrides)
    client.register("q", CHAIN)
    # ~1000 updates in batches of <= 24: a checkpoint every fifth batch
    # or so, and a tail past the last one for the WAL replay to redo.
    acked_last = _ingest(client, 47)
    before_status = client.status("q")
    before = _acked_log(client, acked_last)
    assert before_status["checkpoints"] >= 5
    thread.kill()
    if tamper is not None:
        tamper(os.path.join(root, "q"))

    revived, client2 = _boot(root, checkpoint_interval=100, **overrides)
    try:
        status = client2.status("q")
        assert status["resumed"] is True
        assert 0 < status["replayed_updates"] < acked_last
        assert status["processed_seq"] >= acked_last     # zero acked loss
        assert status["acked_seq"] == acked_last
        assert status["delta_trimmed"] == before_status["delta_trimmed"]
        assert _acked_log(client2, acked_last) == before  # byte-identical
        # ... and the journal keeps working: more load, another kill.
        acked_last = _ingest(client2, 10, start=500)
        again = _acked_log(client2, acked_last)
    finally:
        revived.kill()
    final, client3 = _boot(root, checkpoint_interval=100, **overrides)
    try:
        assert _acked_log(client3, acked_last) == again
    finally:
        final.stop()
    return before_status


def test_recovered_log_is_byte_identical_across_checkpoints(tmp_path):
    status = _kill_and_revive(tmp_path)
    assert status["delta_trimmed"] == 0


def test_torn_journal_tail_is_dropped_and_regenerated(tmp_path):
    def tear(query_dir):
        with open(os.path.join(query_dir, JOURNAL_NAME), "ab") as handle:
            handle.write(b'57 [{"seq":99999,"deltas":[[1,[["R",[')

    _kill_and_revive(tmp_path, tamper=tear)


def test_log_trimmed_past_a_journal_head_recovers_identically(tmp_path):
    seen = {}

    def rotated(query_dir):
        seen["previous"] = os.path.exists(
            os.path.join(query_dir, PREVIOUS_NAME)
        )

    status = _kill_and_revive(tmp_path, tamper=rotated, delta_log_capacity=64)
    assert seen["previous"], "the journal never started a second file"
    assert status["delta_trimmed"] > 64      # trimmed past a whole file
    assert status["delta_log_entries"] == 64


# ----------------------------------------------------------------------
# (d) results paging
# ----------------------------------------------------------------------
def _linear_since(entries, since_seq, limit):
    return [e for e in entries if e["seq"] > since_seq][:limit]


@pytest.mark.parametrize("seed", range(5))
def test_delta_log_since_matches_linear_scan(seed):
    rng = random.Random(seed)
    log, kept, seq = DeltaLog(), [], 0
    for _ in range(3_000):
        seq += rng.choice((1, 1, 1, 3))   # seqs ascend, with gaps
        entry = {"seq": seq, "deltas": []}
        log.append(entry)
        kept.append(entry)
        trimmed = log.trim(700)
        del kept[:trimmed]
    assert len(log) == len(kept) == 700
    assert log.trimmed_through == kept[0]["seq"] - 1
    first, last = kept[0]["seq"], kept[-1]["seq"]
    for since in [-1, 0, first - 5, first - 1, first, last - 1, last,
                  last + 9] + [rng.randrange(first, last) for _ in range(50)]:
        for limit in (1, 7, 1_000):
            assert log.since(since, limit) == _linear_since(
                kept, since, limit
            )
    # Paging from before the trimmed head walks the whole retained log.
    paged, since = [], -1
    while True:
        page = log.since(since, 64)
        if not page:
            break
        paged += page
        since = page[-1]["seq"]
    assert paged == kept
