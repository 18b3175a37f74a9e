"""Micro-benchmarks: single layer operations called directly, in isolation.

They decompose the service and sharded numbers into causes (WAL append
and fsync, checkpoint write, restore, response and frame encoding, the
per-update pickle a process shard pays) and give the machine
calibration kernel the ledger normalises by. Inputs are the workloads'
own: the service's chain query, a star6 update.
"""

from __future__ import annotations

import os
import pickle
import shutil
import statistics
import tempfile
import time
from typing import Callable, Dict, List, NamedTuple

from repro.api import EngineConfig, Session
from repro.recovery.manager import Recorder
from repro.recovery.wal import WriteAheadLog, encode_update
from repro.service.http import OP_TEXT, encode_ws_frame, json_response
from repro.streams.events import canonical_delta
from repro.streams.workloads import fig9_workload, three_way_chain

_now = time.perf_counter_ns
ROUNDS = 5


def per_call_ns(fn: Callable[[], object], calls: int) -> float:
    """Median over ``ROUNDS`` rounds of the mean time of one call."""
    rounds: List[float] = []
    for _ in range(ROUNDS):
        started = _now()
        for _ in range(calls):
            fn()
        rounds.append((_now() - started) / calls)
    return statistics.median(rounds)


# What one calibration kernel run takes on the 2-core sandbox when nothing
# else contends for it. Calibrated numbers are (time ÷ kernel time) × this,
# so they read as the sandbox's own times at its undisturbed speed.
NOMINAL_KERNEL_NS = 8_000_000


class Kernel(NamedTuple):
    wall_ns: int
    cpu_ns: int


class _Row:
    __slots__ = ("rid", "values")

    def __init__(self, rid: int, values: tuple):
        self.rid = rid
        self.values = values

    def value(self, position: int):
        return self.values[position]


_ROWS = [_Row(i, (i & 63, i % 7)) for i in range(512)]
_INDEX: Dict[int, List[_Row]] = {}
for _row in _ROWS:
    _INDEX.setdefault(_row.values[0], []).append(_row)


def calibration_kernel() -> Kernel:
    """A fixed pure-Python kernel with the engine's instruction mix and
    none of its code: slotted rows, a hash-index probe, a residual
    check through a method call, a dict copy per match, tuples appended
    to a list. Its time says how fast this machine runs such code right
    now. Each of the sandbox's CPUs flips between two speeds 1.6x apart
    (a neighbour on the host, by the look of it); across that flip this
    kernel tracks the engine's drive loop to within 3.5% on star6 (9% on
    ``expiry_thin``), where a plain dict-and-integer loop was off by
    6-10%."""
    rows, index = _ROWS, _INDEX
    cpu_started = time.process_time_ns()
    started = _now()
    out: list = []
    for i in range(7_000):
        probe = rows[i & 511]
        base = {"R": probe}
        for match in index.get(probe.value(0), ()):
            if match.value(1) == probe.value(1):
                joined = dict(base)
                joined["S"] = match
                out.append((joined, 1))
        if len(out) > 64:
            out = []
    return Kernel(_now() - started, time.process_time_ns() - cpu_started)


def calibration_kernel_ms() -> float:
    """The kernel's wall time, median of five runs."""
    return statistics.median(
        calibration_kernel().wall_ns for _ in range(ROUNDS)
    ) / 1e6


def pickle_update_us() -> float:
    """dumps + loads of one star6 ``Update`` — the per-update cost of
    crossing a process-shard boundary."""
    update = next(iter(fig9_workload(6, window=48).updates(1)))
    return per_call_ns(
        lambda: pickle.loads(pickle.dumps(update, pickle.HIGHEST_PROTOCOL)),
        20_000,
    ) / 1e3


def service_micros(scratch_dir: str) -> Dict[str, float]:
    """The recovery and wire-encoding micros, on the service's query."""
    def chain():
        return three_way_chain(window_r=32, window_s=32, window_t=32)

    updates = list(chain().updates(5_100))[:10_000]
    out: Dict[str, float] = {}
    root = tempfile.mkdtemp(prefix="micro-", dir=scratch_dir)
    try:
        cursor = iter(updates * ROUNDS)
        out["recovery.encode_update_us"] = per_call_ns(
            lambda: encode_update(next(cursor)), len(updates)
        ) / 1e3

        wal = WriteAheadLog(os.path.join(root, "append.wal"),
                            fsync_every=1 << 30)
        cursor = iter(updates * ROUNDS)
        out["recovery.wal_append_us"] = per_call_ns(
            lambda: wal.append(next(cursor)), len(updates)
        ) / 1e3
        wal.close()

        # One fsync per ingest batch of 20 updates, as the service pays.
        wal = WriteAheadLog(os.path.join(root, "fsync.wal"),
                            fsync_every=1 << 30)
        syncs: List[int] = []
        for start in range(0, 600, 20):
            for update in updates[start:start + 20]:
                wal.append(update)
            started = _now()
            wal.sync()
            syncs.append(_now() - started)
        wal.close()
        out["recovery.wal_fsync_ms"] = statistics.median(syncs) / 1e6

        # A journaled 10k-update run with no checkpoint: restore replays
        # the whole WAL through a fresh engine.
        wal_dir = os.path.join(root, "journal")
        config = EngineConfig(wal_dir=wal_dir, checkpoint_interval=1 << 30)
        Session.adaptive(chain(), config).run(updates)
        started = _now()
        restored = Session.adaptive(chain(), config).restore()
        out["recovery.restore_s"] = (_now() - started) / 1e9
        if restored.wal_records != len(updates):
            raise RuntimeError(
                f"restore replayed {restored.wal_records} of "
                f"{len(updates)} journaled updates"
            )

        recorder = Recorder(restored.plan, config.recovery())
        writes: List[int] = []
        for i in range(ROUNDS):
            started = _now()
            recorder.checkpoint(updates[-1].seq + i)
            writes.append(_now() - started)
        recorder.close()
        out["recovery.checkpoint_write_ms"] = statistics.median(writes) / 1e6

        deltas = []
        session = Session.static(chain())
        for update in updates:
            deltas.extend(session.process(update))
            if len(deltas) >= 20:
                break
        body = {
            "type": "deltas",
            "query": "ledger",
            "seq_last": 19,
            "entries": [
                {"seq": i, "deltas": [[s, [[r, list(v)] for r, v in pairs]]]}
                for i, (s, pairs) in enumerate(
                    map(canonical_delta, deltas[:20])
                )
            ],
        }
        out["service.http.json_response_us"] = per_call_ns(
            lambda: json_response(200, body), 2_000
        ) / 1e3
        payload = b"x" * 1024
        out["service.http.ws_frame_encode_us"] = per_call_ns(
            lambda: encode_ws_frame(OP_TEXT, payload), 20_000
        ) / 1e3
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return out
