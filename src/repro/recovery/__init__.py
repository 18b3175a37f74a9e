"""Durability for continuous queries: WAL, checkpoints, recovery.

The paper's engine assumes an always-up process; this package adds the
production-side durability story on top of the deterministic core:

* :mod:`repro.recovery.wal` — an append-only, length-prefixed JSONL
  write-ahead log of canonical update events with fsync batching;
* :mod:`repro.recovery.journal` — the service's delta journal: what
  processed updates emitted, appended in the WAL's record framing
  (:mod:`repro.recovery.framing`) so checkpoints need not carry it;
* :mod:`repro.recovery.snapshot` — a versioned, checksummed snapshot
  container and the on-disk checkpoint store;
* :mod:`repro.recovery.manager` — the :class:`Recorder` that journals a
  run and the :class:`RecoveryManager` that restores the latest valid
  checkpoint and replays the WAL suffix, byte-identically.

Because stream generation, fault rewriting, and the engine itself are
fully deterministic, recovery composes three sources: checkpoint state
(everything ≤ the checkpoint seq), WAL replay (the durable suffix), and
re-fed source updates (everything past the WAL tail).
"""

from repro.recovery.manager import (
    CACHE_MODES,
    Recorder,
    RecoveredState,
    RecoveryConfig,
    RecoveryManager,
)
from repro.recovery.snapshot import CheckpointStore, decode_snapshot, encode_snapshot
from repro.recovery.wal import WriteAheadLog, read_wal

__all__ = [
    "CACHE_MODES",
    "CheckpointStore",
    "Recorder",
    "RecoveredState",
    "RecoveryConfig",
    "RecoveryManager",
    "WriteAheadLog",
    "decode_snapshot",
    "encode_snapshot",
    "read_wal",
]
