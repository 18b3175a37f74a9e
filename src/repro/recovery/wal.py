"""The write-ahead update log: append-only, length-prefixed JSONL.

One record per update, in global arrival order, framed as
:mod:`repro.recovery.framing` describes (``<length> <json>\\n``, which
is what lets a reader stop at a torn tail instead of raising). The
payload is the canonical form of one :class:`~repro.streams.events.
Update` — relation, rid, values, sign, and the deterministic global
``seq`` assigned by the window operators (or the fault plan's
renumbering).

Appends are buffered and fsynced in batches of ``fsync_every`` records;
``durable_offset`` tracks the byte position guaranteed on stable
storage. Crash simulation (:meth:`WriteAheadLog.abandon`) truncates the
file back to that offset, modelling the worst-case legal data loss.
Every append charges ``wal_append`` to the engine's virtual clock and
every fsync charges ``wal_fsync``, so durability overhead shows up in
modeled throughput like any other cost.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional, Tuple

from repro.errors import ConfigError, RecoveryError
from repro.recovery.framing import frame, read_frames
from repro.streams.events import Sign, Update
from repro.streams.tuples import Row

_CORRUPT_KEY = "__corrupt__"


def _encode_corrupt(value: object) -> object:
    # The unhashable CorruptValue sentinel is the one non-JSON value a
    # faulted stream can carry; round-trip it through a tagged dict. As
    # the encoder's ``default`` hook this runs for that value only.
    from repro.faults.plan import CorruptValue

    if isinstance(value, CorruptValue):
        return {_CORRUPT_KEY: True}
    raise TypeError(f"{type(value).__name__} is not WAL-serializable")


def _decode_value(value: object) -> object:
    if isinstance(value, dict) and value.get(_CORRUPT_KEY):
        from repro.faults.plan import CORRUPT

        return CORRUPT
    return value


# Built once, like framing.encode_json, plus the corrupt-value hook.
_ENCODE = json.JSONEncoder(
    separators=(",", ":"), default=_encode_corrupt
).encode


def encode_update(update: Update) -> bytes:
    """One WAL record (length prefix + JSON payload + newline)."""
    # Keys in sorted order, so the bytes are what sort_keys would give.
    return frame(_ENCODE({
        "relation": update.relation,
        "rid": update.row.rid,
        "seq": update.seq,
        "sign": int(update.sign),
        "values": update.row.values,
    }).encode("utf-8"))


def decode_payload(data: bytes) -> Update:
    """Rebuild the :class:`Update` one record's JSON payload describes."""
    payload = json.loads(data.decode("utf-8"))
    row = Row(
        payload["rid"], tuple(_decode_value(v) for v in payload["values"])
    )
    return Update(payload["relation"], row, Sign(payload["sign"]), payload["seq"])


def read_wal(path: str) -> Tuple[List[Update], bool, int]:
    """``(updates, torn, valid_bytes)`` for the log at ``path``.

    A missing file reads as an empty log. Any framing violation — a
    malformed length prefix, a payload shorter than declared, a missing
    terminator, unparsable JSON — marks the tail torn and ends the scan
    at the last complete record; recovery treats everything beyond it as
    lost and re-feeds it from the deterministic source. ``valid_bytes``
    is the offset of that last complete record's end, so a torn log can
    be repaired (truncated) before appends resume.
    """
    if not os.path.exists(path):
        return [], False, 0
    with open(path, "rb") as handle:
        data = handle.read()
    updates: List[Update] = []
    valid_bytes = 0
    for payload, end in read_frames(data):
        try:
            updates.append(decode_payload(payload))
        except (ValueError, KeyError, UnicodeDecodeError):
            break
        valid_bytes = end
    return updates, valid_bytes < len(data), valid_bytes


class WriteAheadLog:
    """An open, appendable WAL with fsync batching and cost charging."""

    def __init__(
        self,
        path: str,
        fsync_every: int = 64,
        ctx: Optional[object] = None,
    ):
        if fsync_every < 1:
            raise ConfigError(
                f"wal fsync_every must be >= 1, got {fsync_every}"
            )
        self.path = path
        self.fsync_every = fsync_every
        self._ctx = ctx
        self._file = open(path, "ab")
        self._since_fsync = 0
        # Pre-existing content was fsynced by the writer that produced it
        # (or already survived a crash, which proves the same thing).
        self.durable_offset = self._file.tell()
        self.appended = 0
        self.fsyncs = 0
        self.last_seq = 0
        self._closed = False

    def append(self, update: Update) -> None:
        """Journal one update; fsync when the batch fills."""
        if self._closed:
            raise RecoveryError("append to a closed WAL")
        self._file.write(encode_update(update))
        self.appended += 1
        self.last_seq = update.seq
        if self._ctx is not None:
            self._ctx.clock.charge(self._ctx.cost_model.wal_append)
        self._since_fsync += 1
        if self._since_fsync >= self.fsync_every:
            self.sync()

    def sync(self) -> None:
        """Flush and fsync; everything appended so far becomes durable."""
        if self._closed:
            return
        self._file.flush()
        os.fsync(self._file.fileno())
        self.durable_offset = self._file.tell()
        if self._since_fsync:
            self.fsyncs += 1
            if self._ctx is not None:
                self._ctx.clock.charge(self._ctx.cost_model.wal_fsync)
        self._since_fsync = 0

    def close(self) -> None:
        """Graceful shutdown: make the whole log durable, then close."""
        if self._closed:
            return
        self.sync()
        self._file.close()
        self._closed = True

    def abandon(self) -> None:
        """Crash simulation: lose everything past ``durable_offset``.

        Closes the file and truncates it back to the last fsync, which
        is the worst data loss a real kill can inflict on this format.
        """
        if self._closed:
            return
        self._file.close()
        self._closed = True
        with open(self.path, "ab") as handle:
            handle.truncate(self.durable_offset)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WriteAheadLog({self.path!r}, appended={self.appended}, "
            f"durable={self.durable_offset})"
        )
