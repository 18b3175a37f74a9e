"""The result-delta log and its wire encodings.

What a hosted query emitted, one ``{"seq", "deltas"}`` entry per
processed update, is retained in a :class:`DeltaLog` (``GET /results``
and subscription backfill read it) and pushed to subscribers as
``deltas`` frames — each a :class:`DeltaFrame`, JSON-encoded once per
batch however many subscribers it goes to.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter
from typing import Iterable, List, Tuple

from repro.recovery.framing import encode_json
from repro.streams.events import canonical_delta

_SEQ = itemgetter("seq")
# Trimmed entries are dropped from the list once this many have piled up
# at its head, so a trim costs O(1) amortized.
_COMPACT_AT = 1024


def jsonable_delta(delta) -> list:
    """A JSON-stable form of :func:`canonical_delta` (lists, not tuples)."""
    sign, pairs = canonical_delta(delta)
    return [sign, [[relation, list(values)] for relation, values in pairs]]


class DeltaLog:
    """The retained delta entries, seqs ascending.

    Seqs ascend but need not be contiguous — a member of a shared engine
    logs only the updates it joins, and a poison batch logs nothing — so
    a read bisects to its start instead of computing it.
    """

    def __init__(self, entries: Iterable[dict] = ()):
        self._entries: List[dict] = list(entries)
        self._head = 0              # entries before this index are trimmed

    def __len__(self) -> int:
        return len(self._entries) - self._head

    def append(self, entry: dict) -> None:
        self._entries.append(entry)

    def extend(self, entries: Iterable[dict]) -> None:
        self._entries.extend(entries)

    def trim(self, capacity: int) -> int:
        """Drop the oldest entries beyond ``capacity``; returns how many."""
        excess = len(self) - capacity
        if excess <= 0:
            return 0
        self._head += excess
        if self._head >= _COMPACT_AT:
            del self._entries[:self._head]
            self._head = 0
        return excess

    def since(self, since_seq: int, limit: int) -> List[dict]:
        """Up to ``limit`` entries with ``seq > since_seq``, oldest first."""
        start = bisect_right(
            self._entries, since_seq, lo=self._head, key=_SEQ
        )
        return self._entries[start:start + limit]

    @property
    def trimmed_through(self) -> int:
        """The seq just before the oldest retained entry (-1 when empty)."""
        if not self:
            return -1
        return self._entries[self._head]["seq"] - 1


class DeltaFrame:
    """One ``deltas`` frame, encoded once for every subscriber; only the
    per-subscriber ``gap`` marker is added at send time."""

    __slots__ = ("_body",)

    def __init__(
        self,
        query: str,
        seq_last: int,
        entries: List[dict],
        backfill: bool = False,
    ):
        frame = {
            "type": "deltas",
            "query": query,
            "seq_last": seq_last,
            "entries": entries,
        }
        if backfill:
            frame["backfill"] = True
        self._body = encode_json(frame)[:-1]

    def encode(self, gap: bool = False) -> bytes:
        tail = ',"gap":true}' if gap else "}"
        return (self._body + tail).encode("utf-8")


def log_entries(
    seqs_and_deltas: Iterable[Tuple[int, list]]
) -> List[dict]:
    """One log entry per ``(seq, output deltas)`` pair."""
    return [
        {"seq": seq, "deltas": [jsonable_delta(d) for d in deltas]}
        for seq, deltas in seqs_and_deltas
    ]
