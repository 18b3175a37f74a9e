"""Length-prefixed record framing, shared by the WAL and the delta journal.

One record is ``<payload-length> <payload>\\n``. The explicit length is
what makes an append-only log crash-tolerant: a torn tail — a record cut
mid-payload by the OS losing un-fsynced pages — fails the length/framing
check, and a reader stops at the last complete record instead of raising.
"""

from __future__ import annotations

import json
from typing import Iterator, Tuple

# Compact JSON, the encoder built once: ``json.dumps`` with non-default
# options constructs one per call.
encode_json = json.JSONEncoder(separators=(",", ":")).encode


def frame(payload: bytes) -> bytes:
    """One record: length prefix + payload + newline."""
    return b"%d %s\n" % (len(payload), payload)


def read_frames(data: bytes) -> Iterator[Tuple[bytes, int]]:
    """``(payload, end_offset)`` of each complete record in ``data``.

    Stops at the first framing violation — a malformed length prefix, a
    payload shorter than declared, a missing terminator. The last
    ``end_offset`` yielded (0 if none) is where the valid prefix ends;
    anything beyond it is a torn tail.
    """
    offset = 0
    size = len(data)
    while offset < size:
        space = data.find(b" ", offset)
        if space < 0:
            return
        try:
            length = int(data[offset:space])
        except ValueError:
            return
        start = space + 1
        end = start + length
        if end >= size or data[end:end + 1] != b"\n":
            return
        offset = end + 1
        yield data[start:end], offset
