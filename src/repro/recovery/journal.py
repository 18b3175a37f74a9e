"""The delta journal: processed result deltas, appended beside the WAL.

The service retains a log of what each processed update emitted (``GET
/results`` and subscription backfill read it). Recovery cannot recompute
the part of that log at or before a checkpoint — the engine state is
already past it — so it has to be durable; pickling the whole log into
every checkpoint made a checkpoint cost O(server age). Instead each
processed batch's entries are appended here once, as one framed JSON
array (:mod:`repro.recovery.framing`), and a checkpoint only fsyncs what
was appended since the last one.

Two files bound the disk use: when ``deltas.jsonl`` holds at least
``capacity`` entries at a sync it becomes ``deltas.prev.jsonl`` (replacing
the older generation) and a fresh file starts, so the retained log — the
last ``capacity`` entries — is always inside the two.

Entries past a checkpoint need no durability: WAL replay regenerates
them, deterministically. :meth:`DeltaJournal.load` therefore cuts both
files back to the checkpoint's seq (dropping any torn tail with the
rest) and the replayed entries are appended again. A checkpoint is taken
between batches, so the cut never falls inside a record.
"""

from __future__ import annotations

import json
import os
from typing import List

from repro.recovery.framing import encode_json, frame, read_frames

JOURNAL_NAME = "deltas.jsonl"
PREVIOUS_NAME = "deltas.prev.jsonl"


class DeltaJournal:
    """Append-only journal of ``{"seq", "deltas"}`` entries, seqs ascending."""

    def __init__(self, directory: str):
        self.path = os.path.join(directory, JOURNAL_NAME)
        self.previous_path = os.path.join(directory, PREVIOUS_NAME)
        self._file = None
        self._closed = False
        self._entries = 0          # entries in the current file

    def load(self, through_seq: int, capacity: int) -> List[dict]:
        """The last ``capacity`` entries with ``seq <= through_seq``.

        Cuts both files after the last such record — later records and
        a torn tail go; replay re-appends them. Call before appending.
        """
        entries: List[dict] = []
        for path in (self.previous_path, self.path):
            self._entries = 0      # ends as the count of the current file
            if not os.path.exists(path):
                continue
            with open(path, "rb") as handle:
                data = handle.read()
            cut = 0
            for payload, end in read_frames(data):
                try:
                    batch = json.loads(payload)
                except ValueError:
                    break
                if batch[-1]["seq"] > through_seq:
                    break
                entries += batch
                self._entries += len(batch)
                cut = end
            if cut < len(data):
                with open(path, "ab") as handle:
                    handle.truncate(cut)
        return entries[-capacity:]

    def append(self, entries: List[dict]) -> None:
        """Write one batch's entries as a record; durable at the next sync."""
        if self._closed or not entries:
            # Closed: a job that raced a kill must not reopen the file a
            # restarted host may already have cut and appended to.
            return
        if self._file is None:
            self._file = open(self.path, "ab")
        self._file.write(frame(encode_json(entries).encode("utf-8")))
        self._entries += len(entries)

    def sync(self, capacity: int) -> None:
        """Make every appended entry durable; start a new file once the
        current one alone covers the retained log."""
        if self._file is None:
            return
        self._file.flush()
        os.fsync(self._file.fileno())
        if self._entries >= capacity:
            self._file.close()
            self._file = None
            os.replace(self.path, self.previous_path)
            self._entries = 0

    def close(self) -> None:
        """Release the file; later appends are dropped."""
        self._closed = True
        if self._file is not None:
            self._file.close()
            self._file = None
