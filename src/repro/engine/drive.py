"""The one drive loop: journal, micro-batch, process, hand off, checkpoint.

Every in-process runner feeds its engine through a :class:`Driver` and
keeps only its source loop (routing, warm-up cut, epoch barriers, fault
injection, kill points). ``offer`` journals an update before the engine
sees it, then processes it or buffers it into a :class:`DeltaBatch`. At
each safe point — after an update or a batch — the driver calls
``sink(update, deltas)`` per update, marks them processed, and
checkpoints if one is due, evaluating ``state()`` only then. A caller
that needs a safe point mid-stream calls :meth:`Driver.flush` first.
See DESIGN.md §8.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from repro.streams.events import DeltaBatch, OutputDelta, Update


class Driver:
    """Feeds one plan: journal-before-process, micro-batches, safe points.

    ``replayed`` counts updates a restore already replayed from the
    journal: processed, so they count toward the next checkpoint, but not
    journaled again.
    """

    def __init__(
        self,
        plan,
        sink: Optional[Callable[[Update, List[OutputDelta]], None]] = None,
        batch_size: int = 1,
        recorder=None,
        state: Optional[Callable[[], dict]] = None,
        replayed: int = 0,
    ):
        self.plan = plan
        self.sink = sink
        self.batch_size = batch_size
        self.recorder = recorder
        self.state = state
        self._pending: List[Update] = []
        if recorder is not None and replayed:
            recorder.mark_processed(replayed)

    def offer(self, update: Update) -> None:
        """Journal ``update``, then process it or add it to the batch."""
        if self.recorder is not None:
            self.recorder.log(update)
        if self.batch_size > 1:
            self._pending.append(update)
            if len(self._pending) >= self.batch_size:
                self.flush()
            return
        deltas = self.plan.process(update)
        if self.sink is not None:
            self.sink(update, deltas)
        if self.recorder is not None:
            self._safe_point(1, update.seq)

    def flush(self) -> None:
        """Process the buffered updates as one micro-batch (if any)."""
        batch, self._pending = self._pending, []
        if not batch:
            return
        per_update = self.plan.process_batch(DeltaBatch(batch))
        if self.sink is not None:
            for update, deltas in zip(batch, per_update):
                self.sink(update, deltas)
        if self.recorder is not None:
            self._safe_point(len(batch), batch[-1].seq)

    def close(self) -> None:
        """End of the source: flush, then make the whole journal durable."""
        self.flush()
        if self.recorder is not None:
            self.recorder.close()

    def _safe_point(self, processed: int, last_seq: int) -> None:
        recorder = self.recorder
        recorder.mark_processed(processed)
        if recorder.due():
            recorder.checkpoint(
                last_seq, self.state() if self.state is not None else None
            )


def drive(
    plan, updates: Iterable[Update], batch_size: int = 1, recorder=None
) -> List[OutputDelta]:
    """Feed a whole update sequence to ``plan`` (journaled when a
    ``recorder`` is given, which is closed at the end); returns every
    delta."""
    outputs: List[OutputDelta] = []
    driver = Driver(
        plan,
        lambda _update, deltas: outputs.extend(deltas),
        batch_size,
        recorder,
    )
    for update in updates:
        driver.offer(update)
    driver.close()
    return outputs
