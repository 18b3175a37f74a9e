"""Outside-in span recorder for the ledger's per-layer run.

Nothing in ``src/`` knows it is being traced: :func:`installed` swaps
the layers' public methods for timing wrappers and restores the
originals on exit. Each call to a wrapped method is a span — layer,
start, end, parent (the enclosing open span) and the update ``seq`` it
served. Spans are aggregated in memory per layer; the spans of every
``sample_every``-th update are also kept raw and written out with
:meth:`SpanRecorder.write_jsonl` when the run ends.

A layer's self time is its spans' duration minus the part their child
spans cover, so private helpers are billed to the nearest enclosing
boundary. The wrappers' own cost is measured once
(:meth:`SpanRecorder.calibrate`) and taken out again: the part inside
the timed interval from the span itself, the part outside it from the
parent.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

LAYERS = (
    "core.acaching",
    "mjoin.executor",
    "operators.pipeline",
    "operators.join",
    "relations.matching",
    "relations.window_apply",
    "caching.probe",
    "caching.maintain",
    "core.profiler",
    "core.reoptimizer",
    "ordering.agreedy",
    "operators.batch_memo",
)

_now = time.perf_counter_ns


class SpanRecorder:
    """Per-layer span aggregates plus a bounded raw sample."""

    def __init__(self, sample_every: int = 97, raw_cap: int = 20_000):
        self.sample_every = sample_every
        self.raw_cap = raw_cap
        self.index = {name: i for i, name in enumerate(LAYERS)}
        # Open spans, innermost last: [child_ns, span_id].
        self.stack: List[list] = []
        self.raw: List[tuple] = []
        self.self_ns = [0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.max_ns = [0] * len(LAYERS)
        # Wrapper cost per span inside / outside its timed interval, and
        # per count-only call; zero until calibrate() measures them.
        self.inside_ns = 0
        self.outside_ns = 0
        self.count_ns = 0
        self.select_call: Optional[tuple] = None
        self.reset()

    def reset(self) -> None:
        """Zero the aggregates and counters (the raw sample is kept)."""
        for values in (self.self_ns, self.calls, self.max_ns):
            values[:] = [0] * len(LAYERS)
        self.roots = 0
        self.root_ns = 0            # inclusive time of parentless spans
        self.seq = -1
        self.sampling = False
        self.next_id = 0
        self.charges = 0
        self.matching_rows = 0
        self.join_outputs = 0
        self.memo_hits = 0
        self.memo_misses = 0
        self.memo_rows = 0          # rows replayed from the batch memo

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        layer: str,
        fn: Callable,
        enter: Optional[Callable] = None,
        leave: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` as a span of ``layer``.

        ``enter(recorder, args)`` runs before the span opens and
        ``leave(recorder, result)`` after it closes, both untimed.
        """
        rec = self
        idx = self.index[layer]
        stack, raw = self.stack, self.raw
        self_ns, calls, max_ns = self.self_ns, self.calls, self.max_ns
        inside_ns, outside_ns = self.inside_ns, self.outside_ns

        def span(*args, **kwargs):
            if enter is not None:
                enter(rec, args)
            sampled = rec.sampling
            if sampled:
                span_id = rec.next_id
                rec.next_id = span_id + 1
                parent_id = stack[-1][1] if stack else -1
            else:
                span_id = -1
            frame = [0, span_id]
            stack.append(frame)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                duration = end - start
                self_ns[idx] += duration - frame[0] - inside_ns
                calls[idx] += 1
                if duration > max_ns[idx]:
                    max_ns[idx] = duration
                if stack:
                    stack[-1][0] += duration + outside_ns
                else:
                    rec.root_ns += duration
                if sampled:
                    raw.append(
                        (span_id, parent_id, idx, start, end, rec.seq)
                    )
            if leave is not None:
                leave(rec, result)
            return result

        return span

    def count_only(self, fn: Callable) -> Callable:
        """``fn`` with a call counter and no span (``VirtualClock.charge``)."""
        rec = self
        stack = self.stack
        count_ns = self.count_ns

        def counted(*args, **kwargs):
            rec.charges += 1
            if stack:
                stack[-1][0] += count_ns
            return fn(*args, **kwargs)

        return counted

    def calibrate(self, rounds: int = 20_000) -> None:
        """Measure the wrappers' own cost on a no-op."""

        def noop(*_args):
            return None

        def per_call(fn: Callable) -> float:
            best = float("inf")
            for _ in range(3):
                started = _now()
                for _ in range(rounds):
                    fn(None, 0.0)
                best = min(best, (_now() - started) / rounds)
            return best

        self.inside_ns = self.outside_ns = self.count_ns = 0
        bare = per_call(noop)
        wrapped = self.wrap(LAYERS[0], noop)
        total = per_call(wrapped)
        self.reset()
        for _ in range(rounds):
            wrapped(None, 0.0)
        inside = self.self_ns[0] / rounds
        counted = per_call(self.count_only(noop))
        self.inside_ns = round(inside)
        self.outside_ns = max(0, round(total - bare - inside))
        self.count_ns = max(0, round(counted - bare))
        self.reset()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def layer_metrics(self, updates: int) -> Dict[str, float]:
        """``<layer>.self_us_per_update`` / ``.calls_per_update``."""
        out: Dict[str, float] = {}
        for name, idx in self.index.items():
            out[f"{name}.self_us_per_update"] = (
                self.self_ns[idx] / 1e3 / updates
            )
            out[f"{name}.calls_per_update"] = self.calls[idx] / updates
        return out

    def shares(self) -> Dict[str, float]:
        """Each layer's share of the self time over all layers."""
        total = sum(self.self_ns) or 1
        return {
            name: self.self_ns[idx] / total
            for name, idx in self.index.items()
        }

    def write_jsonl(self, path: str, workload: str) -> None:
        """Write the raw span sample, one JSON object per line."""
        origin = min((span[3] for span in self.raw), default=0)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent_id, idx, start, end, seq in self.raw:
                handle.write(
                    json.dumps(
                        {
                            "workload": workload,
                            "seq": seq,
                            "span": span_id,
                            "parent": parent_id,
                            "layer": LAYERS[idx],
                            "start_ns": start - origin,
                            "end_ns": end - origin,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


# ----------------------------------------------------------------------
# enter / leave hooks
# ----------------------------------------------------------------------
def _open_root(rec: SpanRecorder, seq: int) -> None:
    rec.seq = seq
    rec.sampling = (
        rec.roots % rec.sample_every == 0 and len(rec.raw) < rec.raw_cap
    )
    rec.roots += 1


def _enter_update_root(rec: SpanRecorder, args: tuple) -> None:
    _open_root(rec, args[1].seq)


def _enter_batch_root(rec: SpanRecorder, args: tuple) -> None:
    _open_root(rec, args[1][0].seq)


def _enter_executor(rec: SpanRecorder, args: tuple) -> None:
    rec.seq = args[1].seq


def _leave_matching(rec: SpanRecorder, rows: list) -> None:
    rec.matching_rows += len(rows)


def _leave_join(rec: SpanRecorder, outputs: list) -> None:
    rec.join_outputs += len(outputs)


def _leave_memo_get(rec: SpanRecorder, matches: Optional[list]) -> None:
    if matches is None:
        rec.memo_misses += 1
    else:
        rec.memo_hits += 1
        rec.memo_rows += len(matches)


@contextmanager
def installed(rec: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap the layer boundaries for the duration of the block."""
    import repro.core.reoptimizer as reoptimizer_module
    from repro.caching.cache import Cache
    from repro.caching.global_cache import GlobalCache
    from repro.core.acaching import ACaching
    from repro.engine.clock import VirtualClock
    from repro.mjoin.executor import MJoinExecutor
    from repro.operators.base import BatchProbeMemo
    from repro.operators.cache_ops import BloomLookup, CacheUpdate
    from repro.operators.join_op import JoinOperator
    from repro.operators.pipeline import Pipeline
    from repro.ordering.agreedy import AGreedyOrderer
    from repro.relations.relation import Relation

    boundaries = (
        ("core.acaching", ACaching, "process", _enter_update_root, None),
        ("core.acaching", ACaching, "process_batch", _enter_batch_root, None),
        ("mjoin.executor", MJoinExecutor, "process", _enter_executor, None),
        ("mjoin.executor", MJoinExecutor, "process_batch", None, None),
        ("operators.pipeline", Pipeline, "process", None, None),
        ("operators.join", JoinOperator, "apply", None, _leave_join),
        ("operators.join", JoinOperator, "match_rows", None, None),
        ("relations.matching", Relation, "matching", None, _leave_matching),
        ("relations.window_apply", Relation, "insert", None, None),
        ("relations.window_apply", Relation, "delete", None, None),
        ("caching.probe", Cache, "probe", None, None),
        ("caching.maintain", Cache, "create", None, None),
        ("caching.maintain", Cache, "maintain_insert", None, None),
        ("caching.maintain", Cache, "maintain_delete", None, None),
        ("caching.maintain", GlobalCache, "maintain_insert", None, None),
        ("caching.maintain", GlobalCache, "maintain_delete", None, None),
        ("caching.maintain", CacheUpdate, "apply", None, None),
        ("core.profiler", BloomLookup, "apply", None, None),
        ("core.reoptimizer", reoptimizer_module.Reoptimizer, "after_update",
         None, None),
        ("core.reoptimizer", reoptimizer_module.Reoptimizer, "on_reorder",
         None, None),
        ("ordering.agreedy", AGreedyOrderer, "maybe_reorder", None, None),
        ("operators.batch_memo", BatchProbeMemo, "get", None,
         _leave_memo_get),
    )
    originals = []

    def patch(owner, attribute: str, replacement: Callable) -> None:
        originals.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    select = reoptimizer_module.select

    def capturing_select(*args, **kwargs):
        # Kept so the selection micro-benchmark can replay the engine's
        # own candidate set after the wrappers are gone.
        rec.select_call = (args, kwargs)
        return select(*args, **kwargs)

    try:
        for layer, owner, attribute, enter, leave in boundaries:
            patch(
                owner,
                attribute,
                rec.wrap(layer, vars(owner)[attribute], enter, leave),
            )
        patch(VirtualClock, "charge", rec.count_only(VirtualClock.charge))
        patch(reoptimizer_module, "select", capturing_select)
        yield rec
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


def wrap_engine(rec: SpanRecorder, plan) -> None:
    """Wrap the profiler's per-update callbacks on one engine.

    The executor holds them as bound methods taken at construction, so
    a class-level patch cannot reach them; the engine is thrown away
    after the traced pass, so nothing is restored.
    """
    executor = plan.executor
    for attribute in ("profile_gate", "sample_sink"):
        callback = getattr(executor, attribute)
        if callback is not None:
            setattr(
                executor, attribute, rec.wrap("core.profiler", callback)
            )
