"""Shared utilities for the figure-regeneration benchmarks."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.engine.drive import drive
from repro.streams.workloads import Workload


def report(text: str) -> None:
    """Print experiment tables past pytest's output capture.

    The benchmark modules regenerate the paper's series as a side effect
    of the test run; writing to the real stdout keeps the tables visible
    in ``pytest benchmarks/ --benchmark-only`` output.
    """
    print(text, file=sys.__stdout__, flush=True)


@dataclass
class ExperimentRow:
    """One x-axis point of a figure: absolute rates plus the ratio.

    ``ratio`` follows the paper's relative graphs: the tuple-processing
    *time* ratio of the caching plan to the MJoin, which equals
    ``rate(MJoin) / rate(caching)``. Values below 1 mean caching wins.
    """

    x: object
    caching_rate: float
    mjoin_rate: float
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        """rate(MJoin)/rate(caching): the paper's relative-graph y value."""
        if self.caching_rate <= 0:
            return float("inf")
        return self.mjoin_rate / self.caching_rate


def format_rows(
    title: str,
    x_label: str,
    rows: Sequence[ExperimentRow],
    extra_keys: Sequence[str] = (),
) -> str:
    """Render an experiment as the paper-style absolute + relative table."""
    lines = [title, "=" * len(title)]
    header = (
        f"{x_label:>16} | {'with caches':>12} | {'MJoin':>12} | "
        f"{'time ratio':>10}"
    )
    for key in extra_keys:
        header += f" | {key:>14}"
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        line = (
            f"{row.x!s:>16} | {row.caching_rate:>12,.0f} | "
            f"{row.mjoin_rate:>12,.0f} | {row.ratio:>10.3f}"
        )
        for key in extra_keys:
            line += f" | {row.extra.get(key, ''):>14}"
        lines.append(line)
    return "\n".join(lines)


def run_static(plan, workload: Workload, arrivals: int) -> float:
    """Run a static plan to completion; returns updates/sec."""
    drive(plan, workload.updates(arrivals))
    ctx = plan.ctx
    return ctx.metrics.throughput(ctx.clock.now_seconds)


def monotone_non_increasing(
    values: Sequence[float], tolerance: float = 0.08
) -> bool:
    """Shape check: a series trends down, allowing per-step noise."""
    return all(
        later <= earlier * (1.0 + tolerance)
        for earlier, later in zip(values, values[1:])
    )


def monotone_non_decreasing(
    values: Sequence[float], tolerance: float = 0.08
) -> bool:
    """Shape check: a series trends up, allowing per-step noise."""
    return all(
        later >= earlier * (1.0 - tolerance)
        for earlier, later in zip(values, values[1:])
    )


def decision_markers(series) -> List[Dict[str, object]]:
    """Plot annotations from a run's series: one marker per decision.

    Each :class:`~repro.engine.runtime.SeriesPoint` carries the
    adaptivity decisions that fired inside its sample window; this
    flattens them into ``{x, action, candidate_id, net, label}`` dicts so
    Figure 12/13-style plots can draw "cache X added here" markers at the
    right x position.
    """
    markers: List[Dict[str, object]] = []
    # Resilience actions are not about a cache, so their labels skip the
    # "cache" noun (candidate_id carries the stream or "engine" instead).
    non_cache_actions = {"quarantine", "shed_start", "shed_stop"}
    for point in series:
        for decision in point.decisions:
            verb = {
                "attach": "added",
                "detach": "dropped",
                "monitor_drop": "dropped (monitor)",
                "memory_reject": "rejected (memory)",
                "memory_evict": "evicted (memory)",
                "quarantine": "quarantined an update",
                "shed_start": "began shedding load",
                "shed_stop": "stopped shedding load",
                "coherence_detach": "dropped (coherence)",
                "coherence_rebuild": "rebuilt (coherence)",
            }.get(decision.action, decision.action)
            noun = "" if decision.action in non_cache_actions else "cache "
            markers.append(
                {
                    "x": point.x,
                    "action": decision.action,
                    "candidate_id": decision.candidate_id,
                    "net": decision.net,
                    "label": f"{noun}{decision.candidate_id} {verb}",
                }
            )
    return markers
