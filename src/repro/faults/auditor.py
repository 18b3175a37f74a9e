"""Sampling cache coherence auditor: detach poisoned caches, rebuild later.

Definition 3.1 promises present-key equality with the true segment join
and never completeness, so *dropping* a cache is always safe — which makes
"detach and fall back to the cache-free MJoin pipeline" the universally
correct response to a cache caught lying. The auditor cross-checks a few
store entries per audit round against recomputed truth:

* every segment relation is bound in each cached composite;
* each referenced row is still live in its window, with equal values;
* the intra-segment join predicates hold;
* the composite re-derives the entry key it is stored under.

Any violation (or any exception while checking — a poisoned entry may be
arbitrarily malformed) detaches the whole cache, records a
``coherence_detach`` decision, and schedules a rebuild: after
``rebuild_after_updates`` more updates the candidate is re-attached (and
repopulates through the normal miss path), unless the re-optimizer already
re-selected it or the pipeline's ordering changed underneath it.

Sampling is deterministic — a rotating cursor over the store's entries,
no randomness — so chaos runs stay reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ConfigError, PlanError
from repro.obs.decisions import COHERENCE_DETACH, COHERENCE_REBUILD


@dataclass(frozen=True)
class AuditorConfig:
    """How often to audit, how much to check, when to rebuild."""

    audit_every_updates: int = 500   # audit round cadence
    entries_per_audit: int = 4       # store entries checked per cache
    rebuild_after_updates: int = 2000  # quarantine length before re-attach


class CoherenceAuditor:
    """Cross-checks wired cache entries against recomputed truth."""

    def __init__(
        self,
        executor,
        config: Optional[AuditorConfig] = None,
        state_listener=None,
    ):
        self.executor = executor
        self.config = config if config is not None else AuditorConfig()
        if self.config.audit_every_updates <= 0:
            raise ConfigError(
                "auditor audit_every_updates must be positive, got "
                f"{self.config.audit_every_updates}"
            )
        self.wiring = None
        # The re-optimizer (when adaptive): keeps its candidate-state
        # machine consistent with auditor-driven detach/attach.
        self.state_listener = state_listener
        self._updates = 0
        self._cursor = 0
        self._pending_rebuilds: List[Tuple[int, object]] = []
        self.entries_checked = 0
        self.detached = 0
        self.rebuilt = 0
        self.rebuild_failures = 0

    def bind_wiring(self, wiring, state_listener=None) -> None:
        """Point the auditor at the live cache wiring (and re-optimizer)."""
        self.wiring = wiring
        if state_listener is not None:
            self.state_listener = state_listener

    def after_update(self, ctx) -> None:
        """Advance the audit clock; run due rebuilds and audit rounds."""
        self._updates += 1
        if self.wiring is None:
            return
        if self._pending_rebuilds:
            self._run_due_rebuilds(ctx)
        if self._updates % self.config.audit_every_updates == 0:
            self._audit_round(ctx)

    # ------------------------------------------------------------------
    # auditing
    # ------------------------------------------------------------------
    def _audit_round(self, ctx) -> None:
        cm = ctx.cost_model
        for candidate_id in sorted(self.wiring.wired):
            wired = self.wiring.wired.get(candidate_id)
            if wired is None:
                continue
            entries = list(wired.cache.store.entries())
            if not entries:
                continue
            start = self._cursor % len(entries)
            checked = min(len(entries), self.config.entries_per_audit)
            poisoned = False
            for i in range(checked):
                key, value = entries[(start + i) % len(entries)]
                ctx.clock.charge(cm.cache_probe)
                self.entries_checked += 1
                if not self._entry_ok(wired.cache, key, value):
                    poisoned = True
                    break
            self._cursor += self.config.entries_per_audit
            if poisoned:
                self._detach(candidate_id, wired, ctx)

    def _entry_ok(self, cache, key, value) -> bool:
        try:
            graph = self.executor.graph
            segment = cache.segment
            intra = [
                p for p in graph.predicates
                if p.left.relation in segment and p.right.relation in segment
            ]
            for rows in value.values():
                # A segment tuple, laid out as cache.segment.
                if len(rows) != len(segment):
                    return False
                for relation, row in zip(segment, rows):
                    live = self.executor.relations[relation].live_row(row.rid)
                    if live is None or live.values != row.values:
                        return False
                for pred in intra:
                    left = rows[segment.index(pred.left.relation)].values[
                        graph.attr_position(pred.left)
                    ]
                    right = rows[segment.index(pred.right.relation)].values[
                        graph.attr_position(pred.right)
                    ]
                    if left != right:
                        return False
                if cache.key.entry_key(rows) != key:
                    return False
            return True
        except Exception:
            # A poisoned entry can be malformed in ways the checks above
            # never anticipated; any blow-up is itself the violation.
            return False

    # ------------------------------------------------------------------
    # detach / rebuild
    # ------------------------------------------------------------------
    def _detach(self, candidate_id: str, wired, ctx) -> None:
        candidate = wired.candidate
        self.wiring.detach(candidate_id)
        self.detached += 1
        ctx.obs.decisions.record(
            ctx.clock.now_us,
            COHERENCE_DETACH,
            candidate_id,
            reason=(
                "audit found entry inconsistent with recomputed truth; "
                "falling back to cache-free pipeline segment"
            ),
        )
        if ctx.obs.enabled:
            ctx.obs.registry.counter(
                "repro_coherence_detach_total", {"candidate": candidate_id}
            ).inc()
        if self.state_listener is not None:
            self.state_listener.on_cache_quarantined(candidate_id)
        self._pending_rebuilds.append(
            (self._updates + self.config.rebuild_after_updates, candidate)
        )

    def _run_due_rebuilds(self, ctx) -> None:
        due = [p for p in self._pending_rebuilds if p[0] <= self._updates]
        if not due:
            return
        self._pending_rebuilds = [
            p for p in self._pending_rebuilds if p[0] > self._updates
        ]
        for _, candidate in due:
            candidate_id = candidate.candidate_id
            if candidate_id in self.wiring.wired:
                # The re-optimizer re-selected it during the quarantine;
                # the store was rebuilt through the normal attach path.
                self.rebuilt += 1
                ctx.obs.decisions.record(
                    ctx.clock.now_us,
                    COHERENCE_REBUILD,
                    candidate_id,
                    reason="already re-attached by the re-optimizer",
                )
                continue
            try:
                self.wiring.attach(candidate)
            except PlanError as error:
                # Orderings moved on; the candidate no longer fits.
                self.rebuild_failures += 1
                ctx.obs.decisions.record(
                    ctx.clock.now_us,
                    COHERENCE_REBUILD,
                    candidate_id,
                    reason=f"rebuild abandoned: {error}",
                )
                continue
            self.rebuilt += 1
            ctx.obs.decisions.record(
                ctx.clock.now_us,
                COHERENCE_REBUILD,
                candidate_id,
                reason="re-attached after quarantine; store repopulates "
                       "through the miss path",
            )
            if self.state_listener is not None:
                self.state_listener.on_cache_rebuilt(candidate_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CoherenceAuditor(checked={self.entries_checked}, "
            f"detached={self.detached}, rebuilt={self.rebuilt})"
        )
