"""The Profiler of Figure 4: online benefit/cost estimation (Appendix A).

Per pipeline it samples full tuple processing with probability ``p``:
profiled tuples bypass caches, and per operator we record ``δj`` (tuples
processed) and ``τj`` (virtual time spent). Estimates are windowed means
over the last ``W`` observations (Table 1):

    dij = rate(Ri) · sum(δj)/W        cij = sum(τj)/sum(δj)

``miss_prob`` comes from Bloom-filter lookups for unused candidates
(:class:`repro.caching.bloom.MissProbEstimator`) and from direct
observation for used caches. ``probe_cost``/``update_cost`` derive from
the constant key width and the mean tuples-per-entry ``d_out/d_probe``
(see :mod:`repro.core.cost_model`).
"""

from __future__ import annotations

import random
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Mapping, Optional

from repro.caching.bloom import MissProbEstimator
from repro.caching.cache import Cache
from repro.core.candidates import CandidateCache
from repro.core.cost_model import CacheStatistics
from repro.mjoin.executor import MJoinExecutor
from repro.operators.cache_ops import BloomLookup
from repro.operators.pipeline import ProfileSample

#: arrivals kept per pipeline for ``rate(Ri)``.
ARRIVAL_WINDOW = 64


def deterministic_gate_hash(seed: int, seq: int) -> float:
    """A uniform-in-[0,1) hash of (seed, seq): the deterministic profile
    gate, shared by every shard so all workers sample the same updates."""
    return (
        zlib.crc32(f"{seed}:{seq}".encode("ascii")) & 0xFFFFFFFF
    ) / 4294967296.0


@dataclass
class ProfilerConfig:
    """Tunables, with Section 7.1 defaults where the paper gives them."""

    window: int = 10                # W: observations per estimated statistic
    profile_probability: float = 0.05
    bloom_window_tuples: int = 256  # Wd (must span the window-expiry reuse distance)
    bloom_alpha: float = 4.0        # α: bits per window tuple
    seed: int = 17
    # Gate sampling by a hash of (seed, global seq) instead of a local
    # RNG stream. Under sharding every worker then profiles the *same*
    # global update set, so cross-shard merged statistics match what a
    # serial profiler would have measured (repro.parallel.adaptivity).
    deterministic_gate: bool = False


class PipelineProfile:
    """Windowed δ/τ statistics for one pipeline."""

    def __init__(self, owner: str, slots: int, window: int):
        self.owner = owner
        self.slots = slots
        # One δ window per slot 0..slots (slot ``slots`` = final outputs),
        # one τ window per operator 0..slots-1.
        self.delta_windows: List[Deque[int]] = [
            deque(maxlen=window) for _ in range(slots + 1)
        ]
        self.tau_windows: List[Deque[float]] = [
            deque(maxlen=window) for _ in range(slots)
        ]
        self._window = window
        self._arrival_times: Deque[float] = deque(maxlen=ARRIVAL_WINDOW)

    def record_sample(self, sample: ProfileSample) -> None:
        """Fold one profiled tuple's δ/τ measurements into the windows."""
        for slot, delta in enumerate(sample.deltas[: self.slots + 1]):
            self.delta_windows[slot].append(delta)
        for position, tau in enumerate(sample.taus[: self.slots]):
            self.tau_windows[position].append(tau)

    def record_arrival(self, now_us: float) -> None:
        """Note an update's (virtual) arrival time for rate estimation."""
        self._arrival_times.append(now_us)

    def rate(self) -> float:
        """Updates per second of virtual time, over the recent window."""
        if len(self._arrival_times) < 2:
            return 0.0
        span_us = self._arrival_times[-1] - self._arrival_times[0]
        if span_us <= 0:
            return 0.0
        return (len(self._arrival_times) - 1) / (span_us / 1e6)

    def ready(self) -> bool:
        """True once every statistic has W observations (Section 4.5)."""
        return all(
            len(window) >= self._window for window in self.delta_windows
        )

    def d(self, slot: int) -> float:
        """dij: tuples/sec entering ``slot`` (slot==slots → output rate)."""
        window = self.delta_windows[slot]
        if not window:
            return 0.0
        mean_delta = sum(window) / len(window)
        return self.rate() * mean_delta

    def c(self, position: int) -> float:
        """cij: µs per tuple in operator ``position``."""
        total_delta = sum(self.delta_windows[position])
        if total_delta == 0:
            return 0.0
        return sum(self.tau_windows[position]) / total_delta


class PooledProfile(PipelineProfile):
    """One pipeline's δ/τ windows pooled across shards.

    The windows are unbounded, so a shard with more samples weights the
    means proportionally, and ``rate`` is the sum of the shards' rates.
    ``ready``/``d``/``c`` are :class:`PipelineProfile`'s own.
    """

    def __init__(self, owner: str, slots: int, window: int):
        super().__init__(owner, slots, window)
        self.delta_windows = [deque() for _ in range(slots + 1)]
        self.tau_windows = [deque() for _ in range(slots)]
        self._rate = 0.0

    def fold(self, snapshot) -> None:
        """Add one shard's ``PipelineSnapshot`` windows and rate."""
        for slot, window in enumerate(
            snapshot.delta_windows[: self.slots + 1]
        ):
            self.delta_windows[slot].extend(window)
        for position, window in enumerate(
            snapshot.tau_windows[: self.slots]
        ):
            self.tau_windows[position].extend(window)
        self._rate += snapshot.rate

    def rate(self) -> float:
        return self._rate


def candidate_statistics(
    candidate: CandidateCache,
    profiles: Mapping[str, PipelineProfile],
    miss_prob: Optional[float],
) -> Optional[CacheStatistics]:
    """Appendix A: assemble a candidate's :class:`CacheStatistics` from
    per-pipeline profiles and its miss probability, or None while some
    profile it reads is not ready or ``miss_prob`` is unknown."""
    profile = profiles.get(candidate.owner)
    if profile is None or not profile.ready() or miss_prob is None:
        return None
    maintenance_slot = len(candidate.maintenance_set) - 1
    maintenance_rate = 0.0
    for member in sorted(candidate.tap_relations):
        member_profile = profiles.get(member)
        if member_profile is None or not member_profile.ready():
            return None
        maintenance_rate += member_profile.d(maintenance_slot)
    segment = range(candidate.start, candidate.end + 1)
    return CacheStatistics(
        segment_d=[profile.d(slot) for slot in segment],
        segment_c=[profile.c(slot) for slot in segment],
        d_out=profile.d(candidate.end + 1),
        miss_prob=miss_prob,
        maintenance_rate=maintenance_rate,
        key_width=max(1, len(candidate.key_signature)),
        anchor_size=len(candidate.anchor),
    )


def estimate_candidates(
    candidates: Mapping[str, CandidateCache],
    profiles: Mapping[str, PipelineProfile],
    miss_prob: Callable[[str], Optional[float]],
) -> Dict[str, CacheStatistics]:
    """Statistics for every candidate that has them, in candidate order."""
    stats: Dict[str, CacheStatistics] = {}
    for candidate_id, candidate in candidates.items():
        estimate = candidate_statistics(
            candidate, profiles, miss_prob(candidate_id)
        )
        if estimate is not None:
            stats[candidate_id] = estimate
    return stats


def expected_entries(
    miss_prob: Optional[float], bloom_window_tuples: int
) -> float:
    """Expected steady-state entry count of a candidate's store.

    Appendix A: the Bloom filter's distinct estimate doubles as the
    memory-requirement estimate. ``miss_prob × Wd`` is the distinct key
    count of one estimation window; the store saturates at the live key
    population, which that window's distinct count tracks up to the keys
    it did not sample — the factor 2 covers them (exact when the window
    spans about half the key population, conservative beyond).
    """
    if miss_prob is None:
        return 0.0
    return 2.0 * miss_prob * bloom_window_tuples


class Profiler:
    """Samples execution, tracks rates, and estimates candidate statistics."""

    def __init__(
        self,
        executor: MJoinExecutor,
        config: Optional[ProfilerConfig] = None,
    ):
        self.executor = executor
        self.config = config if config is not None else ProfilerConfig()
        self._rng = random.Random(self.config.seed)
        # deterministic_gate_hash's CRC over the constant "<seed>:" prefix;
        # the gate continues it over each seq's digits.
        self._gate_crc = zlib.crc32(f"{self.config.seed}:".encode("ascii"))
        self.profiles: Dict[str, PipelineProfile] = {}
        self.miss_windows: Dict[str, Deque[float]] = {}
        # candidate_id -> (owner, estimator); the estimator handle enables
        # duty cycling (pause once W observations are in).
        self._installed_blooms: Dict[str, tuple] = {}
        self.rebuild_profiles()
        executor.profile_gate = self._gate
        executor.sample_sink = self._sink

    # ------------------------------------------------------------------
    # wiring into the executor
    # ------------------------------------------------------------------
    def rebuild_profiles(self, owner: Optional[str] = None) -> None:
        """(Re)create per-pipeline windows — after an ordering change the
        old δ/τ measurements describe a different plan and are discarded.

        Arrival times survive the rebuild: ``rate(Ri)`` describes the
        *stream*, not the plan, so the accumulated rate history stays
        valid across reorders and coordinator plan pushes — without it
        every rebuild would stall all estimates for ``ARRIVAL_WINDOW``
        arrivals (the warm-stats regression this preserves against).
        """
        owners = [owner] if owner else list(self.executor.pipelines)
        for name in owners:
            pipeline = self.executor.pipelines[name]
            fresh = PipelineProfile(
                name, pipeline.slots, self.config.window
            )
            previous = self.profiles.get(name)
            if previous is not None:
                fresh._arrival_times.extend(previous._arrival_times)
            self.profiles[name] = fresh
            pipeline.observation_sink = self._observe_miss

    def _gate(self, relation: str, seq: Optional[int] = None) -> bool:
        profile = self.profiles.get(relation)
        if profile is not None:
            # PipelineProfile.record_arrival, inlined on the per-update path.
            profile._arrival_times.append(self.executor.ctx.clock.now_us)
        config = self.config
        if config.deterministic_gate and seq is not None:
            # deterministic_gate_hash(seed, seq), bit for bit.
            return (
                zlib.crc32(b"%d" % seq, self._gate_crc) & 0xFFFFFFFF
            ) / 4294967296.0 < config.profile_probability
        return self._rng.random() < config.profile_probability

    def _sink(self, relation: str, sample: ProfileSample) -> None:
        profile = self.profiles.get(relation)
        if profile is not None:
            profile.record_sample(sample)
        ctx = self.executor.ctx
        if ctx.obs.enabled:
            ctx.obs.tracer.emit(
                "profile_sample",
                ctx.clock.now_us,
                pipeline=relation,
                deltas=list(sample.deltas),
                taus=[round(t, 3) for t in sample.taus],
            )

    def _observe_miss(self, candidate_id: str, observation: float) -> None:
        window = self.miss_windows.setdefault(
            candidate_id, deque(maxlen=self.config.window)
        )
        window.append(observation)
        # Duty cycling: one observation per re-optimization cycle keeps
        # steady-state hashing cost negligible; the W-deep window then
        # spans several cycles, which matches the paper's "react gradually
        # to changes that make an unused cache useful".
        installed = self._installed_blooms.get(candidate_id)
        if installed is not None:
            installed[1].paused = True

    def reactivate_blooms(self) -> None:
        """Resume paused estimators (called at each re-optimization cycle)."""
        for _owner, estimator in self._installed_blooms.values():
            estimator.paused = False

    # ------------------------------------------------------------------
    # miss-probability plumbing
    # ------------------------------------------------------------------
    def install_bloom(self, candidate: CandidateCache) -> None:
        """Attach a profile-mode lookup for an unused candidate."""
        if candidate.candidate_id in self._installed_blooms:
            return
        from repro.caching.key import CacheKey

        key = CacheKey(
            self.executor.graph, candidate.prefix, candidate.segment
        )
        estimator = MissProbEstimator(
            window_tuples=self.config.bloom_window_tuples,
            alpha=self.config.bloom_alpha,
            # Delete probes almost surely hit a prefix-invariant cache but
            # consume a globally-consistent cache's entry, so only the
            # former get the optimistic sign-aware distinct counting.
            sign_aware=not candidate.is_global,
        )
        bloom = BloomLookup(
            candidate.candidate_id, key, candidate.start, estimator
        )
        self.executor.pipelines[candidate.owner].attach_bloom(bloom)
        self._installed_blooms[candidate.candidate_id] = (
            candidate.owner,
            estimator,
        )

    def remove_bloom(self, candidate_id: str) -> None:
        """Detach a candidate's profile-mode lookup, if installed."""
        installed = self._installed_blooms.pop(candidate_id, None)
        if installed is not None and installed[0] in self.executor.pipelines:
            self.executor.pipelines[installed[0]].detach_bloom(candidate_id)

    def harvest_used_cache(
        self, candidate_id: str, cache: Cache, min_probes: int = 300
    ) -> None:
        """Record the directly observed miss probability of a used cache
        and reset its counters (Appendix A, in-use case).

        Observations are skipped while the cache is still *populating*:
        a fresh cache misses once per distinct key regardless of its
        steady-state quality, so folding the fill-phase miss spike into
        the statistics makes the re-optimizer deselect caches it just
        chose. Maturity is self-calibrating — during the fill phase
        probes ≈ entries (each miss creates one entry), so we wait until
        probes comfortably exceed the entry count.
        """
        if cache.probes < max(min_probes, 2 * cache.entry_count):
            return
        self._observe_miss(candidate_id, cache.observed_miss_prob)
        cache.reset_counters()

    # ------------------------------------------------------------------
    # estimates
    # ------------------------------------------------------------------
    def miss_prob(self, candidate_id: str) -> Optional[float]:
        """Windowed mean miss-probability estimate for a candidate, or None."""
        window = self.miss_windows.get(candidate_id)
        if not window:
            return None
        return sum(window) / len(window)

    def statistics_for(
        self, candidate: CandidateCache
    ) -> Optional[CacheStatistics]:
        """Assemble :class:`CacheStatistics`, or None if data is missing."""
        return candidate_statistics(
            candidate, self.profiles, self.miss_prob(candidate.candidate_id)
        )

    def expected_entries(self, candidate: CandidateCache) -> float:
        """Expected steady-state entry count of a candidate's store
        (:func:`expected_entries` at this profiler's ``Wd``)."""
        return expected_entries(
            self.miss_prob(candidate.candidate_id),
            self.config.bloom_window_tuples,
        )
