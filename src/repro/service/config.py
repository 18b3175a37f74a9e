"""Service construction knobs: one frozen, validated dataclass.

Mirrors :class:`repro.api.EngineConfig` in style — every tunable of the
streaming service lives here, validation raises
:class:`~repro.errors.ConfigError` naming the offending field, and the
value is immutable so a running service cannot be reconfigured under its
own feet. The engine each hosted query runs on is itself an
``EngineConfig`` (``engine``); the service only adds the knobs the wire
brings in: admission rates, queue bounds, deadlines, degradation
thresholds, and the journal root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.api import EngineConfig
from repro.errors import ConfigError


@dataclass(frozen=True)
class ServiceConfig:
    """Every tunable of the streaming service, in one picklable value.

    Degradation tiers engage when the ingress queue depth (as a fraction
    of ``queue_capacity_updates``) *or* the wall-clock lag of the oldest
    queued batch crosses a threshold — whichever trips first — and
    release with hysteresis once both fall below ``recover_fraction`` of
    the same threshold.
    """

    host: str = "127.0.0.1"
    port: int = 0                          # 0 = ephemeral (bound port reported)
    engine: EngineConfig = field(default_factory=EngineConfig)
    # Multi-query hosting (repro.multi): all registered queries share one
    # MultiQueryEngine — each stream ingested once (relation name =
    # stream identity), inter-query shared caches, one global memory
    # budget arbitrated across tenants. Queries become removable via
    # DELETE /v1/queries/{name}. Incompatible with wal_root (the shared
    # engine has no per-query journal) and with per-engine resilience.
    shared_engine: bool = False
    # Durability: per-query journals live under ``<wal_root>/<query>``.
    # None serves from memory only (a kill loses unacknowledged state,
    # but also voids the acked-updates-survive guarantee — tests only).
    wal_root: Optional[str] = None
    checkpoint_interval: int = 1000        # processed updates between snapshots
    # Admission control: one token bucket per tenant, in updates/second.
    tenant_rate: float = 50_000.0
    tenant_burst: float = 10_000.0
    # While the engine's own load shedder reports degraded, admission
    # rates are multiplied by this (the wire gate tightens before the
    # engine has to shed what it already admitted).
    degraded_rate_factor: float = 0.5
    # Backpressure: the bounded ingress queue, measured in updates.
    queue_capacity_updates: int = 8192
    max_batch_updates: int = 1024          # per ingest request
    # Deadlines (wall-clock seconds).
    request_deadline_s: float = 10.0       # whole-request budget
    header_deadline_s: float = 5.0         # slow-client guard: time to read head
    drain_deadline_s: float = 30.0         # graceful drain budget
    # Degradation ladder thresholds: queue-depth fractions and oldest-
    # batch wall-clock lag, per tier (shed deltas / pause subs / reject).
    shed_depth_fraction: float = 0.50
    pause_depth_fraction: float = 0.75
    reject_depth_fraction: float = 0.95
    shed_lag_s: float = 1.0
    pause_lag_s: float = 4.0
    reject_lag_s: float = 10.0
    recover_fraction: float = 0.5          # hysteresis on the way back down
    # Result-delta retention and subscription flow control.
    delta_log_capacity: int = 65_536       # retained (seq, deltas) entries
    subscriber_buffer: int = 1024          # frames buffered per subscriber
    subscriber_initial_credits: int = 256  # deltas before a credit frame is due
    idempotency_cache_size: int = 1024     # remembered Idempotency-Key replies

    def __post_init__(self) -> None:
        if self.port < 0 or self.port > 65535:
            raise ConfigError(f"service port must be 0..65535, got {self.port}")
        if self.shared_engine:
            if self.wal_root is not None:
                raise ConfigError(
                    "shared_engine is incompatible with wal_root: the "
                    "shared engine keeps no per-query journal"
                )
            if self.engine.resilience is not None:
                raise ConfigError(
                    "shared_engine is incompatible with engine resilience: "
                    "one tenant shedding an update would desynchronize the "
                    "shared windows"
                )
        # Both hosting modes step the engine one update at a time on one
        # shard, and the service owns the journal under wal_root.
        if self.engine.batch_size != 1:
            raise ConfigError(
                "service engines require batch_size 1, got "
                f"{self.engine.batch_size}"
            )
        if self.engine.shards != 1:
            raise ConfigError(
                f"service engines require shards 1, got {self.engine.shards}"
            )
        if self.engine.wal_dir is not None:
            raise ConfigError(
                "service engines must not set wal_dir; the service owns "
                "the per-query journal under wal_root"
            )
        if self.checkpoint_interval < 1:
            raise ConfigError(
                "service checkpoint_interval must be >= 1, got "
                f"{self.checkpoint_interval}"
            )
        if self.tenant_rate <= 0:
            raise ConfigError(
                f"service tenant_rate must be positive, got {self.tenant_rate}"
            )
        if self.tenant_burst <= 0:
            raise ConfigError(
                f"service tenant_burst must be positive, got {self.tenant_burst}"
            )
        if not 0.0 < self.degraded_rate_factor <= 1.0:
            raise ConfigError(
                "service degraded_rate_factor must be in (0, 1], got "
                f"{self.degraded_rate_factor}"
            )
        if self.queue_capacity_updates < 1:
            raise ConfigError(
                "service queue_capacity_updates must be >= 1, got "
                f"{self.queue_capacity_updates}"
            )
        if self.max_batch_updates < 1:
            raise ConfigError(
                "service max_batch_updates must be >= 1, got "
                f"{self.max_batch_updates}"
            )
        for name in ("request_deadline_s", "header_deadline_s",
                     "drain_deadline_s"):
            if getattr(self, name) <= 0:
                raise ConfigError(
                    f"service {name} must be positive, got "
                    f"{getattr(self, name)}"
                )
        fractions = (
            self.shed_depth_fraction,
            self.pause_depth_fraction,
            self.reject_depth_fraction,
        )
        if not all(0.0 < f <= 1.0 for f in fractions):
            raise ConfigError(
                "service depth fractions must be in (0, 1], got "
                f"{fractions}"
            )
        if not (fractions[0] <= fractions[1] <= fractions[2]):
            raise ConfigError(
                "service depth fractions must be non-decreasing "
                f"(shed <= pause <= reject), got {fractions}"
            )
        lags = (self.shed_lag_s, self.pause_lag_s, self.reject_lag_s)
        if not all(lag > 0 for lag in lags):
            raise ConfigError(f"service lag thresholds must be positive: {lags}")
        if not (lags[0] <= lags[1] <= lags[2]):
            raise ConfigError(
                "service lag thresholds must be non-decreasing "
                f"(shed <= pause <= reject), got {lags}"
            )
        if not 0.0 < self.recover_fraction < 1.0:
            raise ConfigError(
                "service recover_fraction must be in (0, 1), got "
                f"{self.recover_fraction}"
            )
        if self.delta_log_capacity < 1:
            raise ConfigError(
                "service delta_log_capacity must be >= 1, got "
                f"{self.delta_log_capacity}"
            )
        if self.subscriber_buffer < 1:
            raise ConfigError(
                "service subscriber_buffer must be >= 1, got "
                f"{self.subscriber_buffer}"
            )
        if self.subscriber_initial_credits < 1:
            raise ConfigError(
                "service subscriber_initial_credits must be >= 1, got "
                f"{self.subscriber_initial_credits}"
            )
        if self.idempotency_cache_size < 1:
            raise ConfigError(
                "service idempotency_cache_size must be >= 1, got "
                f"{self.idempotency_cache_size}"
            )
