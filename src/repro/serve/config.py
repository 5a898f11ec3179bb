"""Frozen configuration for the KEM service.

:class:`ServiceConfig` replaces the flat keyword sprawl that
:class:`repro.serve.KemService` and :class:`ThreadedService`
constructors had accumulated — one immutable, validated value that can
be built once and handed to any number of services.  It is the only
way a setting reaches a service: nothing here reads the environment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.backend.base import DEFAULT_BACKEND, check_backend_name


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits enforced by the service.

    ``tenant`` is the wire tenant id the limits apply to.  ``None``
    for any limit means unlimited.  ``max_keys`` caps hosted keys
    (KEYGEN and programmatic registration both count);
    ``max_inflight`` caps accepted-but-unanswered requests;
    ``max_sessions`` caps open secure-channel sessions;
    ``ops_per_s`` is a token-bucket rate with ``burst`` capacity
    (default: one second's worth).  Over-quota requests are answered
    ``BUSY`` and counted as ``kem_shed_total{reason="quota"}`` with
    the tenant label.  Tenants without a configured quota are admitted
    without limits (enforcement is opt-in per tenant).
    """

    tenant: int
    max_keys: int | None = None
    max_inflight: int | None = None
    max_sessions: int | None = None
    ops_per_s: float | None = None
    burst: float | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.tenant <= 0xFF:
            raise ValueError("tenant id must fit one byte")
        # NaN passes the bound checks below, and an infinite rate or
        # burst admits everything: both switch the rate quota off
        for name in ("ops_per_s", "burst"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.max_keys is not None and self.max_keys < 0:
            raise ValueError("max_keys must be >= 0 or None")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1 or None")
        if self.max_sessions is not None and self.max_sessions < 0:
            raise ValueError("max_sessions must be >= 0 or None")
        if self.ops_per_s is not None and self.ops_per_s <= 0:
            raise ValueError("ops_per_s must be > 0 or None")
        if self.burst is not None and self.burst < 1:
            raise ValueError("burst must be >= 1 or None")

    @property
    def bucket_capacity(self) -> float:
        """Token-bucket capacity: ``burst``, else one second of rate."""
        if self.burst is not None:
            return self.burst
        return max(1.0, self.ops_per_s or 1.0)


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of a :class:`repro.serve.KemService`.

    ``max_batch``
        flush-on-size threshold (matches the batch kernels' sweet
        spot);
    ``max_wait_us`` / ``min_wait_us``
        bounds of the adaptive flush deadline
        (:class:`~repro.serve.scheduler.AdaptiveDeadlinePolicy`;
        ``min_wait_us <= max_wait_us``);
    ``high_watermark``
        pending-request bound beyond which new work is rejected
        ``BUSY`` (the bounded queue);
    ``request_timeout``
        seconds an accepted request may wait before its batch runs;
        expired requests are answered ``TIMEOUT`` without executing
        (``None`` disables);
    ``backend``
        execution backend name (``"inline"``/``"thread"``/
        ``"process"``/``"cosim"``), checked at construction — see
        :mod:`repro.backend`;
    ``backend_workers``
        pool size of a backend the service creates, fixed for its life
        — the backend's ``slots``, how many batches run at once
        (``None`` = the backend's default: for ``"thread"``, a pool of
        :data:`~repro.backend.DEFAULT_THREAD_WORKERS` threads the
        service owns and closes like any other);
    ``default_deadline_s``
        latency budget applied to requests that carry no wire QoS
        deadline (``None`` = such requests are never deadline-shed).
        Shedding is always on: a request predicted to miss its
        deadline (``queue_wait + EWMA kernel estimate > deadline``,
        :func:`repro.serve.slo.predicted_miss`) is answered
        ``TIMEOUT``/``BUSY`` *without executing*;
    ``tier_watermarks``
        per-priority-tier admission fractions of ``high_watermark``
        (tier 0 first; requests of tier ``t`` are rejected ``BUSY``
        once pending work reaches ``high_watermark *
        tier_watermarks[t]``, so lower tiers shed first under
        pressure).  Wire tiers beyond the table map onto its last
        entry.
    """

    max_batch: int = 64
    max_wait_us: float = 2000.0
    min_wait_us: float = 50.0
    high_watermark: int = 4096
    request_timeout: float | None = 30.0
    backend: str = DEFAULT_BACKEND
    backend_workers: int | None = None
    default_deadline_s: float | None = None
    tier_watermarks: tuple[float, ...] = (1.0, 0.75, 0.5)
    #: Per-tenant quotas (``()`` = no tenant is limited); see
    #: :class:`TenantQuota` and the "Tenants" section of
    #: ``docs/SERVICE.md``.
    tenant_quotas: tuple[TenantQuota, ...] = ()

    def __post_init__(self) -> None:
        # NaN passes every comparison below (each is False), and an
        # infinite wait or deadline is a second spelling of "never"
        for name in (
            "max_wait_us",
            "min_wait_us",
            "request_timeout",
            "default_deadline_s",
        ):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.high_watermark < 0:
            # 0 is legal: it rejects every request (used by backpressure
            # tests to force the BUSY path deterministically)
            raise ValueError("high_watermark must be >= 0")
        if self.max_wait_us < 0 or self.min_wait_us < 0:
            raise ValueError("wait bounds must be >= 0")
        if self.min_wait_us > self.max_wait_us:
            raise ValueError("min_wait_us must not exceed max_wait_us")
        if self.request_timeout is not None and self.request_timeout <= 0:
            raise ValueError("request_timeout must be > 0 or None")
        if self.backend_workers is not None and self.backend_workers < 1:
            raise ValueError("backend_workers must be >= 1")
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ValueError("default_deadline_s must be > 0 or None")
        if not self.tier_watermarks:
            raise ValueError("tier_watermarks must name at least one tier")
        if any(not 0.0 < f <= 1.0 for f in self.tier_watermarks):
            raise ValueError("tier_watermarks fractions must be in (0, 1]")
        seen_tenants = set()
        for quota in self.tenant_quotas:
            if not isinstance(quota, TenantQuota):
                raise ValueError("tenant_quotas entries must be TenantQuota")
            if quota.tenant in seen_tenants:
                raise ValueError(f"duplicate quota for tenant {quota.tenant}")
            seen_tenants.add(quota.tenant)
        # a typo'd name fails here, not at service start
        check_backend_name(self.backend)


__all__ = [
    "ServiceConfig",
    "TenantQuota",
]
