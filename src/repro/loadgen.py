"""``repro.loadgen`` — an open-loop load generator for SLO tests.

A closed-loop driver (send, wait, send again) slows down with the
service, so queueing delay never accumulates and the recorded
latencies flatter the service (*coordinated omission*).
:class:`OpenLoopLoadGen` fires instead at the times of a seeded Poisson
process at ``rate`` requests/second, whether or not earlier requests
have been answered: each firing is its own asyncio task.  Latency is
measured from the request's *scheduled* time, so a driver that falls
behind shows up as latency, never as thinned load.  The same seed
replays the same arrival times and tier picks.

Traffic splits across priority :class:`TierSpec` tiers by weight; each
tier carries a deadline budget and a tenant id, which the ``send``
callable attaches as wire QoS.  :class:`LatencyRecorder` keeps one
observation per scheduled request, shed and hung ones included, in a
closed outcome vocabulary mapped from the typed client errors:

=============================================  =========
raised                                         outcome
=============================================  =========
(returns)                                      ``ok``
:class:`repro.errors.ServiceBusy`              ``busy``
:class:`repro.errors.RequestTimedOut`          ``timeout``
:class:`repro.errors.DeadlineExceeded`,
``asyncio.TimeoutError`` (hang guard)          ``late``
anything else                                  ``error``
=============================================  =========

``tests/test_serve_shedding.py`` drives the 2x overload check with it
(shed, never serve late) and ``tests/test_multitenant.py`` the
multi-tenant workload, read through the per-tenant outcome ledger.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from collections import Counter
from collections.abc import Awaitable, Callable
from dataclasses import dataclass

from repro.errors import DeadlineExceeded, RequestTimedOut, ServiceBusy
from repro.trace.report import percentile

#: The closed outcome vocabulary (see the module docstring).
OUTCOMES = ("ok", "busy", "timeout", "late", "error")

#: One request sender, given the tier the request was assigned to.
Send = Callable[["TierSpec"], Awaitable[object]]


class LatencyRecorder:
    """Per-outcome latency samples with per-tier and per-tenant counts."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()
        self.tier_counts: Counter[tuple[str, int]] = Counter()
        self.tenant_counts: Counter[tuple[str, int]] = Counter()
        self._samples: dict[str, list[float]] = {o: [] for o in OUTCOMES}
        self._tenant_ok: dict[int, list[float]] = {}

    def record(
        self, outcome: str, latency_s: float, tier: int = 0, tenant: int = 0
    ) -> None:
        """Store one observation (latency from *scheduled* arrival)."""
        if outcome not in self._samples:
            raise ValueError(f"unknown outcome {outcome!r}")
        self.counts[outcome] += 1
        self.tier_counts[(outcome, tier)] += 1
        self.tenant_counts[(outcome, tenant)] += 1
        self._samples[outcome].append(latency_s)
        if outcome == "ok":
            self._tenant_ok.setdefault(tenant, []).append(latency_s)

    @property
    def total(self) -> int:
        """Every scheduled request, whatever became of it."""
        return sum(self.counts.values())

    def samples(self, outcome: str = "ok") -> list[float]:
        """The raw latency samples of one outcome (a copy)."""
        return list(self._samples[outcome])

    def tenant_latency_percentile(self, tenant: int, p: float) -> float | None:
        """Exact percentile of one tenant's ``ok`` latencies (seconds)."""
        return percentile(self._tenant_ok.get(tenant, []), p)

    def tenant_ledger(self) -> dict[int, dict[str, int]]:
        """Per-tenant outcome counts (every scheduled request accounted)."""
        tenants = sorted({tenant for _, tenant in self.tenant_counts})
        return {
            tenant: {
                o: self.tenant_counts[(o, tenant)]
                for o in OUTCOMES
                if self.tenant_counts[(o, tenant)]
            }
            for tenant in tenants
        }


@dataclass(frozen=True)
class TierSpec:
    """One priority class of generated traffic.

    ``weight`` is the relative share of arrivals assigned to this
    tier; ``deadline_s`` is the per-request budget the sender should
    attach as wire QoS (``None`` = no deadline); ``tenant`` is the
    tenant id the sender should declare on the wire, so one generator
    can emit a multi-tenant mix.
    """

    tier: int = 0
    weight: float = 1.0
    deadline_s: float | None = None
    tenant: int = 0

    def __post_init__(self) -> None:
        if self.tier < 0:
            raise ValueError("tier must be >= 0")
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")
        if self.tenant < 0:
            raise ValueError("tenant must be >= 0")


class OpenLoopLoadGen:
    """Fire requests open loop at a seeded Poisson ``rate``.

    Gaps are exponential at ``rate`` requests/second, drawn from
    ``random.Random(seed)``; tier picks come from a second, separate
    ``random.Random(seed)``.  ``duration_s`` and/or ``max_requests``
    bound the run (at least one is required).  ``hang_timeout_s`` is
    the last-resort guard around each ``send``: a request nobody ever
    answers is recorded ``late`` instead of wedging the run.
    """

    def __init__(
        self,
        send: Send,
        rate: float,
        *,
        seed: int = 0,
        duration_s: float | None = None,
        max_requests: int | None = None,
        tiers: tuple[TierSpec, ...] = (TierSpec(),),
        hang_timeout_s: float = 30.0,
    ) -> None:
        if not 0 < rate < math.inf:
            raise ValueError("rate must be positive and finite")
        if duration_s is None and max_requests is None:
            raise ValueError("bound the run with duration_s or max_requests")
        if duration_s is not None and duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if max_requests is not None and max_requests < 1:
            raise ValueError("max_requests must be >= 1")
        if not tiers:
            raise ValueError("at least one TierSpec is required")
        if hang_timeout_s <= 0:
            raise ValueError("hang_timeout_s must be positive")
        self._send = send
        self._rate = rate
        self._seed = seed
        self._duration_s = duration_s
        self._max_requests = max_requests
        self._tiers = tiers
        self._hang_timeout_s = hang_timeout_s
        self.recorder = LatencyRecorder()
        self.elapsed_s = 0.0

    async def run(self) -> LatencyRecorder:
        """Drive the full schedule; returns the filled recorder."""
        gaps = random.Random(self._seed)
        picks = random.Random(self._seed)
        weights = [spec.weight for spec in self._tiers]
        start = time.monotonic()
        scheduled = start
        fired = 0
        tasks: set[asyncio.Task[None]] = set()
        while self._max_requests is None or fired < self._max_requests:
            scheduled += gaps.expovariate(self._rate)
            if self._duration_s is not None and scheduled - start > self._duration_s:
                break
            delay = scheduled - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            # fire even when behind schedule: the lag becomes measured
            # latency (scheduled-time accounting), never thinned load
            spec = picks.choices(self._tiers, weights=weights)[0]
            task = asyncio.create_task(self._fire(spec, scheduled))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
            fired += 1
        if tasks:
            await asyncio.gather(*tasks)
        self.elapsed_s = time.monotonic() - start
        return self.recorder

    async def _fire(self, spec: TierSpec, scheduled: float) -> None:
        try:
            await asyncio.wait_for(self._send(spec), self._hang_timeout_s)
            outcome = "ok"
        except ServiceBusy:
            outcome = "busy"
        except RequestTimedOut:
            outcome = "timeout"
        except (DeadlineExceeded, asyncio.TimeoutError):
            outcome = "late"
        except asyncio.CancelledError:
            raise
        except Exception:  # noqa: BLE001 - the mix is the measurement
            outcome = "error"
        self.recorder.record(
            outcome, time.monotonic() - scheduled, spec.tier, tenant=spec.tenant
        )


__all__ = ["OUTCOMES", "LatencyRecorder", "OpenLoopLoadGen", "TierSpec", "percentile"]
