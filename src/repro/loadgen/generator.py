"""The open-loop load generator.

:class:`OpenLoopLoadGen` fires requests at the times an
:class:`~repro.loadgen.arrivals.ArrivalProcess` dictates, regardless
of whether earlier requests have been answered — each firing is its
own asyncio task, so a slow service accumulates in-flight work exactly
the way it would behind a real client population.  Latency is measured
from the request's *scheduled* arrival time: if the event loop falls
behind and a request fires 40 ms late, those 40 ms are part of its
recorded latency, not silently forgiven (coordinated omission, again).

Traffic splits across priority :class:`TierSpec` tiers by weight; each
tier carries its own deadline budget, which the driver's ``send``
callable is expected to attach as wire QoS.  Outcomes map from the
typed client errors:

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

The generator is transport-agnostic: ``send`` is any async callable
``(TierSpec) -> Awaitable``; ``tests/test_serve_shedding.py`` binds it
to an :class:`repro.serve.AsyncKemClient` ``encaps``.
"""

from __future__ import annotations

import asyncio
import random
import time
from collections.abc import Awaitable, Callable
from dataclasses import dataclass

from repro.errors import DeadlineExceeded, RequestTimedOut, ServiceBusy
from repro.loadgen.arrivals import ArrivalProcess
from repro.loadgen.recorder import LatencyRecorder

#: One request sender, given the tier the request was assigned to.
Send = Callable[["TierSpec"], Awaitable[object]]


@dataclass(frozen=True)
class TierSpec:
    """One priority class of generated traffic.

    ``weight`` is the relative share of arrivals assigned to this
    tier; ``deadline_s`` is the per-request budget the sender should
    attach as wire QoS (``None`` = no deadline); ``tenant`` is the
    tenant id the sender should declare on the wire, so one generator
    can emit a multi-tenant mix and the recorder keeps the per-tenant
    outcome ledger.
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
    """Fire requests open-loop and record honest latencies.

    ``duration_s`` and/or ``max_requests`` bound the run (at least one
    is required).  ``hang_timeout_s`` is the last-resort guard around
    each ``send`` — a request nobody ever answers is recorded ``late``
    instead of wedging the run.  ``seed`` fixes the tier assignment
    stream; the arrival process carries its own seed.
    """

    def __init__(
        self,
        send: Send,
        arrivals: ArrivalProcess,
        duration_s: float | None = None,
        max_requests: int | None = None,
        tiers: tuple[TierSpec, ...] = (TierSpec(),),
        seed: int = 0,
        hang_timeout_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
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
        self._arrivals = arrivals
        self._duration_s = duration_s
        self._max_requests = max_requests
        self._tiers = tiers
        self._seed = seed
        self._hang_timeout_s = hang_timeout_s
        self._clock = clock
        self.recorder = LatencyRecorder()
        self.elapsed_s = 0.0

    async def run(self) -> LatencyRecorder:
        """Drive the full schedule; returns the filled recorder."""
        rng = random.Random(self._seed)
        weights = [spec.weight for spec in self._tiers]
        start = self._clock()
        scheduled = start
        fired = 0
        tasks: set[asyncio.Task[None]] = set()
        for gap in self._arrivals.gaps():
            scheduled += gap
            if (
                self._duration_s is not None
                and scheduled - start > self._duration_s
            ):
                break
            if self._max_requests is not None and fired >= self._max_requests:
                break
            delay = scheduled - self._clock()
            if delay > 0:
                await asyncio.sleep(delay)
            # fire even when behind schedule: the lag becomes measured
            # latency (scheduled-time accounting), never thinned load
            spec = (
                self._tiers[0]
                if len(self._tiers) == 1
                else rng.choices(self._tiers, weights=weights)[0]
            )
            task = asyncio.create_task(self._fire(spec, scheduled))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
            fired += 1
        if tasks:
            await asyncio.gather(*tasks)
        self.elapsed_s = self._clock() - start
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
            outcome, self._clock() - scheduled, spec.tier, tenant=spec.tenant
        )


__all__ = ["OpenLoopLoadGen", "Send", "TierSpec"]
