"""Adaptive micro-batch scheduling: turning request streams into batches.

PR 1's ``encaps_many``/``decaps_many`` kernels are 11–14x faster than
the scalar loop, but only when fed whole batches.  Independent network
clients each carry one operation, so the serving layer must *coalesce*:
park each arriving request briefly, flush a whole batch to the
vectorized kernel, and fan the results back out — dynamic batching,
exactly as in inference servers.

The scheduler here is a **pure synchronous state machine**: it never
sleeps, spawns nothing, and takes the current time as an argument, so
unit tests drive it deterministically with a fake clock
(``tests/test_serve_scheduler.py``).  The asyncio server wraps it with
a real clock and one timer task.

A batch is keyed by whatever its entries must share to run as one
kernel call — the server passes ``(op, wire param id, tenant)``: the
kernels take one key per lane, so requests under different hosted keys
of one parameter set coalesce.  A queue flushes when

* it reaches its batch limit (flush-on-size; reported to the caller
  straight from :meth:`MicroBatchScheduler.submit`),
* its deadline has expired **and the executor has a free slot**
  (flush-on-deadline; collected by :meth:`MicroBatchScheduler.poll`,
  which is told how many slots are free), or
* nobody else is coming (flush-alone, from ``submit``; below).

**Batch while busy.**  A batch handed to a busy executor only waits in
the executor's FIFO, closed to the requests that arrive meanwhile.  So
``poll(now, free)`` flushes at most ``free`` due queues — most urgent
tier first, then the least-served tenant, then the oldest queue —
and leaves the rest *open*: they keep absorbing arrivals up to their
batch limit (where they flush on size as ever) until a slot frees.
(The caller decides what ``free`` is: the server counts only deadline
flushes against the slots, so size and alone flushes — which bypass
this rule — cannot keep the held queues out for good.)
The paper keeps its one MUL TER busy and feeds it whole operands; a
backend that is already busy is fed whole batches.

**No wait when nobody else is coming.**  A queue remembers its last
flush.  When the previous batch left *alone* (one entry, not a size
flush) and more than ``max_wait_us`` ago, experience says waiting buys
no companion: the entry that would open the queue is returned from
``submit`` at once (trigger ``"alone"``).  The judgement is per queue
and by what its own batches looked like — not by the global gap EWMA
or an idle worker, to both of which a closed loop's first request
after a long kernel looks exactly like light load.  An arrival within
``max_wait_us`` of such a flush opens a waiting queue again.

The deadline is *adaptive*: :class:`AdaptiveDeadlinePolicy` tracks an
EWMA of request inter-arrival gaps and waits roughly as long as it
expects to take to fill the rest of the batch — under heavy load the
wait collapses toward ``min_wait_us`` (the batch fills on its own
anyway), under light load it is capped at ``max_wait_us`` so a lone
request never stalls more than one bounded beat.

**Multi-tenant fairness.**  With several tenants sharing one service,
dispatch order must not let one chatty tenant starve the others within
a QoS tier.  :class:`DeficitRoundRobin` keeps a served-op deficit per
tenant; batches flushing in the same beat are ordered by QoS tier
first and then by how *under-served* their tenant is, and every
dispatched batch charges its tenant's deficit.  The counters are
relative — only differences matter — so they are re-centred once the
least-served tenant passes :data:`DRR_RECENTER_AT` to stay bounded.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from dataclasses import dataclass, field
from typing import Any


#: Share of the expected time to fill a whole batch that a fresh batch
#: may wait (waiting for a *full* batch is rarely worth the tail
#: latency; 75 % of one nearly is).
FILL_FACTOR = 0.75
#: Weight of the newest inter-arrival gap in the gap EWMA.
GAP_ALPHA = 0.2
#: A gap longer than this many ``max_wait_us`` is an idle period, not
#: an inter-arrival time.
IDLE_RESET_FACTOR = 8.0
#: Served-op count of the least-served tenant past which the deficit
#: counters are re-centred.
DRR_RECENTER_AT = 1e9


def _clamp(value: float, lo: float, hi: float) -> float:
    return min(max(value, lo), hi)


class AdaptiveDeadlinePolicy:
    """Tunes how long a fresh batch may wait for more arrivals.

    Maintains an exponentially weighted moving average of the gaps
    between consecutive arrivals (one per scheduler, i.e. across keys:
    the arrival *process* is global even when batches are per-key).
    The wait granted to a newly opened batch is::

        wait_us = clamp(min_wait_us,
                        ewma_gap_us * (max_batch - 1) * FILL_FACTOR,
                        max_wait_us)

    — the expected time for the remaining slots to fill, discounted by
    :data:`FILL_FACTOR`.  Before any gap has been observed the policy
    is maximally patient (``max_wait_us``).

    **Idle gaps are not traffic.**  A pause longer than
    ``IDLE_RESET_FACTOR * max_wait_us`` (a burst ending, a quiet
    night) says nothing about the arrival rate of the *next* burst —
    folding it into the EWMA would poison the estimate for many
    arrivals afterwards (at :data:`GAP_ALPHA` a single huge gap
    keeps the policy maximally patient long into a fast burst, the
    opposite of what the burst needs).  Such gaps therefore
    :meth:`reset` the estimator instead of feeding it: the next burst
    starts from the patient prior, exactly like the first one did.
    Gaps up to the threshold still feed the EWMA, so genuinely slow but
    steady traffic keeps adapting normally.
    """

    def __init__(
        self,
        max_wait_us: float = 2000.0,
        min_wait_us: float = 50.0,
    ) -> None:
        if min_wait_us > max_wait_us:
            raise ValueError("min_wait_us must not exceed max_wait_us")
        self.max_wait_us = max_wait_us
        self.min_wait_us = min_wait_us
        self._ewma_gap_us: float | None = None
        self._last_arrival: float | None = None

    def observe_arrival(self, now: float) -> None:
        """Feed one arrival timestamp (seconds) into the gap EWMA.

        A gap beyond ``IDLE_RESET_FACTOR * max_wait_us`` is an idle
        period, not an inter-arrival time: it resets the estimator
        rather than feeding it (see the class docstring).
        """
        if self._last_arrival is not None:
            gap_us = max(0.0, (now - self._last_arrival) * 1e6)
            if gap_us > IDLE_RESET_FACTOR * self.max_wait_us:
                self.reset()
            elif self._ewma_gap_us is None:
                self._ewma_gap_us = gap_us
            else:
                self._ewma_gap_us += GAP_ALPHA * (gap_us - self._ewma_gap_us)
        self._last_arrival = now

    def reset(self) -> None:
        """Forget the learned arrival rate (used after idle periods)."""
        self._ewma_gap_us = None

    def wait_us(self, max_batch: int) -> float:
        """The wait budget (µs) to grant a batch opening now."""
        if self._ewma_gap_us is None:
            return self.max_wait_us
        expected_fill = self._ewma_gap_us * max(max_batch - 1, 1) * FILL_FACTOR
        return _clamp(expected_fill, self.min_wait_us, self.max_wait_us)

    @property
    def ewma_gap_us(self) -> float | None:
        """Current inter-arrival EWMA (µs), ``None`` before two arrivals."""
        return self._ewma_gap_us


class DeficitRoundRobin:
    """Deficit counters for tenant fair-share dispatch.

    Each tenant accumulates "work served" (ops) in :meth:`charge`;
    :meth:`balance` reports its counter relative to the *least*-served
    tenant, so a tenant that has been served less sorts first.  Tenants
    are created lazily at first sight with a deficit equal to the
    current minimum (a newcomer is neither favoured nor punished for
    history it was not part of).  Counters are re-centred whenever the
    minimum drifts past :data:`DRR_RECENTER_AT` to keep the floats
    bounded over long uptimes.
    """

    def __init__(self) -> None:
        self._served: dict[Hashable, float] = {}

    def _floor(self) -> float:
        return min(self._served.values()) if self._served else 0.0

    def _touch(self, tenant: Hashable) -> None:
        if tenant not in self._served:
            self._served[tenant] = self._floor()

    def charge(self, tenant: Hashable, ops: float) -> None:
        """Record ``ops`` units of service dispatched for ``tenant``."""
        if ops < 0:
            raise ValueError("ops must be non-negative")
        self._touch(tenant)
        self._served[tenant] += ops
        floor = self._floor()
        if floor > DRR_RECENTER_AT:
            for key in self._served:
                self._served[key] -= floor

    def balance(self, tenant: Hashable) -> float:
        """``tenant``'s served count above the least-served tenant.

        0.0 means maximally under-served (dispatch first); larger means
        the tenant has already had more than its share this round.
        """
        self._touch(tenant)
        return self._served[tenant] - self._floor()

    def snapshot(self) -> dict[Hashable, float]:
        """Relative served counters per tenant (min-normalised)."""
        floor = self._floor()
        return {tenant: served - floor for tenant, served in self._served.items()}


@dataclass
class Batch:
    """A flushed batch: its key, entries, and what triggered the flush."""

    key: Hashable
    entries: list[Any]
    #: ``"size"``, ``"deadline"``, ``"alone"`` or ``"drain"`` — feeds
    #: the metrics.
    trigger: str


@dataclass
class _Queue:
    """One open (not yet flushed) batch."""

    entries: list[Any] = field(default_factory=list)
    deadline: float = 0.0
    limit: int = 1


def _tier_zero(entry: Any) -> int:
    return 0


def _tenant_zero(entry: Any) -> Hashable:
    return 0


class MicroBatchScheduler:
    """Coalesces submitted entries into per-key batches.

    Entries are opaque to the scheduler (the server submits request
    records, the tests submit integers).  The driving contract:

    * call :meth:`submit` per arrival — a returned :class:`Batch`
      (flush-on-size, or flush-alone) dispatches now;
    * call :meth:`poll` with the executor's free slot count whenever
      the clock passes :meth:`next_deadline` or a slot frees —
      returned batches are flush-on-deadline, queues it held back stay
      open;
    * call :meth:`drain` exactly once at shutdown.

    ``priority_of`` makes flushing priority-aware: when several queues
    are due at once (``poll``) or everything flushes (``drain``), the
    batches come back ordered by their most urgent entry (smallest
    value first — the serving layer passes the request's QoS tier), so
    interactive work dispatches ahead of batch work that happened to
    expire in the same beat.  Entry order *within* a batch is
    untouched (a batch executes as one kernel call anyway).

    ``tenant_of`` names each entry's tenant for the deficit-round-robin
    fair share *within* a priority level: ties on the QoS tier break
    toward the tenant whose :attr:`fair_share` balance is lowest, and
    every dispatched batch charges its tenant one deficit unit per
    entry.  Left out, every entry is tier 0 of tenant 0.
    """

    def __init__(
        self,
        max_batch: int = 64,
        policy: AdaptiveDeadlinePolicy | None = None,
        priority_of: Callable[[Any], int] | None = None,
        tenant_of: Callable[[Any], Hashable] | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self.max_batch = max_batch
        self.policy = policy if policy is not None else AdaptiveDeadlinePolicy()
        self.priority_of = priority_of or _tier_zero
        self.tenant_of = tenant_of or _tenant_zero
        self.fair_share = DeficitRoundRobin()
        self._queues: dict[Hashable, _Queue] = {}
        #: when each key's last batch left, for those that left alone
        self._left_alone: dict[Hashable, float] = {}

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(q.entries) for q in self._queues.values())

    def submit(
        self, key: Hashable, entry: Any, now: float, limit: int | None = None
    ) -> Batch | None:
        """Queue one entry; returns a :class:`Batch` to dispatch now on
        flush-on-size or flush-alone.

        ``now`` is the caller's clock reading (seconds); it feeds the
        adaptive policy and stamps the deadline of a newly opened
        batch.  ``limit`` caps the batch a newly opened queue collects
        below ``max_batch`` (a key whose kernel amortises nothing
        passes 1).
        """
        self.policy.observe_arrival(now)
        queue = self._queues.get(key)
        if queue is None:
            left_alone = self._left_alone.get(key)
            if (
                left_alone is not None
                and (now - left_alone) * 1e6 > self.policy.max_wait_us
            ):
                return self._flushed(key, [entry], "alone", now)
            queue = self._queues[key] = _Queue(
                deadline=now + self.policy.wait_us(self.max_batch) * 1e-6,
                limit=min(limit or self.max_batch, self.max_batch),
            )
        queue.entries.append(entry)
        if len(queue.entries) >= queue.limit:
            del self._queues[key]
            return self._flushed(key, queue.entries, "size", now)
        return None

    def _flushed(
        self, key: Hashable, entries: list[Any], trigger: str, now: float
    ) -> Batch:
        """The batch leaving ``key``'s queue: remember whether it left
        alone, and charge it to its tenant."""
        if len(entries) == 1 and trigger != "size":
            self._left_alone[key] = now
        else:
            self._left_alone.pop(key, None)
        batch = Batch(key, entries, trigger)
        self._charge(batch)
        return batch

    def _charge(self, batch: Batch) -> None:
        """Charge a dispatched batch to its tenant's deficit counter."""
        self.fair_share.charge(self.tenant_of(batch.entries[0]), len(batch.entries))

    def _ordered(self, keys: list[Hashable]) -> list[Hashable]:
        """Order open queues most-urgent-first: QoS tier, then the DRR
        balance of the queue's tenant, then the oldest (the sort is
        stable and ``keys`` come in the order their queues opened)."""
        if len(keys) < 2:
            return keys
        priority, balance, tenant_of = (
            self.priority_of, self.fair_share.balance, self.tenant_of
        )

        def sort_key(key: Hashable) -> tuple[float, float]:
            entries = self._queues[key].entries
            return (min(priority(e) for e in entries), balance(tenant_of(entries[0])))

        return sorted(keys, key=sort_key)

    def poll(self, now: float, free: int) -> list[Batch]:
        """Flush the queues whose deadline has passed, urgent first —
        at most ``free`` of them.  The rest stay open and keep
        absorbing arrivals until a later call has room."""
        due = self._ordered(
            [key for key, q in self._queues.items() if q.deadline <= now]
        )
        return [
            self._flushed(key, self._queues.pop(key).entries, "deadline", now)
            for key in due[: max(free, 0)]
        ]

    def next_deadline(self) -> float | None:
        """Earliest pending deadline (seconds), ``None`` when idle.
        In the past while :meth:`poll` is holding a due queue back."""
        if not self._queues:
            return None
        return min(q.deadline for q in self._queues.values())

    def drain(self) -> list[Batch]:
        """Flush everything unconditionally, held queues included
        (graceful shutdown)."""
        batches = [
            Batch(key, self._queues.pop(key).entries, "drain")
            for key in self._ordered(list(self._queues))
        ]
        for batch in batches:
            self._charge(batch)
        return batches
