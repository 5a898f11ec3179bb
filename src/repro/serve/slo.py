"""Admission policy: tenants, deadlines and sessions as sans-IO objects.

:class:`repro.serve.server.KemService` owns the transports, the bounded
queue, the scheduler and the one reply path; the rules for *whether*
and *how* a request is answered are three policy objects it composes.
None does I/O or reads the wall clock (time comes from an injected
clock or as an argument), and a refusal is the typed
:class:`repro.errors.ServiceError` the service answers — so each is
unit-tested alone on a fake clock, like the batch scheduler.

* :class:`TenantPolicy` — the hosted-key table, every lookup scoped to
  the asking tenant, and the quotas: keys, in-flight, an ops/s bucket.
* :class:`DeadlinePolicy` — tier watermarks, the
  :class:`KernelEstimator`, ``request_timeout`` and the deadline sheds
  (:func:`predicted_miss` is their rule).
* :class:`SessionTable` — the open secure channels, tenant-scoped.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Any, Protocol, TypeVar

from repro.errors import BadRequest, KeyNotFound, RequestTimedOut, ServiceBusy
from repro.lac.hybrid import HybridChannel, HybridDecryptionError
from repro.serve.config import ServiceConfig, TenantQuota
from repro.serve.protocol import (
    DEFAULT_TENANT,
    SESSION_TAG_SIZE,
    Op,
    ProtocolError,
    pack_key_id,
    unpack_key_id,
    unpack_session_request,
)


#: Weight of the newest batch duration in the :class:`KernelEstimator`
#: EWMAs.
ESTIMATOR_ALPHA = 0.2


class KernelEstimator:
    """EWMAs of batch duration per ``(op, parameter set)`` key.

    :meth:`observe` is fed one ``(batch duration, operations)`` sample
    per dispatched batch; :meth:`batch_seconds` is how long a
    dispatched batch takes end to end (backend queueing included) —
    the latency a request parked behind the kernel will actually
    experience, so it is the estimate the shedding rule uses.

    Keys are opaque tuples (the service uses ``(op name, param id)``).
    A key never observed falls back to the global EWMA across keys;
    before *any* observation the estimate is ``None`` — the shedding
    rule treats that as "no prediction, admit" so a cold service never
    sheds on a guess.

    Not locked: the service only touches it from the event loop.
    """

    def __init__(self) -> None:
        self._batch_s: dict[object, float] = {}
        self._global_batch_s: float | None = None

    def _fold(self, current: float | None, sample: float) -> float:
        if current is None:
            return sample
        return current + ESTIMATOR_ALPHA * (sample - current)

    def observe(self, key: object, seconds: float, ops: int) -> None:
        """Record one dispatched batch: its wall duration and size (an
        empty batch or a negative duration is ignored)."""
        if ops < 1 or seconds < 0.0:
            return
        self._batch_s[key] = self._fold(self._batch_s.get(key), seconds)
        self._global_batch_s = self._fold(self._global_batch_s, seconds)

    def batch_seconds(self, key: object) -> float | None:
        """Expected batch duration for ``key`` (global fallback)."""
        return self._batch_s.get(key, self._global_batch_s)

    def snapshot(self) -> dict[str, float]:
        """JSON-friendly per-key batch estimates (for INFO/debugging)."""
        return {str(key): round(value, 6) for key, value in self._batch_s.items()}


def predicted_miss(
    queue_wait_s: float,
    estimate_s: float | None,
    deadline_s: float | None,
) -> bool:
    """The shedding decision: will this request miss its deadline?

    ``True`` exactly when the time already spent queued plus the
    expected kernel time exceeds the deadline budget — the request is
    then answered without executing, freeing its kernel slot for work
    that can still make it.  Three edges pin the "sheds iff predicted
    miss" contract:

    * no deadline → never shed (``deadline_s is None``);
    * no estimate yet (cold service) → shed only when the queue wait
      *alone* already blew the budget — a certain miss, not a guess;
    * ``queue_wait + estimate == deadline`` → not shed (the budget is
      an inclusive bound; only a *predicted overrun* sheds).
    """
    if deadline_s is None:
        return False
    return queue_wait_s + (estimate_s or 0.0) > deadline_s


# ----------------------------------------------------------------------
# tenants
# ----------------------------------------------------------------------


@dataclass
class HostedKey:
    """A key pair hosted by the service, addressable by ``key_id``.

    ``scheme`` is the owning :class:`repro.schemes.KemScheme` (its
    adapter is the kernel every backend runs) and ``wire_id`` its
    scheme-qualified param byte.  ``fingerprints`` are the
    transform-cache handles returned by
    :meth:`repro.backend.KemBackend.register_key`; kept so removal can
    reclaim the key's cache entries.  ``tenant`` owns the key: only its
    requests can use it, and it counts against that tenant's quota.
    """

    key_id: int
    params: Any
    pair: Any
    fingerprints: list[bytes] = field(default_factory=list)
    scheme: Any = None
    tenant: int = DEFAULT_TENANT
    wire_id: int = 0


@dataclass
class QuotaState:
    """Runtime quota accounting for one configured tenant.

    ``keys`` counts hosted keys *plus* the slots in-flight KEYGENs have
    reserved, so a burst of KEYGENs cannot all pass the ``max_keys``
    check before any of them has registered its key.
    """

    quota: TenantQuota
    keys: int = 0
    inflight: int = 0
    tokens: float = 0.0
    last_refill: float | None = None

    def refill(self, now: float) -> None:
        """Top the token bucket up for the time elapsed since last seen."""
        rate = self.quota.ops_per_s
        if rate is None:
            return
        if self.last_refill is not None:
            self.tokens = min(
                self.quota.bucket_capacity,
                self.tokens + (now - self.last_refill) * rate,
            )
        self.last_refill = now

    def release(self, return_key: bool) -> None:
        """Give back an admitted request's in-flight slot — and, with
        ``return_key`` (a KEYGEN answered anything but ``OK``), the key
        slot it reserved."""
        self.inflight -= 1
        if return_key:
            self.keys -= 1


class TenantPolicy:
    """Who owns which hosted key, and what each tenant may still do.

    ``keys`` is the hosted-key table.  :meth:`find` is the one lookup a
    request makes, and it is tenant-scoped: another tenant's key id is
    as unknown as one never issued.  Tenants named in ``quotas`` are
    admission-limited by :meth:`admit`; unlisted tenants are unlimited
    and never enter the quota table.  ``clock`` times the token bucket.
    """

    def __init__(
        self, quotas: Iterable[TenantQuota], clock: Callable[[], float]
    ) -> None:
        self._clock = clock
        self.quotas = {
            quota.tenant: QuotaState(quota, tokens=quota.bucket_capacity)
            for quota in quotas
        }
        self.keys: dict[int, HostedKey] = {}
        self._next_key_id = 1

    def find(self, key_id: int, tenant: int) -> HostedKey | None:
        """The hosted key ``key_id`` if ``tenant`` owns it, else ``None``."""
        key = self.keys.get(key_id)
        return key if key is not None and key.tenant == tenant else None

    def host(self, key: HostedKey, *, reserved: bool = False) -> int:
        """Host ``key`` under a fresh id; returns the id.  It counts
        against ``max_keys`` unless a wire KEYGEN ``reserved`` it."""
        key.key_id = key_id = self._next_key_id
        self._next_key_id += 1
        self.keys[key_id] = key
        state = self.quotas.get(key.tenant)
        if state is not None and not reserved:
            state.keys += 1
        return key_id

    def unhost(self, key_id: int) -> HostedKey | None:
        """Stop hosting ``key_id``; returns the key (``None`` if unknown)."""
        key = self.keys.pop(key_id, None)
        if key is not None:
            state = self.quotas.get(key.tenant)
            if state is not None and state.keys > 0:
                state.keys -= 1
        return key

    def admit(self, tenant: int, tier: int, keygen: bool) -> QuotaState | None:
        """Check and charge ``tenant``'s quota for one request.

        Refuses ``BUSY`` (shed reason ``quota``) naming the exhausted
        limit — ``keys`` (a KEYGEN would exceed ``max_keys``),
        ``inflight`` (``max_inflight`` accepted-but-unanswered
        requests) or ``rate`` (the token bucket is empty).  Admission
        costs one token and takes the in-flight slot plus a KEYGEN's
        hosted-key slot — reserved *here*, not when the key registers
        after the batch ran, or every KEYGEN of one batch window passes
        the check.  Returns what the request now holds, for
        :meth:`QuotaState.release` (``None``: an unlisted tenant).
        """
        state = self.quotas.get(tenant)
        if state is None:
            return None
        quota = state.quota
        over = None
        if keygen and quota.max_keys is not None and state.keys >= quota.max_keys:
            over = "keys"
        elif quota.max_inflight is not None and state.inflight >= quota.max_inflight:
            over = "inflight"
        elif quota.ops_per_s is not None:
            state.refill(self._clock())
            if state.tokens < 1.0:
                over = "rate"
            else:
                state.tokens -= 1.0
        if over is not None:
            raise ServiceBusy(
                f"tenant {tenant} over quota ({over})",
                shed_reason="quota", tier=tier, tenant=tenant,
            )
        state.inflight += 1
        if keygen:
            state.keys += 1
        return state

    def info(self) -> dict[str, dict[str, Any]]:
        """The INFO ``tenants`` row: each quota'd tenant's state."""
        return {
            str(tenant): {
                "keys": state.keys,
                "inflight": state.inflight,
                "tokens": round(state.tokens, 3),
                "max_keys": state.quota.max_keys,
                "max_inflight": state.quota.max_inflight,
                "ops_per_s": state.quota.ops_per_s,
            }
            for tenant, state in sorted(self.quotas.items())
        }


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------


class _Queued(Protocol):
    """What the deadline policy reads of a queued request."""

    enqueued_at: float | None
    deadline_s: float | None


_Entry = TypeVar("_Entry", bound=_Queued)


class DeadlinePolicy:
    """Tier watermarks and the deadline sheds, from one config.

    Tier ``i`` admits while fewer than ``high_watermark *
    tier_watermarks[i]`` requests are pending; wire tiers beyond the
    table clamp to its last (most aggressively shed) entry.  The service
    feeds :attr:`estimator` every successful batch and asks, in a
    request's order, :meth:`admit`, :meth:`at_flush`, :meth:`at_completion`.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.high_watermark = config.high_watermark
        self.request_timeout = config.request_timeout
        self.default_deadline_s = config.default_deadline_s
        self.tier_limits = tuple(
            int(config.high_watermark * fraction)
            for fraction in config.tier_watermarks
        )
        self.estimator = KernelEstimator()

    def clamp_tier(self, tier: int) -> int:
        """The tier table row a wire tier maps onto."""
        return min(tier, len(self.tier_limits) - 1)

    def admit(
        self, pending: int, tier: int, deadline_s: float | None, op: str, param_id: int
    ) -> None:
        """Refuse ``BUSY`` before a request is queued.

        At or beyond its tier's watermark: lower tiers stop admitting
        before the queue is full, reserving the headroom for
        interactive traffic.  A full queue is plain backpressure; only a
        tier that stopped early counts (and is tagged) as a
        ``watermark`` shed.  Then ``hopeless``: when one batch already
        takes longer than the whole budget, admitting only manufactures
        a ``TIMEOUT`` — answer ``BUSY`` now so the client backs off.
        """
        limit = self.tier_limits[tier]
        if pending >= limit:
            shed: dict[str, Any] = {}
            if limit < self.high_watermark:
                shed = {"shed_reason": "watermark", "tier": tier}
            raise ServiceBusy(f"{pending} requests pending", **shed)
        if deadline_s is None:
            return
        estimate = self.estimator.batch_seconds((op, param_id))
        if estimate is not None and predicted_miss(0.0, estimate, deadline_s):
            raise ServiceBusy(
                f"deadline {deadline_s:.3f}s below expected "
                f"{estimate:.3f}s service time",
                shed_reason="hopeless", tier=tier,
            )

    def at_flush(
        self, key: object, entries: list[_Entry], now: float
    ) -> tuple[list[_Entry], list[tuple[_Entry, RequestTimedOut]]]:
        """Split a flushed batch of ``key`` into the entries to run and
        the late ones, each with the ``TIMEOUT`` it gets instead.

        Late is queued past ``request_timeout``, or ``predicted-miss``:
        the wait already spent plus the expected batch time overshoots
        the budget, so the answer comes *before* burning backend
        capacity on a response nobody will use.
        """
        estimate = self.estimator.batch_seconds(key)
        live: list[_Entry] = []
        late: list[tuple[_Entry, RequestTimedOut]] = []
        for entry in entries:
            assert entry.enqueued_at is not None
            waited = now - entry.enqueued_at
            deadline_s = entry.deadline_s
            if self.request_timeout is not None and waited > self.request_timeout:
                late.append((entry, RequestTimedOut(f"queued {waited:.3f}s")))
            elif predicted_miss(waited, estimate, deadline_s):
                late.append((entry, RequestTimedOut(
                    f"shed: queued {waited:.3f}s + expected "
                    f"{estimate or 0.0:.3f}s exceeds deadline {deadline_s:.3f}s",
                    shed_reason="predicted-miss",
                )))
            else:
                live.append(entry)
        return live, late

    def at_completion(
        self, keygen: bool, enqueued_at: float, now: float, deadline_s: float | None
    ) -> RequestTimedOut | None:
        """The ``TIMEOUT`` that replaces an ``OK`` completed past its
        budget (``missed``): backend queueing the flush-time prediction
        could not see.  A late ``OK`` is worthless to a caller with a
        deadline, so "accepted and ``OK``" implies "within the SLO".
        KEYGEN is exempt: its answer names a now-hosted key the client
        must learn about either way."""
        if deadline_s is None or keygen or now - enqueued_at <= deadline_s:
            return None
        return RequestTimedOut(
            f"completed {now - enqueued_at:.3f}s past a {deadline_s:.3f}s deadline",
            shed_reason="missed",
        )


# ----------------------------------------------------------------------
# sessions
# ----------------------------------------------------------------------


class SessionTable:
    """The open secure channels, each owned by the tenant that opened it.

    The service performs ``SESSION_OPEN``'s one encapsulation and hands
    the result to :meth:`open`; :meth:`answer` serves the rest.  Each
    channel is a :class:`~repro.lac.hybrid.HybridChannel` — the
    construction :class:`~repro.lac.hybrid.LacHybrid` runs, so served
    transcripts are bit-identical to the library's.  Another tenant's
    session id is ``NOT_FOUND``.
    """

    def __init__(self) -> None:
        self._open: dict[int, tuple[int, HybridChannel]] = {}
        self._next_id = 1

    def __len__(self) -> int:
        """Open sessions."""
        return len(self._open)

    def open(self, tenant: int, kem_ct: bytes, shared: bytes) -> bytes:
        """Bind a channel to ``kem_ct``; returns the SESSION_OPEN payload."""
        session_id = self._next_id
        self._next_id += 1
        self._open[session_id] = tenant, HybridChannel(shared, kem_ct)
        return pack_key_id(session_id) + kem_ct + shared

    def answer(self, op: Op, payload: bytes, tenant: int) -> bytes:
        """Answer ``SEAL`` / ``OPEN`` / ``SESSION_CLOSE``: the ``OK`` payload."""
        if op is Op.SESSION_CLOSE:
            session_id, _ = unpack_key_id(payload)
        else:
            session_id, nonce, rest = unpack_session_request(payload)
        owner, channel = self._open.get(session_id, (None, None))
        if channel is None or owner != tenant:
            raise KeyNotFound(f"unknown session id {session_id}")
        if op is Op.SESSION_CLOSE:
            del self._open[session_id]
            return b""
        if op is Op.SEAL:
            body, tag = channel.seal(nonce, rest)
            return body + tag
        if len(rest) < SESSION_TAG_SIZE:
            raise ProtocolError(f"sealed body must carry a {SESSION_TAG_SIZE}-byte tag")
        body, tag = rest[:-SESSION_TAG_SIZE], rest[-SESSION_TAG_SIZE:]
        try:
            return channel.open(nonce, body, tag)
        except HybridDecryptionError:
            raise BadRequest("authentication failed") from None


__all__ = [
    "DeadlinePolicy",
    "HostedKey",
    "KernelEstimator",
    "QuotaState",
    "SessionTable",
    "TenantPolicy",
    "predicted_miss",
]
