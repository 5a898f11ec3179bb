"""The cluster routing tier: one endpoint fronting N KemService members.

:class:`ClusterRouter` speaks the exact frame protocol of
:mod:`repro.serve.protocol` on its front side — any existing
:class:`~repro.serve.KemClient` / :class:`~repro.serve.AsyncKemClient`
works against it unchanged — and multiplexes the back side over one
pipelined :class:`~repro.serve.AsyncKemClient` link per member.

**Key placement.**  The router owns the *global* key-id namespace.  A
``KEYGEN`` draws (or takes from the client) a deterministic seed,
computes the key's placement chain on the consistent-hash ring
(:mod:`repro.cluster.ring`; ``replication`` members, primary first)
and registers the seeded keygen on every placement through each
member's ordinary ``KEYGEN``/``add_keypair`` lifecycle — deterministic
keygen means every placement holds a bit-identical pair.  The router
records the member-local ids and rewrites the leading key-id bytes
when forwarding; response payloads pass through untouched, so a routed
result is bit-identical to the single-service one.

**Failover** reuses :class:`repro.serve.RetryPolicy` semantics
(``config.forward_retry``): transport-level forward failures walk the
placement chain for idempotent ops, while DECAPS is never silently
retried — its failure surfaces as a typed error and the *caller*
decides (``retry_decaps=True`` client-side).  Member response statuses
pass through end-to-end; the router never converts an OK into anything
else.

**Health.**  A background loop probes every member with ``INFO`` every
``health_interval_s``; ``health_failures`` consecutive failures eject
the member from the ring (its placements are dropped and every key
rebalances onto the survivors via seeded re-registration +
``REMOVE_KEY``), dead members are respawned, and a recovered member is
readmitted — rebalancing back — once probes succeed again.

**Chaos.**  With a :class:`repro.faults.FaultPlan`, client-facing
connections get the usual transport faults, admission draws forced
``BUSY``/``TIMEOUT`` windows, and two router-specific sites fire per
forwarded request: ``router.forward`` (delay / drop / corrupt the
forward attempt) and ``member.kill`` (kill the target member
mid-load).  The invariant the chaos suite enforces: every accepted
request is answered — bit-identical to scalar or with a typed
:mod:`repro.errors` error — and fault counters match ``plan.fired``
exactly.

**The request path** is the shell's
(:class:`repro.serve.server.FrameServer`): every frame becomes a
:class:`~repro.serve.server.Request` envelope, passes the shared gates
(admission fault draw, draining, watermark, pending slot), and is
answered exactly once by the shell's ``_reply`` — a member's response
passed through, or the typed :mod:`repro.errors` refusal a handler
*raised* (no code here writes a frame or counts a response).

**Tracing.**  With an enabled tracer every answered request emits a
``router.request`` root (child of the client's wire context) tiled by
stage spans — ``admission`` alone when refused or answered inline,
``admission`` + ``queue`` (the wait on the member) when routed — plus
one ``router.forward`` span per member attempt, and forwards carry the
forward span's context — so member-side ``server.request`` spans nest
``client.request → router.request → router.forward → server.request``.
"""

from __future__ import annotations

import asyncio
import json
import secrets
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.cluster.config import ClusterConfig
from repro.cluster.member import LocalMember, MemberHandle, ProcessMember
from repro.cluster.ring import HashRing
from repro.errors import (
    BadRequest,
    DeadlineExceeded,
    KeyNotFound,
    ProtocolError,
    ServiceClosed,
    ServiceError,
)
from repro.faults.plan import (
    KIND_DELAY,
    KIND_DROP,
    SITE_MEMBER_KILL,
    SITE_ROUTER_FORWARD,
    FaultPlan,
)
from repro.schemes import wire_id_for_params
from repro.serve.client import AsyncKemClient
from repro.serve.protocol import (
    ERROR_FOR_STATUS,
    PARAM_NONE,
    Frame,
    Op,
    Status,
    pack_key_id,
    params_for_wire_id,
    unpack_key_id,
    unpack_keygen_response,
)
from repro.serve.server import FrameServer, LoopThreadHost, Request
from repro.trace import TraceContext, Tracer

__all__ = ["ClusterRouter", "ThreadedCluster"]

#: Forward failures that mean the *member connection* (not the
#: request) is the problem — failover-eligible for idempotent ops.
_FORWARD_FAILURES = (ServiceClosed, DeadlineExceeded, ProtocolError, OSError)


@dataclass
class _RoutedKey:
    """One cluster-hosted key: global id, seed, and where it lives."""

    key_id: int
    params: Any  # any registered scheme's parameter set
    seed: bytes
    pk: bytes
    #: member name -> member-local key id
    placements: dict[str, int] = field(default_factory=dict)


@dataclass
class _MemberState:
    """The router's view of one member."""

    handle: MemberHandle
    link: AsyncKemClient | None = None
    link_lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    probe_failures: int = 0
    in_ring: bool = True


class ClusterRouter(FrameServer):
    """An async router sharding hosted keys across member KemServices.

    Construct with a :class:`~repro.cluster.ClusterConfig`, ``await
    start()`` (spawns the members), attach transports (``serve_tcp`` /
    ``connect`` / ``connect_socket`` — the
    :class:`repro.serve.server.FrameServer` shell it shares with
    :class:`repro.serve.KemService`), ``await shutdown()``.

    ``clock`` / ``fault_plan`` / ``tracer`` mirror the service
    constructor: an injectable monotonic clock, the chaos hook, and
    opt-in tracing.
    """

    def __init__(
        self,
        config: ClusterConfig | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        fault_plan: FaultPlan | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        super().__init__(fault_plan, clock, tracer)
        self.config = config if config is not None else ClusterConfig()
        #: Cluster-level event counters (ejections, failovers, …);
        #: exported under ``INFO``'s ``cluster.counters``.
        self.counters: Counter[str] = Counter()
        self._ring = HashRing(virtual_nodes=self.config.virtual_nodes)
        self._members: dict[str, _MemberState] = {}
        self._keys: dict[int, _RoutedKey] = {}
        self._next_key_id = 1
        self._started = False
        self._started_at = 0.0
        self._rebalance_needed = False
        self._rebalance_lock = asyncio.Lock()
        self._health_task: asyncio.Task[None] | None = None
        self._health_wake: asyncio.Event | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def _make_member(self, index: int) -> MemberHandle:
        name = f"member-{index}"
        if self.config.launch == "process":
            return ProcessMember(name, self.config.member_config)
        # local members can share the router's tracer, so member-side
        # server.request spans land in the same recorder (trace tests)
        tracer = self.tracer if self.tracer.enabled else None
        return LocalMember(name, self.config.member_config, tracer=tracer)

    async def start(self) -> ClusterRouter:
        """Spawn the members, build the ring, start health checking."""
        if self._started:
            return self
        loop = asyncio.get_running_loop()
        handles = await asyncio.gather(
            *[
                loop.run_in_executor(None, self._make_member, index)
                for index in range(self.config.members)
            ]
        )
        for handle in handles:
            self._members[handle.name] = _MemberState(handle)
            self._ring.add(handle.name)
        if self.fault_plan is not None and self.fault_plan.observer is None:
            self.fault_plan.observer = self.metrics.record_fault
        self._health_wake = asyncio.Event()
        self._health_task = asyncio.create_task(self._health_loop())
        self._started = True
        self._started_at = self._clock()
        return self

    async def shutdown(self) -> None:
        """Drain in-flight forwards, stop the members, close transports."""
        if not self._started:
            return
        self._draining = True
        if self._inflight:
            await asyncio.gather(*self._inflight, return_exceptions=True)
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
        for state in self._members.values():
            await self._drop_link(state)
        loop = asyncio.get_running_loop()
        await asyncio.gather(
            *[
                loop.run_in_executor(None, state.handle.stop)
                for state in self._members.values()
            ]
        )
        await self._close_transports()
        self._started = False

    @property
    def members(self) -> dict[str, MemberHandle]:
        """The member handles by name (chaos tests kill through this)."""
        return {name: state.handle for name, state in self._members.items()}

    def hosted_keys(self) -> dict[int, dict[str, int]]:
        """Global key id -> its current placements (member -> local id)."""
        return {gid: dict(key.placements) for gid, key in self._keys.items()}

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------

    _REQUEST_SPAN = "router.request"
    _CANCELLED = b"router cancelled"

    async def _serve(self, request: Request) -> None:
        """Admission control; accepted work runs as its own task.

        Per-request tasks keep one slow member from head-of-line
        blocking the other requests multiplexed on this connection —
        the router's analogue of the service's scheduler decoupling.
        Each task runs under the shell's ``_answer``, so whatever a
        handler raises degrades to a typed reply, never silence.
        """
        if request.frame.op in (Op.INFO, Op.REMOVE_KEY):
            # control plane: answered inline, served even while draining
            self._spawn(self._answer(request, self._control))
            return
        self._gate()
        self._take_slot(request, self.config.high_watermark)
        request.enqueued_at = self._clock()
        self._spawn(self._answer(request, self._routed))

    async def _control(self, request: Request) -> None:
        frame = request.frame
        if frame.op is Op.INFO:
            frame.param_id = PARAM_NONE  # the answer names no parameter set
            await self._reply(request, Status.OK, self._info_payload(frame))
            return
        key_id, _ = unpack_key_id(frame.payload)
        key = self._keys.pop(key_id, None)
        if key is None:
            raise KeyNotFound(f"unknown key id {key_id}")
        for member in list(key.placements):
            await self._remove_key_from(member, key)
        await self._reply(request, Status.OK)

    async def _routed(self, request: Request) -> None:
        """One accepted data-plane request: mint a key, or forward."""
        self.metrics.adjust_queue_depth(+1)
        try:
            keygen = request.frame.op is Op.KEYGEN
            await (self._keygen if keygen else self._forward)(request)
        except (ServiceError, ProtocolError):
            raise
        except Exception as exc:  # noqa: BLE001 - typed error, never silence
            raise ServiceError(str(exc)) from exc
        finally:
            self.metrics.adjust_queue_depth(-1)

    # ------------------------------------------------------------------
    # forwarding
    # ------------------------------------------------------------------

    async def _link(self, state: _MemberState) -> AsyncKemClient:
        async with state.link_lock:
            if state.link is None:
                host, port = state.handle.address
                reader, writer = await asyncio.open_connection(host, port)
                state.link = AsyncKemClient(reader, writer)
            return state.link

    async def _drop_link(self, state: _MemberState) -> None:
        async with state.link_lock:
            link, state.link = state.link, None
        if link is not None:
            try:
                await link.aclose()
            except Exception:  # noqa: BLE001 - already torn down
                pass

    def _note_member_failure(self, member: str) -> None:
        """Poke the health loop after a forward-time member failure."""
        if self._health_wake is not None:
            self._health_wake.set()

    async def _forward_once(
        self,
        member: str,
        frame: Frame,
        payload: bytes,
        attempt: int,
        request: Request | None,
        draw_faults: bool = True,
    ) -> Frame:
        """One forward attempt to one member (faults, link, deadline).

        Traced, the attempt hangs off the routed ``request``'s root span
        — or, for the router's own key-lifecycle forwards (``None``),
        off an id pair minted here.
        """
        state = self._members[member]
        traced = self.tracer.enabled
        # tracer off: pass any client context straight through so
        # member spans still attach to the caller's trace
        trace, t_start = frame.trace, 0.0
        trace_id = parent_id = span_id = 0
        if traced:
            if request is not None:
                trace_id, parent_id = request.trace_id, request.root_span
            else:
                trace_id = self.tracer.new_trace_id()
                parent_id = self.tracer.new_span_id()
            span_id, t_start = self.tracer.new_span_id(), self._clock()
            trace = TraceContext(trace_id, span_id)
        outcome = "error"
        try:
            if draw_faults and self.fault_plan is not None:
                spec = self.fault_plan.draw(SITE_MEMBER_KILL)
                if spec is not None:
                    self.counters["member_kills"] += 1
                    await asyncio.get_running_loop().run_in_executor(
                        None, state.handle.kill
                    )
                    await self._drop_link(state)
                spec = self.fault_plan.draw(SITE_ROUTER_FORWARD)
                if spec is not None:
                    if spec.kind == KIND_DELAY:
                        await asyncio.sleep(spec.delay_s)
                    elif spec.kind == KIND_DROP:
                        raise ServiceClosed("injected fault: forward drop")
                    else:  # corrupt: the link cannot be trusted anymore
                        await self._drop_link(state)
                        raise ProtocolError(
                            "injected fault: forward corruption", "corrupt"
                        )
            if not state.handle.alive:
                raise ServiceClosed(f"member {member} is down")
            link = await self._link(state)
            timeout = self.config.forward_retry.attempt_timeout_s
            try:
                # the QoS extension rides through unchanged: the member
                # owns the shed decision (it sees its own queue), the
                # router only relays budget and tier
                if timeout is not None:
                    response = await asyncio.wait_for(
                        link.request(
                            frame.op, frame.param_id, payload,
                            trace=trace, qos=frame.qos,
                        ),
                        timeout,
                    )
                else:
                    response = await link.request(
                        frame.op, frame.param_id, payload,
                        trace=trace, qos=frame.qos,
                    )
            except asyncio.TimeoutError:
                raise DeadlineExceeded(
                    f"member {member} gave no response within {timeout}s"
                ) from None
            outcome = response.status.name
            return response
        except _FORWARD_FAILURES:
            # the member connection is suspect: redial on next use and
            # let the health loop decide about ejection
            await self._drop_link(state)
            self._note_member_failure(member)
            raise
        finally:
            if traced:
                self.tracer.record_span(
                    "router.forward",
                    t_start,
                    self._clock() - t_start,
                    trace_id,
                    span_id=span_id,
                    parent_id=parent_id,
                    tags={
                        "op": frame.op.name,
                        "member": member,
                        "attempt": attempt,
                        "outcome": outcome,
                    },
                )

    def _placement_chain(self, key: _RoutedKey) -> list[str]:
        """Live placements of a key in current ring order, primary first."""
        try:
            ordered = self._ring.owners(key.key_id, len(self._members) or 1)
        except LookupError:
            ordered = []
        chain = [
            member
            for member in ordered
            if member in key.placements and self._members[member].handle.alive
        ]
        # placements that left the ring (ejected member still alive,
        # or replication > ring size) remain usable as a last resort
        chain.extend(
            member
            for member in sorted(key.placements)
            if member not in chain
            and member in self._members
            and self._members[member].handle.alive
        )
        return chain

    async def _forward(self, request: Request) -> None:
        """Route one ENCAPS/DECAPS to the owning member, with failover."""
        frame = request.frame
        op = frame.op
        gid, rest = unpack_key_id(frame.payload)
        key = self._keys.get(gid)
        if key is None:
            raise KeyNotFound(f"unknown key id {gid}")
        if frame.param_id != wire_id_for_params(key.params):
            raise BadRequest(
                f"key {gid} is {key.params.name}, not parameter id {frame.param_id}"
            )
        policy = self.config.forward_retry
        chain = self._placement_chain(key)
        last_error: Exception | None = None
        for attempt, member in enumerate(chain):
            if attempt >= policy.max_attempts:
                break
            if attempt > 0:
                self.counters["forward_failovers"] += 1
            local_id = key.placements.get(member)
            if local_id is None:
                continue  # a concurrent repair dropped this placement
            try:
                response = await self._forward_once(
                    member, frame, pack_key_id(local_id) + rest, attempt, request
                )
            except Exception as exc:  # noqa: BLE001 - policy decides below
                last_error = exc
                if policy.should_retry(op, exc, attempt, can_reconnect=True):
                    continue
                break
            if response.status is Status.NOT_FOUND:
                # stale placement: the member restarted without this
                # key — repair it and (for idempotent ops) fail over
                key.placements.pop(member, None)
                self._rebalance_needed = True
                self._note_member_failure(member)
                last_error = KeyNotFound(
                    f"member {member} lost key {gid}; rebalancing"
                )
                if op is not Op.DECAPS:
                    continue
                break
            # member statuses pass through end-to-end, payload untouched
            await self._reply(request, response.status, response.payload)
            return
        raise self._refusal(last_error, f"no live placement for key {gid}")

    @staticmethod
    def _refusal(exc: Exception | None, otherwise: str) -> ServiceError:
        """The typed refusal a forward failure degrades to (``otherwise``
        when nothing was even attempted).

        Its payload is ``str(exc)`` — for a typed error that includes
        the ``"TIMEOUT: "``-style label: the bytes a failed forward has
        always been answered with.
        """
        if exc is None:
            return ServiceError(otherwise)
        status = exc.status if isinstance(exc, ServiceError) else None
        # a lost placement is the router's problem, not the caller's:
        # NOT_FOUND would wrongly blame the key id
        if status is None or status is Status.NOT_FOUND:
            status = Status.INTERNAL
        return ERROR_FOR_STATUS[status](str(exc))

    # ------------------------------------------------------------------
    # key lifecycle
    # ------------------------------------------------------------------

    async def _keygen(self, request: Request) -> None:
        """Mint a global key: seeded registration on the placement chain."""
        frame = request.frame
        scheme, params = params_for_wire_id(frame.param_id)
        seed_len = scheme.seed_len(params)
        if frame.payload and len(frame.payload) != seed_len:
            raise BadRequest(f"KEYGEN seed must be {seed_len} bytes or empty")
        seed = frame.payload or secrets.token_bytes(seed_len)
        gid = self._next_key_id
        self._next_key_id += 1
        try:
            owners = self._ring.owners(gid, self.config.replication)
        except LookupError:
            owners = []
        key = _RoutedKey(gid, params, seed, b"")
        last_error: Exception | None = None
        for attempt, member in enumerate(owners):
            try:
                # draw_faults=False: the router.forward/member.kill
                # sites target ENCAPS/DECAPS forwards (the data plane);
                # registration is key-lifecycle plumbing
                response = await self._forward_once(
                    member, frame, seed, attempt, request, draw_faults=False
                )
            except Exception as exc:  # noqa: BLE001 - typed or transport
                last_error = exc
                continue
            if response.status is not Status.OK:
                # relayed under the member's own status
                last_error = refused = ServiceError(
                    f"member {member} keygen: "
                    + response.payload.decode(errors="replace")
                )
                refused.status = response.status
                continue
            local_id, key.pk = unpack_keygen_response(params, response.payload)
            key.placements[member] = local_id
        if not key.placements:
            raise self._refusal(last_error, "no live members")
        if len(key.placements) < len(owners):
            # under-replicated: the health loop's rebalance finishes it
            self._rebalance_needed = True
            self._note_member_failure("")
        self._keys[gid] = key
        await self._reply(request, Status.OK, pack_key_id(gid) + key.pk)

    async def _register_key_on(self, member: str, key: _RoutedKey) -> bool:
        """Seeded re-registration of one key on one member (rebalance)."""
        frame = Frame(Op.KEYGEN, 0, wire_id_for_params(key.params))
        try:
            response = await self._forward_once(
                member, frame, key.seed, 0, None, draw_faults=False
            )
        except Exception:  # noqa: BLE001 - retried by the next health pass
            self._rebalance_needed = True
            return False
        if response.status is not Status.OK:
            self._rebalance_needed = True
            return False
        local_id, _pk = unpack_keygen_response(key.params, response.payload)
        key.placements[member] = local_id
        return True

    async def _remove_key_from(self, member: str, key: _RoutedKey) -> None:
        """Pull one key off one member; the placement goes regardless."""
        local_id = key.placements.pop(member, None)
        state = self._members.get(member)
        if local_id is None or state is None or not state.handle.alive:
            return
        frame = Frame(Op.REMOVE_KEY, 0, PARAM_NONE)
        try:
            await self._forward_once(
                member, frame, pack_key_id(local_id), 0, None, draw_faults=False
            )
        except Exception:  # noqa: BLE001 - the member will restart empty
            pass

    # ------------------------------------------------------------------
    # health and rebalancing
    # ------------------------------------------------------------------

    async def _health_loop(self) -> None:
        wake = self._health_wake
        assert wake is not None  # set by start() before the task spawns
        while True:
            try:
                await asyncio.wait_for(
                    wake.wait(), self.config.health_interval_s
                )
            except asyncio.TimeoutError:
                pass
            wake.clear()
            if self._draining:
                continue
            for name, state in list(self._members.items()):
                await self._probe(name, state)
            if self._rebalance_needed:
                await self._rebalance()

    async def _probe(self, name: str, state: _MemberState) -> None:
        healthy = False
        if state.handle.alive:
            try:
                link = await self._link(state)
                await asyncio.wait_for(
                    link.request(Op.INFO), self.config.probe_timeout_s
                )
                healthy = True
            except (asyncio.TimeoutError, *_FORWARD_FAILURES):
                await self._drop_link(state)
        if healthy:
            state.probe_failures = 0
            if not state.in_ring:
                self._readmit(name, state)
            return
        state.probe_failures += 1
        self.counters["probe_failures"] += 1
        dead = not state.handle.alive
        # an unresponsive member gets health_failures chances; a dead
        # process is unambiguous and leaves the ring right away
        if state.in_ring and (
            dead or state.probe_failures >= self.config.health_failures
        ):
            self._eject(name, state)
        if dead and self.config.restart_members and not self._draining:
            await self._drop_link(state)
            await asyncio.get_running_loop().run_in_executor(
                None, state.handle.respawn
            )
            self.counters["member_restarts"] += 1
            # the respawned member came up empty: any placement record
            # naming it is stale by construction
            for key in self._keys.values():
                if key.placements.pop(name, None) is not None:
                    self._rebalance_needed = True

    def _eject(self, name: str, state: _MemberState) -> None:
        """Remove a failing member from the ring; its keys re-home."""
        self._ring.remove(name)
        state.in_ring = False
        self.counters["members_ejected"] += 1
        for key in self._keys.values():
            key.placements.pop(name, None)
        self._rebalance_needed = True

    def _readmit(self, name: str, state: _MemberState) -> None:
        """A recovered member rejoins the ring (empty) and rebalances."""
        self._ring.add(name)
        state.in_ring = True
        self.counters["members_readmitted"] += 1
        self._rebalance_needed = True

    async def _rebalance(self) -> None:
        """Drive every key's placements to what the ring says they are.

        Additions are seeded re-registrations through the ordinary
        member ``KEYGEN``/``add_keypair`` lifecycle (warming the
        per-key transform caches on the right node); removals go
        through ``REMOVE_KEY``/``remove_keypair``.  A failed step
        re-arms ``_rebalance_needed`` so the next health pass retries.
        """
        async with self._rebalance_lock:
            self._rebalance_needed = False
            if not len(self._ring):
                return
            moved = 0
            for key in list(self._keys.values()):
                desired = set(self._ring.owners(key.key_id, self.config.replication))
                current = set(key.placements)
                for member in sorted(desired - current):
                    if await self._register_key_on(member, key):
                        moved += 1
                for member in sorted(current - desired):
                    await self._remove_key_from(member, key)
                    moved += 1
            if moved:
                self.counters["placements_rebalanced"] += moved
                self.counters["rebalances"] += 1

    # ------------------------------------------------------------------
    # INFO
    # ------------------------------------------------------------------

    def _info_payload(self, frame: Frame) -> bytes:
        cluster = {
            "uptime_s": round(self._clock() - self._started_at, 3),
            "draining": self._draining,
            "pending": self._pending,
            "keys": len(self._keys),
            "replication": self.config.replication,
            "virtual_nodes": self.config.virtual_nodes,
            "launch": self.config.launch,
            "ring": self._ring.members,
            "members": {
                name: {
                    "alive": state.handle.alive,
                    "in_ring": state.in_ring,
                    "probe_failures": state.probe_failures,
                    "address": list(state.handle.address),
                    "keys": sum(
                        1
                        for key in self._keys.values()
                        if name in key.placements
                    ),
                }
                for name, state in self._members.items()
            },
            "counters": dict(self.counters),
        }
        if frame.payload == b"text":
            lines = [self.metrics.render_text(), ""]
            lines.append(f"# cluster: {len(self._ring)} in ring")
            for counter, value in sorted(cluster["counters"].items()):  # type: ignore[union-attr]
                lines.append(f"kem_cluster_{counter}_total {value}")
            return "\n".join(lines).encode()
        snap = self.metrics.snapshot()
        snap["cluster"] = cluster
        return json.dumps(snap).encode()


class ThreadedCluster(LoopThreadHost[ClusterRouter]):
    """A :class:`ClusterRouter` on a background event-loop thread.

    The synchronous adapter — the same
    :class:`repro.serve.server.LoopThreadHost` that carries
    :class:`repro.serve.ThreadedService`: ``start()`` spawns members
    and the routing loop, ``connect()`` hands back client sockets (feed
    them to :class:`repro.cluster.ClusterClient`), ``stop()`` drains
    and joins.  Usable as a context manager.
    """

    def __init__(
        self,
        config: ClusterConfig | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        fault_plan: FaultPlan | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        super().__init__(
            lambda: ClusterRouter(
                config, clock=clock, fault_plan=fault_plan, tracer=tracer
            ),
            "repro-cluster-loop",
        )

    @property
    def router(self) -> ClusterRouter | None:
        """The hosted router (``None`` until :meth:`start`)."""
        return self._server

    def member_names(self) -> list[str]:
        """The member names, sorted (for targeted chaos)."""
        return sorted(self._hosted().members)

    def kill_member(self, name: str) -> None:
        """SIGKILL/abort one member (the supervisor will restart it)."""
        self._hosted().members[name].kill()
