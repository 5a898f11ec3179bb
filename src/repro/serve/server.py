"""The asyncio KEM service: transports, batching, backpressure, drain.

:class:`KemService` hosts key pairs of any registered
:class:`repro.schemes.KemScheme` (LAC and NewHope ship registered) and
serves ``KEYGEN`` / ``ENCAPS`` / ``DECAPS`` / ``INFO`` requests — plus
the stateful secure-channel ops ``SESSION_OPEN`` / ``SEAL`` / ``OPEN``
/ ``SESSION_CLOSE`` — over the frame protocol of
:mod:`repro.serve.protocol`.  The interesting part is what happens
between a request arriving and its response leaving:

1. :meth:`KemService._handle_frame` wraps the frame in a
   :class:`Request` envelope — frame, ``respond``, stage stamps, and
   whatever the request comes to *hold* (a pending slot, a tenant
   in-flight slot, a reserved key slot) — and calls :meth:`_serve`;
2. admission control, in order: ``INFO``/``REMOVE_KEY`` are answered
   inline (even while draining); an injected fault or a drain refuses
   (``SHUTTING_DOWN``); the tenant's quota is charged; session ops are
   answered inline; beyond the request's *per-tier* watermark
   (``high_watermark`` scaled by ``config.tier_watermarks``) it gets
   ``BUSY`` *without being queued* — the bounded queue is the
   backpressure contract; a deadline budget already below the expected
   batch service time is shed ``BUSY`` (reason ``hopeless``); the
   payload is validated cheaply on the event loop (``BAD_REQUEST`` /
   ``NOT_FOUND``).  Every refusal is a *raised*
   :class:`repro.errors.ServiceError` — nothing here writes a frame;
3. accepted requests enter the
   :class:`~repro.serve.scheduler.MicroBatchScheduler`, keyed by
   ``(op, wire param id, tenant)`` — per-tenant queues whose batches
   mix the tenant's hosted keys (the kernels take one key per lane),
   with deficit-round-robin fair-share breaking flush-order ties
   within a QoS tier;
4. full batches (flush-on-size) dispatch immediately, and so does a
   request whose queue's last batch left alone long ago (flush-alone);
   a single timer task wakes at the scheduler's earliest adaptive
   deadline — and whenever a backend slot frees — and flushes as many
   due queues as the backend has free slots (flush-on-deadline); the
   rest stay open and keep filling, because a batch handed to a busy
   backend would only wait in its FIFO, closed to new arrivals;
5. a dispatch submits to the service's :class:`repro.backend.KemBackend`
   (thread pool by default; multi-process via ``backend="process"``),
   a deadline flush holding one of its ``slots`` until the kernel's
   future resolves (a flush that did not wait for a slot holds none):
   expired entries — and entries whose queue wait plus the EWMA batch
   estimate overshoots their deadline (reason ``predicted-miss``) —
   are answered ``TIMEOUT`` unexecuted, the rest go
   through the backend's batched encaps/decaps/keygen kernels, and the
   responses fan back out to their connections with per-request ids —
   each through :meth:`KemService._reply`, the one function that
   releases, counts, samples, traces and writes;
6. :meth:`KemService.shutdown` stops admission, drains every queue
   through the same dispatch path, awaits in-flight batches, then
   closes transports — no accepted request is ever dropped.

**Multi-tenancy**: requests carry a wire tenant byte (protocol flag
``0x4``; absent = tenant 0).  Tenants named in
``ServiceConfig.tenant_quotas`` are admission-limited — hosted-key
count, in-flight requests, and an ops/s token bucket — and an
over-quota request is shed ``BUSY`` with
``kem_shed_total{reason="quota",tenant=...}``.  Unlisted tenants are
unlimited.  Tenants also label ``kem_tenant_requests_total``, the
request trace spans, and the scheduler's fair-share counters.

**Sessions**: ``SESSION_OPEN`` encapsulates against a hosted key of
*any* registered scheme and derives an AEAD channel exactly as
:class:`repro.lac.hybrid.LacHybrid` does, so a transcript of
``kem_ct || nonce || body || tag`` is bit-identical to a ``LacHybrid``
seal over the same inputs.  ``SEAL``/``OPEN`` run the channel; sessions
are tenant-scoped (another tenant's session id is ``NOT_FOUND``) and
answered inline, like ``INFO`` — they never enter the batch queue.

Transports: ``serve_tcp`` (asyncio TCP), ``connect`` (an in-process
``socketpair`` — what the tests and the benchmark use; same frames, no
network stack) and ``connect_socket`` (the raw end the blocking client
wraps), each served by one per-connection read loop over the one
decoder of :mod:`repro.serve.protocol`.  :class:`ThreadedService` runs
the service on a background event-loop thread, so synchronous code —
examples, notebooks — never touches asyncio.

**Tracing**: when constructed with an enabled
:class:`repro.trace.Tracer`, the service stamps each request at five
stage boundaries (read, enqueue, flush, kernel start/end) and emits a
``server.request`` root span plus telescoping ``admission`` /
``queue`` / ``dispatch`` / ``kernel`` / ``reply`` stage spans when the
response is written — the stage durations sum to the root span
exactly (one refused or answered inline: root + one ``admission``
stage).  Stage times also feed ``metrics.stage_seconds``.  Requests
carrying a wire trace context (protocol version 2) attach the server
spans to the client's span and have their context echoed on the
response.  With the default :data:`repro.trace.NULL_TRACER` every
instrumentation site is a single false branch.
"""

from __future__ import annotations

import asyncio
import json
import secrets
import socket
import threading
import time
from collections.abc import Awaitable, Callable, Coroutine
from dataclasses import dataclass, field
from typing import Any, TypeVar

from repro.backend.base import KemBackend, create_backend
from repro.errors import (
    BadRequest,
    KeyNotFound,
    RequestTimedOut,
    ServiceBusy,
    ServiceDraining,
    ServiceError,
)

# Only ``repro.faults.plan`` is imported at module level: it has no
# dependency on ``repro.serve``, while ``repro.faults.transport`` does
# (the frame decoder), so the latter is imported lazily inside
# ``KemService._handle_connection`` to keep the import graph acyclic.
from repro.faults.plan import (
    KIND_STALL,
    KIND_TIMEOUT,
    SITE_ADMISSION,
    SITE_BACKEND,
    SITE_KERNEL,
    FaultPlan,
    InjectedFault,
)
from repro.lac.hybrid import HybridChannel, HybridDecryptionError
from repro.schemes import all_schemes, resolve, wire_id_for_params
from repro.serve.config import ServiceConfig, TenantQuota
from repro.serve.metrics import ServiceMetrics
from repro.serve.protocol import (
    DEFAULT_TENANT,
    PARAM_NONE,
    SESSION_TAG_SIZE,
    Frame,
    FrameReader,
    FrameWriter,
    Op,
    ProtocolError,
    Status,
    pack_key_id,
    params_for_wire_id,
    read_frame,
    unpack_key_id,
    unpack_session_request,
    write_frame,
)
from repro.serve.scheduler import AdaptiveDeadlinePolicy, Batch, MicroBatchScheduler
from repro.serve.slo import CycleCostEstimator, KernelEstimator, predicted_miss
from repro.trace import NULL_TRACER, Tracer, collect_tags
from repro.trace.report import STAGES

_Respond = Callable[[Frame], Awaitable[None]]

_T = TypeVar("_T")


@dataclass
class HostedKey:
    """A key pair hosted by the service, addressable by ``key_id``.

    ``scheme`` is the owning :class:`repro.schemes.KemScheme` (its
    adapter is the kernel every backend runs) and ``wire_id`` its
    scheme-qualified param byte.  ``fingerprints`` are the
    transform-cache handles returned by
    :meth:`repro.backend.KemBackend.register_key`; kept so removal can
    reclaim the key's cache entries.  ``tenant`` is the tenant the key
    is charged to (quota accounting).
    """

    key_id: int
    params: Any
    pair: Any
    fingerprints: list[bytes] = field(default_factory=list)
    scheme: Any = None
    tenant: int = DEFAULT_TENANT
    wire_id: int = 0


@dataclass
class Request:
    """The request envelope: one decoded frame, from read to reply.

    Built by :meth:`KemService._handle_frame` and answered exactly
    once by :meth:`KemService._reply` — the only code that gives back
    what the request *holds*: a slot of the bounded queue (``pending``)
    and its quota'd tenant's in-flight slot (``quota``; a KEYGEN's also
    covers a reserved hosted-key slot, which an ``OK`` answer keeps).
    """

    frame: Frame
    respond: _Respond
    #: when the frame was read: start of the root span (and of the
    #: latency sample of a request answered without being parked)
    t_read: float
    pending: bool = False
    quota: _TenantState | None = None
    #: set by ``_reply``: a request whose task is cancelled mid-flight
    #: is owed a reply only when it has not had one
    answered: bool = False
    #: when the request was parked (``None``: refused or answered
    #: inline): end of ``admission``, start of the latency sample and
    #: of the queue-timeout/deadline budget
    enqueued_at: float | None = None
    #: the wire tenant (0 when the extension is absent) — drives quota
    #: accounting, fair-share batching and the per-tenant metrics
    tenant: int = DEFAULT_TENANT
    #: effective deadline budget (wire QoS or the config default) and
    #: priority tier — drive shedding and priority-aware flushing
    deadline_s: float | None = None
    tier: int = 0
    #: root-span tags the request carries whatever its answer
    tags: dict[str, Any] | None = None
    # the parsed operands: what the batch kernel runs, on what
    key: HostedKey | None = None  # ENCAPS/DECAPS
    scheme: Any = None
    params: Any = None
    #: the backend item — KEYGEN seed (``None`` = OS randomness),
    #: ENCAPS message, DECAPS wire ciphertext
    item: bytes | None = None
    # tracing — ids and later stamps are written only when the tracer
    # is enabled (``root_span`` doubles as the "traced" flag), so the
    # disabled path allocates nothing beyond defaults
    trace_id: int = 0
    root_span: int = 0
    t_flushed: float = 0.0
    t_kernel_start: float = 0.0
    t_kernel_end: float = 0.0
    batch_size: int = 0
    trigger: str = ""
    kernel_tags: dict[str, Any] | None = None


#: The session ops: answered inline (no batching), tenant-scoped.
_SESSION_OPS = frozenset((Op.SESSION_OPEN, Op.SEAL, Op.OPEN, Op.SESSION_CLOSE))


@dataclass
class _TenantState:
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


class KemService:
    """An async multi-scheme KEM service with adaptive micro-batching.

    Construct, ``await start()``, attach transports, ``await
    shutdown()``.  Every setting lives in one frozen
    :class:`ServiceConfig` (batching, backpressure, timeout, shedding
    and backend-selection knobs — see its docstring), and nothing is
    read from the environment; the objects a service is wired to stay
    on the constructor:

    ``backend``
        an explicit :class:`repro.backend.KemBackend` instance to
        execute batches on.  The caller keeps ownership (the service
        never closes it).  When omitted, the service creates one at
        :meth:`start` from ``config.backend`` and
        ``config.backend_workers`` and closes it on :meth:`shutdown`
        (the default ``"thread"`` with no pool size shares the
        process-wide ``default_thread_backend()``, which stays open);
    ``clock``
        injectable monotonic clock (tests pass a fake);
    ``fault_plan``
        optional :class:`repro.faults.FaultPlan` — the chaos hook.
        When set, the service draws faults at the transport
        (delay/drop/truncate/corrupt per frame), at admission (forced
        ``BUSY``/``TIMEOUT`` windows), inside batch execution
        (stall/raise) and at the backend (worker ``crash``), and every
        fired fault is counted in ``metrics.faults``;
    ``tracer``
        optional :class:`repro.trace.Tracer` — when enabled, every
        request emits a ``server.request`` root span plus telescoping
        per-stage spans (see the module docstring); defaults to the
        no-op :data:`repro.trace.NULL_TRACER`.

    :meth:`_handle_frame` is the one way in: each frame becomes a
    :class:`Request` handed to :meth:`_serve`, which refuses by
    *raising* the typed :class:`repro.errors.ServiceError` of the status
    it wants answered.  :meth:`_reply` is the one way out, so "answered
    exactly once, its holds given back" is a property of one function.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        backend: KemBackend | None = None,
        clock: Callable[[], float] = time.monotonic,
        fault_plan: FaultPlan | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.metrics = ServiceMetrics()
        self.fault_plan = fault_plan
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._clock = clock
        self._pending = 0
        self._draining = False
        self._inflight: set[asyncio.Task[None]] = set()
        self._conn_tasks: set[asyncio.Task[None]] = set()
        self._writers: set[FrameWriter] = set()
        self._tcp_servers: list[asyncio.base_events.Server] = []
        config = config if config is not None else ServiceConfig()
        self.config = config
        self.high_watermark = config.high_watermark
        self.request_timeout = config.request_timeout
        self._scheduler = MicroBatchScheduler(
            max_batch=config.max_batch,
            policy=AdaptiveDeadlinePolicy(
                max_wait_us=config.max_wait_us, min_wait_us=config.min_wait_us
            ),
            priority_of=lambda e: e.tier,
            tenant_of=lambda e: e.tenant,
        )
        # quota accounting for the tenants named in the config;
        # unlisted tenants are unlimited and never enter this table
        self._tenants: dict[int, _TenantState] = {
            quota.tenant: _TenantState(quota=quota, tokens=quota.bucket_capacity)
            for quota in config.tenant_quotas
        }
        # open secure channels: session id -> (owning tenant, channel)
        self._sessions: dict[int, tuple[int, HybridChannel]] = {}
        self._next_session_id = 1
        # per-tier admission limits: tier i admits while pending <
        # high_watermark * tier_watermarks[i]; wire tiers beyond the
        # table clamp to the last (most aggressively shed) entry
        self._tier_limits: tuple[int, ...] = tuple(
            int(config.high_watermark * fraction)
            for fraction in config.tier_watermarks
        )
        # with cycle_priors configured, the estimator starts seeded
        # from the calibrated cycle model: the first request's
        # hopeless/predicted-miss decisions already have a per-(op,
        # param set) cost instead of a cold "no prediction, admit"
        priors = (
            CycleCostEstimator(
                profile=config.cycle_priors,
                clock_hz=config.cycle_priors_hz,
            ).priors()
            if config.cycle_priors is not None
            else None
        )
        self._estimator = KernelEstimator(priors=priors)
        self._backend = backend
        self._owns_backend = False
        self._keys: dict[int, HostedKey] = {}
        self._next_key_id = 1
        self._started = False
        self._started_at = 0.0
        self._wake: asyncio.Event | None = None
        self._flusher: asyncio.Task[None] | None = None
        # deadline-flushed batches whose kernel has not resolved: each
        # holds one of the backend's slots
        self._busy = 0

    @property
    def backend(self) -> KemBackend | None:
        """The execution backend (``None`` until :meth:`start` when
        the service creates its own from configuration)."""
        return self._backend

    @property
    def pending(self) -> int:
        """Requests accepted but not yet answered (the bounded queue)."""
        return self._pending

    # ------------------------------------------------------------------
    # the request envelope: one way in, one way out
    # ------------------------------------------------------------------

    async def _handle_frame(self, frame: Frame, respond: _Respond) -> None:
        """The one way in: envelope the frame, count it, serve it.

        Whatever :meth:`_serve` raises becomes the one reply: a
        :class:`~repro.errors.ServiceError` is a refusal (its status,
        its bare ``detail`` as payload, its tags on the root span); a
        ``ProtocolError`` is the request failing to parse.
        """
        request = Request(frame, respond, self._clock())
        tracer = self.tracer
        if tracer.enabled:
            trace = frame.trace
            request.trace_id = trace.trace_id if trace else tracer.new_trace_id()
            request.root_span = tracer.new_span_id()
        self.metrics.record_request(frame.op.name)
        try:
            await self._serve(request)
        except ServiceError as exc:
            status = exc.status or Status.INTERNAL
            await self._reply(request, status, exc.detail.encode(), **exc.tags)
        except ProtocolError as exc:
            await self._reply(request, Status.BAD_REQUEST, str(exc).encode())
        except asyncio.CancelledError:
            # the task serving the request is being torn down: what the
            # request holds still comes back through the one reply
            if not request.answered:
                await self._reply(request, Status.INTERNAL, b"cancelled")
            raise
        except Exception:  # noqa: BLE001 - isolate the request
            # a handler bug poisons this request, not the connection
            # loop (or the task) — answer INTERNAL and carry on
            self.metrics.record_conn_error("handler-internal")
            await self._reply(request, Status.INTERNAL, b"internal error")

    async def _reply(
        self, request: Request, status: Status, payload: bytes = b"", **tags: Any
    ) -> None:
        """The one way out: release, count, sample, trace, write.

        The only code that gives back what a request holds, counts the
        response — and the shed a ``shed_reason`` tag names, *before*
        the frame is written: once the client sees ``BUSY`` the metric
        must already be observable — samples latency (parked: from the
        enqueue stamp; inline ``OK``: from the read; a refusal is not a
        served latency), emits the spans (``tags`` land on the root)
        and awaits the connection's ``respond``.
        """
        frame = request.frame
        request.answered = True
        if request.pending:
            request.pending = False
            self._pending -= 1
        state = request.quota
        if state is not None:
            request.quota = None
            state.inflight -= 1
            if frame.op is Op.KEYGEN and status is not Status.OK:
                state.keys -= 1  # the reserved key slot
        op = frame.op.name
        if "shed_reason" in tags:
            self.metrics.record_shed(tags["shed_reason"], request.tier, request.tenant)
        self.metrics.record_response(op, status.name)
        now = self._clock()
        enqueued_at = request.enqueued_at
        if enqueued_at is not None:
            self.metrics.observe_latency(op, (now - enqueued_at) * 1e6)
        elif status is Status.OK:
            self.metrics.observe_latency(op, (now - request.t_read) * 1e6)
        if request.root_span and self.tracer.enabled:
            self._trace(request, status, now, tags)
        await request.respond(frame.reply(status, payload))

    def _trace(
        self, request: Request, status: Status, t_done: float, tags: dict[str, Any]
    ) -> None:
        """Emit the root span and the stage spans that tile it.

        The stages share their boundary timestamps, so their durations
        sum to the root exactly.  A request that never left admission
        (refused, or answered inline) is one ``admission`` stage; one
        that never reaches a later boundary (queue-expired ``TIMEOUT``,
        kernel failure) closes its last open stage at response time —
        the attribution table's coverage stays exact on every path,
        backpressure and chaos included.
        """
        tracer = self.tracer
        frame = request.frame
        trace_id = request.trace_id
        root_id = request.root_span
        root_tags: dict[str, Any] = {"op": frame.op.name, "status": status.name}
        if request.tags:
            root_tags.update(request.tags)
        if request.enqueued_at is not None:
            # a parked request names what it ran against; a refusal
            # carries exactly the tags its raise site gave it
            if request.key is not None:
                root_tags["key_id"] = request.key.key_id
            if request.tier:
                root_tags["tier"] = request.tier
            if request.tenant:
                root_tags["tenant"] = request.tenant
        root_tags.update(tags)
        if request.batch_size:
            root_tags["batch_size"] = request.batch_size
            root_tags["trigger"] = request.trigger
        t_read = request.t_read
        tracer.record_span(
            "server.request", t_read, t_done - t_read, trace_id,
            span_id=root_id, tags=root_tags,
            parent_id=frame.trace.span_id if frame.trace is not None else None,
        )

        # the stages of the path taken and their n + 1 boundaries: each
        # stage ends where the next starts, the last at the response
        enqueued_at = request.enqueued_at
        bounds: tuple[float, ...]
        if enqueued_at is None:
            names, bounds = STAGES[:1], (t_read, t_done)
        elif request.t_kernel_start:
            names, bounds = STAGES, (
                t_read, enqueued_at, request.t_flushed,
                request.t_kernel_start, request.t_kernel_end, t_done,
            )
        elif request.t_flushed:
            names = ("admission", "queue", "reply")
            bounds = (t_read, enqueued_at, request.t_flushed, t_done)
        else:
            names, bounds = STAGES[:2], (t_read, enqueued_at, t_done)
        for name, start, end in zip(names, bounds, bounds[1:], strict=False):
            stage_tags: dict[str, Any] = {}
            if name == "kernel":
                stage_tags = request.kernel_tags or stage_tags
            elif enqueued_at is None:
                stage_tags = {"op": frame.op.name, "status": status.name}
            tracer.record_span(
                name, start, end - start, trace_id,
                parent_id=root_id, tags=stage_tags,
            )
            self.metrics.observe_stage(name, max(end - start, 0.0))

    # ------------------------------------------------------------------
    # transports
    # ------------------------------------------------------------------

    async def serve_tcp(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> asyncio.base_events.Server:
        """Listen on TCP; returns the ``asyncio.Server`` (``port 0`` = ephemeral)."""
        server = await asyncio.start_server(self._handle_connection, host, port)
        self._tcp_servers.append(server)
        return server

    async def connect(
        self,
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        """Open an in-process connection (socketpair); returns client streams."""
        client_sock = await self.connect_socket()
        return await asyncio.open_connection(sock=client_sock)

    async def connect_socket(self) -> socket.socket:
        """Open an in-process connection; returns the client's raw socket.

        The end :class:`repro.serve.client.KemClient` wraps; the server
        end is handled on this event loop.
        """
        server_sock, client_sock = socket.socketpair()
        reader, writer = await asyncio.open_connection(sock=server_sock)
        task = asyncio.create_task(self._handle_connection(reader, writer))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)
        return client_sock

    async def _handle_connection(
        self, reader: FrameReader, writer: FrameWriter
    ) -> None:
        if self.fault_plan is not None:
            from repro.faults.transport import wrap_connection

            reader, writer = wrap_connection(reader, writer, self.fault_plan)
        self._writers.add(writer)
        lock = asyncio.Lock()

        async def respond(frame: Frame) -> None:
            async with lock:
                try:
                    write_frame(writer, frame)
                    await writer.drain()
                except (ConnectionError, RuntimeError):
                    pass  # peer went away; nothing to tell it

        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                await self._handle_frame(frame, respond)
        except ProtocolError as exc:
            # framing is gone: count why, then drop the connection —
            # the stream cannot be resynchronized mid-garbage
            self.metrics.record_conn_error(f"protocol:{exc.reason}")
        except ConnectionError:
            self.metrics.record_conn_error("disconnect")
        except asyncio.CancelledError:
            pass
        except Exception:  # noqa: BLE001 - never kill the accept loop
            self.metrics.record_conn_error("internal")
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> KemService:
        """Start the flush timer; must run inside the serving loop.

        Resolves the execution backend here (not in the constructor) so
        a service object can be built cheaply and the backend — which
        may spawn worker processes — only comes up when serving begins.
        """
        if self._started:
            return self
        if self._backend is None:
            self._backend = create_backend(
                self.config.backend, workers=self.config.backend_workers
            )
            # closed on shutdown (a no-op for the shared default)
            self._owns_backend = True
        self.metrics.backend_stats_provider = self._backend.stats
        # keys hosted before start register now: the transform cache
        # warms at startup, not on the first serving batch
        for hosted in self._keys.values():
            if not hosted.fingerprints:
                hosted.fingerprints = self._backend.register_key(
                    hosted.scheme, hosted.params, hosted.pair
                )
        if self.fault_plan is not None and self.fault_plan.observer is None:
            # every fault the plan fires is mirrored into the metrics,
            # so /metrics accounts for the whole chaos schedule
            self.fault_plan.observer = self.metrics.record_fault
        self._wake = asyncio.Event()
        self._flusher = asyncio.create_task(self._flush_loop())
        self._started = True
        self._started_at = self._clock()
        return self

    async def shutdown(self) -> None:
        """Graceful drain: stop admission, serve the backlog, close.

        Every request accepted before the call still receives its
        response (or a ``TIMEOUT``); requests arriving afterwards get
        ``SHUTTING_DOWN``.
        """
        if not self._started:
            return
        self._draining = True
        for batch in self._scheduler.drain():
            self._launch_dispatch(batch)
        if self._inflight:
            await asyncio.gather(*self._inflight, return_exceptions=True)
        if self._flusher is not None:
            self._flusher.cancel()
            try:
                await self._flusher
            except asyncio.CancelledError:
                pass
        # close listeners and live connections
        for server in self._tcp_servers:
            server.close()
            await server.wait_closed()
        for writer in list(self._writers):
            writer.close()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._owns_backend and self._backend is not None:
            # in-flight batches are drained above, so this cannot strand
            # work; re-created from config if the service is restarted
            self._backend.close(wait=True)
            self._backend = None
            self._owns_backend = False
        self.metrics.backend_stats_provider = None
        self._started = False

    # ------------------------------------------------------------------
    # key hosting
    # ------------------------------------------------------------------

    def add_keypair(
        self,
        spec: Any,
        pair: Any | None = None,
        seed: bytes | None = None,
        *,
        tenant: int = DEFAULT_TENANT,
    ) -> int:
        """Host a key pair (generating one unless given); returns its id.

        ``spec`` is anything :func:`repro.schemes.resolve` accepts — a
        :class:`~repro.schemes.ParamId`, a parameter-set name
        (``"NewHope512"``), a wire id, or a scheme-native parameter
        object such as ``LAC_128`` (the pre-PR-10 signature, so
        existing callers keep working unchanged).  With the backend up,
        the key registers with its per-key transform cache immediately
        (keys added before :meth:`start` register when the backend
        comes up).  Raises :class:`repro.errors.UnsupportedScheme` when
        the backend declines the scheme (e.g. a NewHope key on the
        cosim backend, whose cycle model covers LAC only).
        """
        scheme, params = resolve(spec)
        if pair is None:
            pair = scheme.keygen(params, seed)
        key_id = self._register_pair(scheme, params, pair, tenant=tenant)
        # a wire KEYGEN reserved its key slot at admission instead
        state = self._tenants.get(tenant)
        if state is not None:
            state.keys += 1
        return key_id

    def _register_pair(
        self,
        scheme: Any,
        params: Any,
        pair: Any,
        *,
        tenant: int = DEFAULT_TENANT,
    ) -> int:
        """The one registration path: wire KEYGEN, programmatic
        :meth:`add_keypair` and :class:`ThreadedService` all land here,
        so the hosted-key table cannot drift between entry points."""
        # the backend may decline the scheme: consume an id only after
        fingerprints = (
            self._backend.register_key(scheme, params, pair)
            if self._backend is not None
            else []
        )
        key_id = self._next_key_id
        self._next_key_id += 1
        self._keys[key_id] = HostedKey(
            key_id,
            params,
            pair,
            fingerprints,
            scheme=scheme,
            tenant=tenant,
            wire_id=wire_id_for_params(params),
        )
        return key_id

    def remove_keypair(self, key_id: int) -> bool:
        """Stop hosting a key; returns whether it was hosted.

        Reclaims the key's transform-cache entries via the backend.
        Requests already queued against the key still complete (they
        hold the :class:`HostedKey` reference); new requests get
        ``UNKNOWN_KEY``.  Correctness never depends on this
        invalidation — fingerprints are content-derived — it only
        releases memory early.
        """
        hosted = self._keys.pop(key_id, None)
        if hosted is None:
            return False
        if self._backend is not None and hosted.fingerprints:
            self._backend.invalidate_key(hosted.fingerprints)
        hosted.fingerprints = []
        state = self._tenants.get(hosted.tenant)
        if state is not None and state.keys > 0:
            state.keys -= 1
        return True

    def hosted_key(self, key_id: int) -> HostedKey | None:
        """Look up a hosted key (``None`` when unknown)."""
        return self._keys.get(key_id)

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    def _charge_quota(self, request: Request) -> None:
        """Check and charge the tenant's quota for one request.

        Refuses ``BUSY`` (shed reason ``quota``) naming the exhausted
        limit — ``keys`` (KEYGEN would exceed ``max_keys``),
        ``inflight`` (``max_inflight`` accepted-but-unanswered
        requests) or ``rate`` (the ops/s token bucket is empty).
        Admission costs one token and takes the in-flight slot plus a
        KEYGEN's hosted-key slot — reserved *here*, not when the key
        registers after the batch ran, or every KEYGEN of one batch
        window passes the check.  Unlisted tenants are unlimited.
        """
        state = self._tenants.get(request.tenant)
        if state is None:
            return
        quota = state.quota
        keygen = request.frame.op is Op.KEYGEN
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
                f"tenant {request.tenant} over quota ({over})",
                shed_reason="quota", tier=request.tier, tenant=request.tenant,
            )
        request.quota = state
        state.inflight += 1
        if keygen:
            state.keys += 1

    async def _serve(self, request: Request) -> None:
        frame = request.frame
        op = frame.op
        if frame.tenant is not None:
            request.tenant = frame.tenant
        self.metrics.record_tenant_request(request.tenant)
        if op is Op.INFO:
            frame.param_id = PARAM_NONE  # the answer names no parameter set
            await self._reply(request, Status.OK, self._info_payload(frame))
            return
        if op is Op.REMOVE_KEY:
            # control plane, like INFO: answered inline (no batching)
            # and served even while draining, so a client can still
            # release its keys while the service winds down
            key_id, _ = unpack_key_id(frame.payload)
            if not self.remove_keypair(key_id):
                raise KeyNotFound(f"unknown key id {key_id}")
            await self._reply(request, Status.OK)
            return
        if self.fault_plan is not None:
            spec = self.fault_plan.draw(SITE_ADMISSION)
            if spec is not None:
                refusal = RequestTimedOut if spec.kind == KIND_TIMEOUT else ServiceBusy
                tags = {"fault_site": SITE_ADMISSION, "fault_kind": spec.kind}
                raise refusal(f"injected fault: {spec.kind}", **tags)
        if self._draining:
            raise ServiceDraining("draining")
        request.deadline_s = self.config.default_deadline_s
        qos = frame.qos
        if qos is not None:
            request.tier = min(qos.tier, len(self._tier_limits) - 1)
            if qos.deadline_us:
                request.deadline_s = qos.deadline_s
        # tenant quota: the tenant's own key/in-flight/rate budget is
        # checked before any shared-capacity gate, so an over-quota
        # tenant is shed by *its* limits, never by crowding others out
        self._charge_quota(request)
        if op in _SESSION_OPS:
            # stateful channel ops: answered inline like INFO — they
            # never enter the batch queue (the quota gate above still
            # applies, so a chatty tenant cannot flood the channel path)
            request.tags = {"tenant": request.tenant}
            await self._reply(request, Status.OK, await self._session(request))
            return
        # per-tier watermark: lower tiers stop admitting before the
        # queue is full, reserving the remaining headroom for
        # interactive traffic (tier 0 keeps the classic full-queue
        # BUSY).  A full queue is plain backpressure; only a tier that
        # stopped admitting early counts (and is tagged) as a shed.
        # Refused here, the request was not queued: that is the contract
        limit = self._tier_limits[request.tier]
        if self._pending >= limit:
            shed: dict[str, Any] = {}
            if limit < self.high_watermark:
                shed = {"shed_reason": "watermark", "tier": request.tier}
            raise ServiceBusy(f"{self._pending} requests pending", **shed)
        self._pending += 1
        request.pending = True
        deadline_s = request.deadline_s
        if deadline_s is not None:
            # hopeless check: when one batch already takes longer than
            # the whole budget, admitting only manufactures a TIMEOUT —
            # answer BUSY now so the client's retry policy backs off
            estimate = self._estimator.batch_seconds((op.name, frame.param_id))
            if estimate is not None and predicted_miss(0.0, estimate, deadline_s):
                raise ServiceBusy(
                    f"deadline {deadline_s:.3f}s below expected "
                    f"{estimate:.3f}s service time",
                    shed_reason="hopeless", tier=request.tier,
                )
        # ``admission`` ends here: validating the payload is already
        # time spent on the accepted request
        now = self._clock()
        self._parse(request)
        request.enqueued_at = now
        self.metrics.adjust_queue_depth(+1)
        # batches are per-tenant: one tenant's burst cannot ride in
        # another tenant's batch, and the scheduler's DRR fair-share
        # orders same-tier flushes by under-served tenant.  Within a
        # tenant a batch spans hosted keys: each lane brings its own
        batch = self._scheduler.submit(
            (op, frame.param_id, request.tenant),
            request,
            now,
            None if request.scheme.coalesces else 1,
        )
        if batch is not None:
            self._launch_dispatch(batch)
        elif self._wake is not None:
            self._wake.set()  # deadline set may have changed

    def _parse(self, request: Request) -> None:
        """Validate the payload into the envelope's operands (cheaply,
        on the loop): raises ``ProtocolError`` / ``KeyNotFound``."""
        frame = request.frame
        op, payload = frame.op, frame.payload
        if op is Op.KEYGEN:
            scheme, params = params_for_wire_id(frame.param_id)
            backend = self._backend
            if backend is not None and not backend.supports_scheme(scheme):
                raise ProtocolError(
                    f"backend {backend.name!r} does not support scheme "
                    f"{scheme.name!r}"
                )
            seed_len = scheme.seed_len(params)
            if payload and len(payload) != seed_len:
                raise ProtocolError(
                    f"KEYGEN seed must be {seed_len} bytes or empty"
                )
            request.scheme, request.params = scheme, params
            request.item = payload or None
            return
        key_id, rest = unpack_key_id(payload)
        key = self._keys.get(key_id)
        if key is None:
            # the quotes are part of the wire bytes clients see for this
            # refusal (pinned in tests/test_reply_path.py)
            raise KeyNotFound(f"'unknown key id {key_id}'")
        if frame.param_id != key.wire_id:
            raise ProtocolError(
                f"key {key_id} is {key.params.name}, not parameter id "
                f"{frame.param_id}"
            )
        if op is Op.ENCAPS:
            message_bytes = key.scheme.message_bytes(key.params)
            if rest and len(rest) != message_bytes:
                raise ProtocolError(
                    f"message must be {message_bytes} bytes or empty"
                )
            # drawn here, on the loop, so every backend receives
            # identical inputs
            request.item = rest or secrets.token_bytes(message_bytes)
        elif op is Op.DECAPS:
            ct_bytes = key.scheme.ciphertext_wire_bytes(key.params)
            if len(rest) != ct_bytes:
                raise ProtocolError(f"ciphertext must be {ct_bytes} bytes")
            try:
                key.scheme.check_ciphertext(key.params, rest)
            except ValueError as exc:
                raise ProtocolError(str(exc)) from None
            request.item = rest
        else:
            raise ProtocolError(f"unsupported op {op.name}")
        request.key, request.scheme, request.params = key, key.scheme, key.params

    # ------------------------------------------------------------------
    # flushing and dispatch
    # ------------------------------------------------------------------

    def _free_slots(self) -> int:
        """Backend slots no deadline-flushed batch holds.  Only the
        flushes that wait for a slot hold one: if size and alone flushes,
        which never wait, counted too, enough of them in flight would
        shut the held queues out for as long as they kept coming."""
        backend = self._backend
        return (backend.slots if backend is not None else 0) - self._busy

    def _release_slot(self, _kernel: asyncio.Future[Any]) -> None:
        """A kernel resolved: its slot is free, and the flush loop is
        woken to fill it.  The loop gets its turn after the task that
        awaited this kernel has written the batch's replies — measured
        (closed loop, ``mixed-keys``), dispatching *here*, ahead of the
        replies, keeps the backend busier (0.84 against 0.79) and is
        8–12 % slower end to end: the callers those replies release are
        the next batch's lanes."""
        self._busy -= 1
        if self._wake is not None:
            self._wake.set()

    async def _flush_loop(self) -> None:
        wake = self._wake
        assert wake is not None  # set by start() before the task spawns
        while True:
            for batch in self._scheduler.poll(self._clock(), self._free_slots()):
                self._launch_dispatch(batch)
            # with every slot taken, due queues stay open and absorb:
            # the next release sets ``wake``, no deadline needs watching
            deadline = (
                self._scheduler.next_deadline() if self._free_slots() > 0 else None
            )
            # a timer that sets ``wake``, not ``wait_for``: on 3.10/3.11
            # that swallows a cancellation landing in the same loop
            # turn as a release's ``wake.set()``, and shutdown hangs
            timer = (
                None
                if deadline is None
                else asyncio.get_running_loop().call_later(
                    max(0.0, deadline - self._clock()), wake.set
                )
            )
            try:
                await wake.wait()
            finally:
                if timer is not None:
                    timer.cancel()
            wake.clear()

    def _launch_dispatch(self, batch: Batch) -> None:
        """Hand a flushed batch to the backend and spawn its answering.

        Synchronous up to and including ``backend.submit``, so the slot
        a deadline flush takes is counted before the flush loop looks
        again.
        Expired entries — and predicted deadline misses — are set aside
        here and answered ``TIMEOUT`` by the task, unexecuted.
        """
        op: Op = batch.key[0]
        entries: list[Request] = batch.entries
        self.metrics.adjust_queue_depth(-len(entries))
        self.metrics.record_batch(op.name, len(entries), batch.trigger)
        now = self._clock()
        if self.tracer.enabled:
            for entry in entries:
                entry.t_flushed = now
                entry.batch_size = len(entries)
                entry.trigger = batch.trigger
        estimate = self._estimator.batch_seconds(
            (op.name, entries[0].frame.param_id)
        )
        live: list[Request] = []
        late: list[tuple[Request, str, dict[str, Any]]] = []
        for entry in entries:
            assert entry.enqueued_at is not None
            waited = now - entry.enqueued_at
            if self.request_timeout is not None and waited > self.request_timeout:
                late.append((entry, f"queued {waited:.3f}s", {}))
            elif predicted_miss(waited, estimate, entry.deadline_s):
                # the wait already spent plus the expected kernel time
                # overshoots the budget: answer TIMEOUT *before* burning
                # backend capacity on a response nobody will use
                late.append(
                    (
                        entry,
                        f"shed: queued {waited:.3f}s + expected "
                        f"{estimate or 0.0:.3f}s exceeds deadline "
                        f"{entry.deadline_s:.3f}s",
                        {"shed_reason": "predicted-miss"},
                    )
                )
            else:
                live.append(entry)
        t_exec = self._clock()  # before submit: the inline backend runs it there
        kernel = self._submit(op, live) if live else None
        if kernel is not None and batch.trigger == "deadline":
            self._busy += 1
            kernel.add_done_callback(self._release_slot)
        # answered on its own task; shutdown awaits these
        task = asyncio.create_task(self._dispatch(batch, live, late, kernel, t_exec))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    def _submit(self, op: Op, live: list[Request]) -> asyncio.Future[list[Any]]:
        """One ``backend.submit`` per batch, whatever the scheme: the
        already-validated wire bytes go in as they arrived, each under
        its own request's hosted pair."""
        backend = self._backend
        assert backend is not None, "start() the service first"
        first = live[0]
        self.metrics.adjust_inflight(+1)
        kernel: asyncio.Future[list[Any]]
        try:
            kernel = asyncio.wrap_future(
                backend.submit(
                    first.scheme, first.params, op.name,
                    None if op is Op.KEYGEN
                    else [e.key.pair for e in live if e.key is not None],
                    [e.item for e in live],
                    wrapper=self._kernel_wrapper(live),
                )
            )
        except Exception as exc:  # noqa: BLE001 - fanned out by _dispatch
            kernel = asyncio.get_running_loop().create_future()
            kernel.set_exception(exc)
        return kernel

    async def _dispatch(
        self,
        batch: Batch,
        live: list[Request],
        late: list[tuple[Request, str, dict[str, Any]]],
        kernel: asyncio.Future[list[Any]] | None,
        t_exec: float,
    ) -> None:
        """Answer one launched batch: ``late`` entries ``TIMEOUT``, the
        ``live`` ones with what ``kernel`` resolves to."""
        op: Op = batch.key[0]
        for entry, why, tags in late:
            await self._reply(entry, Status.TIMEOUT, why.encode(), **tags)
        if kernel is None:
            return
        try:
            payloads = self._payloads(op, live, await kernel)
        except Exception as exc:  # noqa: BLE001 - fan the failure out
            for entry in live:
                await self._reply(entry, Status.INTERNAL, str(exc).encode())
            return
        finally:
            self.metrics.adjust_inflight(-1)
            if self.tracer.enabled and live[0].t_kernel_end:
                first = live[0]
                batch_tags: dict[str, Any] = {
                    "op": op.name,
                    "batch_size": len(live),
                    "trigger": batch.trigger,
                }
                if first.kernel_tags:
                    batch_tags.update(first.kernel_tags)
                self.tracer.record_span(
                    "server.batch",
                    first.t_kernel_start,
                    first.t_kernel_end - first.t_kernel_start,
                    first.trace_id,
                    tags=batch_tags,
                )
        # successful batches feed the estimator (failures would poison
        # the EWMA with fault-injection stalls and crash-restart time)
        self._estimator.observe(
            (op.name, live[0].frame.param_id),
            self._clock() - t_exec,
            len(live),
        )
        t_done = self._clock()
        for entry, payload in zip(live, payloads, strict=True):
            assert entry.enqueued_at is not None
            if (
                entry.deadline_s is not None
                and op is not Op.KEYGEN
                and t_done - entry.enqueued_at > entry.deadline_s
            ):
                # completed past the budget (backend-pool queueing the
                # dispatch-time prediction could not see): a late OK is
                # worthless to a deadline-carrying caller, so answer
                # TIMEOUT — this is what makes "accepted-and-OK implies
                # within SLO" a server-side guarantee.  KEYGEN is
                # exempt: its response names a now-hosted key the
                # client must learn about either way
                await self._reply(
                    entry,
                    Status.TIMEOUT,
                    f"completed {t_done - entry.enqueued_at:.3f}s "
                    f"past a {entry.deadline_s:.3f}s deadline".encode(),
                    shed_reason="missed",
                )
            else:
                await self._reply(entry, Status.OK, payload)

    def _kernel_wrapper(
        self, entries: list[Request]
    ) -> Callable[[Callable[[], Any]], Any]:
        """The hook the backend runs around the batch, in its own context.

        Three jobs that must happen *where the batch executes* (a pool
        thread, the process backend's supervisor thread, or the caller
        for the inline backend), not on the event loop:

        * draw ``kernel`` faults (stall/raise) and ``backend`` faults
          (kill a worker process before the batch fans out);
        * stamp the kernel extent on every entry so the ``kernel``
          stage span means the same thing on every backend;
        * collect ambient tags (fault-plan annotations) into the
          entries — the executing thread does not carry the loop's
          context, so the sink must be pushed here.  The stamps are
          written in a ``finally`` so a raising kernel still yields a
          ``kernel`` stage span carrying its fault tags.
        """
        traced = self.tracer.enabled
        plan = self.fault_plan
        backend = self._backend
        assert backend is not None

        def body(work: Callable[[], Any]) -> Any:
            if plan is not None:
                spec = plan.draw(SITE_KERNEL)
                if spec is not None:
                    if spec.kind == KIND_STALL:
                        time.sleep(spec.delay_s)
                    else:
                        raise InjectedFault("injected kernel fault")
                if plan.draw(SITE_BACKEND) is not None:
                    # a counted no-op on backends without killable
                    # workers; on the process backend the broken pool
                    # surfaces WorkerCrashed from work() below
                    backend.kill_worker()
            return work()

        if not traced:
            return body

        def traced_body(work: Callable[[], Any]) -> Any:
            sink: dict[str, Any] = {"backend": backend.name}
            t_start = self._clock()
            try:
                with collect_tags(sink):
                    return body(work)
            finally:
                t_end = self._clock()
                for entry in entries:
                    entry.t_kernel_start = t_start
                    entry.t_kernel_end = t_end
                    entry.kernel_tags = sink

        return traced_body

    def _payloads(self, op: Op, live: list[Request], results: list[Any]) -> list[bytes]:
        """The ``OK`` payloads of a batch's kernel results — only
        response byte-building happens on the event loop."""
        if len(results) != len(live):
            # a kernel returning the wrong count must not strand
            # requests, nor host a KEYGEN's key nobody is told about
            raise RuntimeError("batch result count mismatch")
        if op is Op.KEYGEN:
            scheme, params = live[0].scheme, live[0].params
            return [
                pack_key_id(
                    self._register_pair(scheme, params, made, tenant=e.tenant)
                )
                + scheme.public_key_bytes_of(params, made)
                for e, made in zip(live, results, strict=True)
            ]
        if op is Op.ENCAPS:
            return [ct + shared for ct, shared in results]
        return results

    # ------------------------------------------------------------------
    # sessions (the secure-channel workload)
    # ------------------------------------------------------------------

    async def _session(self, request: Request) -> bytes:
        """Serve one secure-channel op inline; returns the OK payload.

        ``SESSION_OPEN`` encapsulates via the hosted key's backend path
        and binds a :class:`~repro.lac.hybrid.HybridChannel` to that
        ciphertext; ``SEAL``/``OPEN`` run it — the construction
        :class:`~repro.lac.hybrid.LacHybrid` runs, so served transcripts
        are bit-identical to the library's.  Sessions are tenant-scoped:
        another tenant's session id is ``NOT_FOUND``.
        """
        frame, tenant = request.frame, request.tenant
        op = frame.op
        if op is Op.SESSION_OPEN:
            key_id, rest = unpack_key_id(frame.payload)
            key = self._keys.get(key_id)
            if key is None:
                raise KeyNotFound(f"unknown key id {key_id}")
            message_bytes = key.scheme.message_bytes(key.params)
            if rest and len(rest) != message_bytes:
                raise ProtocolError(
                    f"message must be {message_bytes} bytes or empty"
                )
            backend = self._backend
            assert backend is not None, "start() the service first"
            [(ct_bytes, shared)] = await asyncio.wrap_future(
                backend.submit(
                    key.scheme, key.params, "ENCAPS", [key.pair],
                    [rest or secrets.token_bytes(message_bytes)],
                )
            )
            session_id = self._next_session_id
            self._next_session_id += 1
            self._sessions[session_id] = tenant, HybridChannel(shared, ct_bytes)
            return pack_key_id(session_id) + ct_bytes + shared
        if op is Op.SESSION_CLOSE:
            session_id, _ = unpack_key_id(frame.payload)
        else:
            session_id, nonce, rest = unpack_session_request(frame.payload)
        owner, channel = self._sessions.get(session_id, (None, None))
        if channel is None or owner != tenant:
            raise KeyNotFound(f"unknown session id {session_id}")
        if op is Op.SESSION_CLOSE:
            del self._sessions[session_id]
            return b""
        if op is Op.SEAL:
            body, tag = channel.seal(nonce, rest)
            return body + tag
        if len(rest) < SESSION_TAG_SIZE:
            raise ProtocolError(
                f"sealed body must carry a {SESSION_TAG_SIZE}-byte tag"
            )
        try:
            return channel.open(
                nonce, rest[:-SESSION_TAG_SIZE], rest[-SESSION_TAG_SIZE:]
            )
        except HybridDecryptionError:
            raise BadRequest("authentication failed") from None

    # ------------------------------------------------------------------
    # INFO
    # ------------------------------------------------------------------

    def _info_payload(self, frame: Frame) -> bytes:
        if frame.payload == b"text":
            payload = self.metrics.render_text().encode()
        else:
            snap = self.metrics.snapshot()
            snap["service"] = {
                "uptime_s": round(self._clock() - self._started_at, 3),
                "draining": self._draining,
                "pending": self._pending,
                "hosted_keys": len(self._keys),
                "max_batch": self._scheduler.max_batch,
                "max_wait_us": self._scheduler.policy.max_wait_us,
                "min_wait_us": self._scheduler.policy.min_wait_us,
                "ewma_gap_us": self._scheduler.policy.ewma_gap_us,
                "high_watermark": self.high_watermark,
                "request_timeout_s": self.request_timeout,
                "backend": self._backend.name if self._backend is not None else None,
                "workers": (
                    self._backend.slots if self._backend is not None else None
                ),
                "default_deadline_s": self.config.default_deadline_s,
                "tier_limits": list(self._tier_limits),
                "cycle_priors": self.config.cycle_priors,
                "estimator": self._estimator.snapshot(),
                "schemes": {
                    scheme.name: [p.name for p in scheme.param_sets]
                    for scheme in all_schemes()
                },
                "sessions": len(self._sessions),
                "tenants": {
                    str(tenant): {
                        "keys": state.keys,
                        "inflight": state.inflight,
                        "tokens": round(state.tokens, 3),
                        "max_keys": state.quota.max_keys,
                        "max_inflight": state.quota.max_inflight,
                        "ops_per_s": state.quota.ops_per_s,
                    }
                    for tenant, state in sorted(self._tenants.items())
                },
                "fair_share": (
                    {
                        str(tenant): round(balance, 3)
                        for tenant, balance in sorted(
                            self._scheduler.fair_share.snapshot().items()
                        )
                    }
                    if self._scheduler.fair_share is not None
                    else None
                ),
            }
            payload = json.dumps(snap).encode()
        return payload


class ThreadedService:
    """A :class:`KemService` on a background event-loop thread.

    The adapter for synchronous worlds (examples, notebooks, the
    blocking client).  Takes the same arguments as :class:`KemService`
    — a :class:`ServiceConfig` plus optional ``backend``/``clock``/
    ``fault_plan``/``tracer``: ``start()`` spins up the loop, builds the
    service on it and starts it, ``connect()`` hands back client
    sockets, ``stop()`` shuts the service down and joins.  Also usable
    as a context manager.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        backend: KemBackend | None = None,
        clock: Callable[[], float] = time.monotonic,
        fault_plan: FaultPlan | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self._factory = lambda: KemService(
            config,
            backend=backend,
            clock=clock,
            fault_plan=fault_plan,
            tracer=tracer,
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._service: KemService | None = None
        self._failure: BaseException | None = None

    @property
    def service(self) -> KemService | None:
        """The hosted service (``None`` until :meth:`start`)."""
        return self._service

    def start(self) -> ThreadedService:
        """Start the loop thread and the service on it.

        A service that fails to come up (its constructor or
        :meth:`KemService.start` raises on the loop thread) re-raises
        here, in the caller, after the thread has exited.
        """
        if self._thread is not None:
            return self
        self._ready.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        error, self._failure = self._failure, None
        if error is not None:
            self._thread.join()
            self._thread = None
            raise error
        return self

    def _run(self) -> None:
        loop = self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            service = self._service = self._factory()
            loop.run_until_complete(service.start())
        except BaseException as exc:  # noqa: BLE001 - re-raised by start()
            self._failure = exc
            self._service = self._loop = None
            loop.close()
            return
        finally:
            self._ready.set()
        loop.run_forever()
        loop.run_until_complete(service.shutdown())
        loop.close()

    def _call(self, coro: Coroutine[Any, Any, _T]) -> _T:
        assert self._loop is not None, "start() first"
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def _hosted(self) -> KemService:
        assert self._service is not None, "start() first"
        return self._service

    def connect(self) -> socket.socket:
        """A new in-process connection as a client socket."""
        return self._call(self._hosted().connect_socket())

    def serve_tcp(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Start a TCP listener; returns the bound port."""

        async def _serve() -> int:
            server = await self._hosted().serve_tcp(host, port)
            port_: int = server.sockets[0].getsockname()[1]
            return port_

        return self._call(_serve())

    def add_keypair(
        self,
        spec: Any,
        seed: bytes | None = None,
        *,
        tenant: int = DEFAULT_TENANT,
    ) -> int:
        """Host a key pair on the service thread; returns its id.

        Same registration path as :meth:`KemService.add_keypair`
        (``spec`` is anything :func:`repro.schemes.resolve` accepts),
        so the wire handler and both programmatic APIs cannot drift.
        """

        async def _add() -> int:
            return self._hosted().add_keypair(spec, seed=seed, tenant=tenant)

        return self._call(_add())

    def remove_keypair(self, key_id: int) -> bool:
        """Stop hosting a key on the service thread; True if it existed."""

        async def _remove() -> bool:
            return self._hosted().remove_keypair(key_id)

        return self._call(_remove())

    def stop(self) -> None:
        """Shut the service down (a graceful drain) and join the loop thread."""
        if self._thread is None or self._loop is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._thread = None

    def __enter__(self) -> ThreadedService:
        """Start on entry."""
        return self.start()

    def __exit__(self, *exc: object) -> None:
        """Stop on exit."""
        self.stop()
