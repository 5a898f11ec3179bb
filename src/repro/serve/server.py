"""The asyncio KEM service: transports, batching, backpressure, drain.

:class:`KemService` hosts key pairs of any registered
:class:`repro.schemes.KemScheme` (LAC and NewHope ship registered) and
serves ``KEYGEN`` / ``ENCAPS`` / ``DECAPS`` / ``INFO`` / ``REMOVE_KEY``
and the secure-channel ops ``SESSION_OPEN`` / ``SEAL`` / ``OPEN`` /
``SESSION_CLOSE`` over the frame protocol of :mod:`repro.serve.protocol`.
The service issues and retires; what to admit and how to answer is
decided by three sans-IO policy objects of :mod:`repro.serve.slo`:
:class:`~repro.serve.slo.TenantPolicy` (tenant-scoped hosted keys and
quotas), :class:`~repro.serve.slo.DeadlinePolicy` (tier watermarks and
deadline sheds) and :class:`~repro.serve.slo.SessionTable`.

1. :meth:`KemService._handle_frame` wraps each frame in a
   :class:`Request` envelope and calls :meth:`_serve`;
2. admission — control ops inline, the fault draw, drain, the tenant's
   quota, session ops inline, the tier watermark and ``hopeless``
   check, the payload parse — refuses by *raising* a
   :class:`repro.errors.ServiceError`, never queueing;
3. accepted requests enter the
   :class:`~repro.serve.scheduler.MicroBatchScheduler`: per-``(op,
   param id, tenant)`` queues whose batches mix the tenant's keys;
4. a flushed batch goes to the service's
   :class:`repro.backend.KemBackend`, minus the entries the deadline
   policy answers ``TIMEOUT`` unexecuted;
5. every answer goes through :meth:`KemService._reply`, the one
   function that releases, counts, samples, traces and writes;
6. :meth:`KemService.shutdown` stops admission, drains every queue
   through the same dispatch path, awaits in-flight batches, then
   closes transports — no accepted request is ever dropped.

``docs/SERVICE.md`` ("The request path") has the full table.  The wire
tenant byte (flag ``0x4``; absent = tenant 0) scopes every key and
session id and labels the metrics, spans and fair-share counters.

Transports: ``serve_tcp`` (asyncio TCP), ``connect`` (an in-process
``socketpair`` — what the tests and the benchmark use; same frames, no
network stack) and ``connect_socket`` (the raw end the blocking client
wraps), each served by one per-connection read loop over the one
decoder of :mod:`repro.serve.protocol`.  :class:`ThreadedService` runs
the service on a background event-loop thread, so synchronous code —
examples, notebooks — never touches asyncio.

**Tracing**: with an enabled :class:`repro.trace.Tracer`, each request
is stamped at five stage boundaries (read, enqueue, flush, kernel
start/end) and emits a ``server.request`` root span plus telescoping
``admission`` / ``queue`` / ``dispatch`` / ``kernel`` / ``reply``
stage spans that sum to the root exactly; stage times also feed
``metrics.stage_seconds``.  A wire trace context (protocol version 2)
parents the server spans and is echoed on the response.  With the
default :data:`repro.trace.NULL_TRACER` every instrumentation site is a
single false branch.
"""

from __future__ import annotations

import asyncio
import json
import secrets
import socket
import threading
import time
from collections.abc import Awaitable, Callable, Coroutine
from dataclasses import dataclass
from typing import Any, TypeVar

from repro.backend.base import KemBackend, create_backend
from repro.errors import (
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
from repro.schemes import all_schemes, resolve, wire_id_for_params
from repro.serve.config import ServiceConfig
from repro.serve.metrics import ServiceMetrics
from repro.serve.protocol import (
    DEFAULT_TENANT,
    PARAM_NONE,
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
    write_frame,
)
from repro.serve.scheduler import AdaptiveDeadlinePolicy, Batch, MicroBatchScheduler
from repro.serve.slo import (
    DeadlinePolicy,
    HostedKey,
    QuotaState,
    SessionTable,
    TenantPolicy,
)
from repro.trace import NULL_TRACER, Tracer, collect_tags
from repro.trace.report import STAGES

_Respond = Callable[[Frame], Awaitable[None]]

_T = TypeVar("_T")


@dataclass
class Request:
    """The request envelope: one decoded frame, from read to reply.

    Built by :meth:`KemService._handle_frame` and answered exactly
    once by :meth:`KemService._reply` — the only code that gives back
    what the request *holds*: a slot of the bounded queue (``pending``)
    and what its quota'd tenant was charged (``quota``, see
    :meth:`repro.serve.slo.QuotaState.release`).
    """

    frame: Frame
    respond: _Respond
    #: when the frame was read: start of the root span (and of the
    #: latency sample of a request answered without being parked)
    t_read: float
    pending: bool = False
    quota: QuotaState | None = None
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
        (the default ``"thread"`` with no pool size is a pool of
        :data:`~repro.backend.DEFAULT_THREAD_WORKERS` threads of its
        own);
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
        self._scheduler = MicroBatchScheduler(
            max_batch=config.max_batch,
            policy=AdaptiveDeadlinePolicy(
                max_wait_us=config.max_wait_us, min_wait_us=config.min_wait_us
            ),
            priority_of=lambda e: e.tier,
            tenant_of=lambda e: e.tenant,
        )
        self._tenants = TenantPolicy(config.tenant_quotas, clock)
        self._deadlines = DeadlinePolicy(config)
        self._channels = SessionTable()
        self._keys = self._tenants.keys  # the policy scopes each lookup
        self._backend = backend
        self._owns_backend = False
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
            await self._refuse(request, exc)
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
        held = request.quota
        if held is not None:
            request.quota = None
            held.release(frame.op is Op.KEYGEN and status is not Status.OK)
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

    async def _refuse(self, request: Request, refusal: ServiceError) -> None:
        """Answer a refusal: its status, its bare ``detail`` as payload,
        its tags on the root span."""
        status = refusal.status or Status.INTERNAL
        await self._reply(request, status, refusal.detail.encode(), **refusal.tags)

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
            # owned, so closed on shutdown
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
        object such as ``LAC_128``.  With the backend up,
        the key registers with its per-key transform cache immediately
        (keys added before :meth:`start` register when the backend
        comes up).  Raises :class:`repro.errors.UnsupportedScheme` when
        the backend declines the scheme (e.g. a NewHope key on the
        cosim backend, whose cycle model covers LAC only).
        """
        scheme, params = resolve(spec)
        if pair is None:
            pair = scheme.keygen(params, seed)
        return self._register_pair(scheme, params, pair, tenant)

    def _register_pair(
        self, scheme: Any, params: Any, pair: Any, tenant: int, reserved: bool = False
    ) -> int:
        """The one registration path: wire KEYGEN (whose key slot was
        ``reserved`` at admission), programmatic :meth:`add_keypair` and
        :class:`ThreadedService` all land here, so the hosted-key table
        cannot drift between entry points."""
        # the backend may decline the scheme: consume an id only after
        fingerprints = (
            self._backend.register_key(scheme, params, pair)
            if self._backend is not None
            else []
        )
        key = HostedKey(
            0, params, pair, fingerprints,
            scheme=scheme, tenant=tenant, wire_id=wire_id_for_params(params),
        )
        return self._tenants.host(key, reserved=reserved)

    def remove_keypair(self, key_id: int) -> bool:
        """Stop hosting a key; returns whether it was hosted.

        Requests already queued against the key still complete (they
        hold the :class:`HostedKey`); new ones get ``NOT_FOUND``.  The
        backend drops the key's transform-cache entries — to release
        memory early; fingerprints are content-derived, so correctness
        never depends on it.
        """
        hosted = self._tenants.unhost(key_id)
        if hosted is None:
            return False
        if self._backend is not None and hosted.fingerprints:
            self._backend.invalidate_key(hosted.fingerprints)
        hosted.fingerprints = []
        return True

    def hosted_key(self, key_id: int) -> HostedKey | None:
        """Look up a hosted key (``None`` when unknown)."""
        return self._keys.get(key_id)

    # ------------------------------------------------------------------
    # admission, and the ops answered inline
    # ------------------------------------------------------------------

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
            if self._tenants.find(key_id, request.tenant) is None:
                raise KeyNotFound(f"unknown key id {key_id}")
            self.remove_keypair(key_id)
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
        deadlines = self._deadlines
        request.deadline_s = deadlines.default_deadline_s
        qos = frame.qos
        if qos is not None:
            request.tier = deadlines.clamp_tier(qos.tier)
            if qos.deadline_us:
                request.deadline_s = qos.deadline_s
        # tenant quota: the tenant's own key/in-flight/rate budget is
        # checked before any shared-capacity gate, so an over-quota
        # tenant is shed by *its* limits, never by crowding others out
        request.quota = self._tenants.admit(
            request.tenant, request.tier, op is Op.KEYGEN
        )
        if op in _SESSION_OPS:
            # stateful channel ops: answered inline like INFO — they
            # never enter the batch queue (the quota gate above still
            # applies, so a chatty tenant cannot flood the channel path)
            request.tags = {"tenant": request.tenant}
            await self._reply(request, Status.OK, await self._session(request))
            return
        # refused here, the request was not queued: that is the contract
        deadlines.admit(
            self._pending, request.tier, request.deadline_s, op.name, frame.param_id
        )
        self._pending += 1
        request.pending = True
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
                raise ProtocolError(f"KEYGEN seed must be {seed_len} bytes or empty")
            request.scheme, request.params = scheme, params
            request.item = payload or None
            return
        key_id, rest = unpack_key_id(payload)
        key = self._tenants.find(key_id, request.tenant)
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
            request.item = self._message(key, rest)
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

    @staticmethod
    def _message(key: HostedKey, given: bytes) -> bytes:
        """The KEM message to encapsulate under ``key``: ``given``, or
        drawn here, on the loop, so every backend receives identical
        inputs."""
        message_bytes = key.scheme.message_bytes(key.params)
        if given and len(given) != message_bytes:
            raise ProtocolError(f"message must be {message_bytes} bytes or empty")
        return given or secrets.token_bytes(message_bytes)

    async def _session(self, request: Request) -> bytes:
        """Serve one secure-channel op inline; returns the OK payload.

        ``SESSION_OPEN`` runs its one encapsulation here, through the
        backend under the tenant's hosted key, and the session table
        binds a channel to it; the table answers the other session ops.
        """
        frame, tenant = request.frame, request.tenant
        if frame.op is not Op.SESSION_OPEN:
            return self._channels.answer(frame.op, frame.payload, tenant)
        key_id, rest = unpack_key_id(frame.payload)
        key = self._tenants.find(key_id, tenant)
        if key is None:
            raise KeyNotFound(f"unknown key id {key_id}")
        message = self._message(key, rest)
        backend = self._backend
        assert backend is not None, "start() the service first"
        [(ct_bytes, shared)] = await asyncio.wrap_future(
            backend.submit(key.scheme, key.params, "ENCAPS", [key.pair], [message])
        )
        return self._channels.open(tenant, ct_bytes, shared)

    def _info_payload(self, frame: Frame) -> bytes:
        if frame.payload == b"text":
            return self.metrics.render_text().encode()
        backend, fair_share = self._backend, self._scheduler.fair_share
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
            "high_watermark": self.config.high_watermark,
            "request_timeout_s": self.config.request_timeout,
            "backend": backend.name if backend is not None else None,
            "workers": backend.slots if backend is not None else None,
            "default_deadline_s": self.config.default_deadline_s,
            "tier_limits": list(self._deadlines.tier_limits),
            "estimator": self._deadlines.estimator.snapshot(),
            "schemes": {
                scheme.name: [p.name for p in scheme.param_sets]
                for scheme in all_schemes()
            },
            "sessions": len(self._channels),
            "tenants": self._tenants.info(),
            "fair_share": {
                str(tenant): round(balance, 3)
                for tenant, balance in sorted(fair_share.snapshot().items())
            },
        }
        return json.dumps(snap).encode()

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
        again.  Entries the deadline policy times out are answered
        ``TIMEOUT`` by the task, unexecuted.
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
        live, late = self._deadlines.at_flush(
            (op.name, entries[0].frame.param_id), entries, now
        )
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
        late: list[tuple[Request, RequestTimedOut]],
        kernel: asyncio.Future[list[Any]] | None,
        t_exec: float,
    ) -> None:
        """Answer one launched batch: ``late`` entries ``TIMEOUT``, the
        ``live`` ones with what ``kernel`` resolves to."""
        op: Op = batch.key[0]
        for entry, refusal in late:
            await self._refuse(entry, refusal)
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
            first = live[0]
            if self.tracer.enabled and first.t_kernel_end:
                tags: dict[str, Any] = {
                    "op": op.name, "batch_size": len(live), "trigger": batch.trigger,
                }
                tags.update(first.kernel_tags or {})
                self.tracer.record_span(
                    "server.batch", first.t_kernel_start,
                    first.t_kernel_end - first.t_kernel_start, first.trace_id,
                    tags=tags,
                )
        # successful batches feed the estimator (failures would poison
        # the EWMA with fault-injection stalls and crash-restart time)
        deadlines = self._deadlines
        key = (op.name, first.frame.param_id)
        deadlines.estimator.observe(key, self._clock() - t_exec, len(live))
        t_done = self._clock()
        keygen = op is Op.KEYGEN
        for entry, payload in zip(live, payloads, strict=True):
            assert entry.enqueued_at is not None
            refusal = deadlines.at_completion(
                keygen, entry.enqueued_at, t_done, entry.deadline_s
            )
            if refusal is None:
                await self._reply(entry, Status.OK, payload)
            else:
                await self._refuse(entry, refusal)

    def _kernel_wrapper(
        self, entries: list[Request]
    ) -> Callable[[Callable[[], Any]], Any]:
        """The hook the backend runs around the batch, in its own context.

        What must happen *where the batch executes* (a pool thread, the
        process backend's supervisor thread, or the caller for the
        inline backend): draw ``kernel`` faults (stall/raise) and
        ``backend`` faults (kill a worker before the batch fans out);
        stamp the kernel extent on every entry, so the ``kernel`` stage
        means the same on every backend; and collect ambient tags into
        the entries — the executing thread does not carry the loop's
        context.  The stamps are written in a ``finally``, so a raising
        kernel still yields a ``kernel`` stage carrying its fault tags.
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
                    self._register_pair(scheme, params, made, e.tenant, reserved=True)
                )
                + scheme.public_key_bytes_of(params, made)
                for e, made in zip(live, results, strict=True)
            ]
        if op is Op.ENCAPS:
            return [ct + shared for ct, shared in results]
        return results


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

    def _call(self, work: Callable[[KemService], Coroutine[Any, Any, _T]]) -> _T:
        """Run ``work(service)`` on the loop thread; returns its result."""
        assert self._loop is not None and self._service is not None, "start() first"
        future = asyncio.run_coroutine_threadsafe(work(self._service), self._loop)
        return future.result()

    def connect(self) -> socket.socket:
        """A new in-process connection as a client socket."""
        return self._call(KemService.connect_socket)

    def serve_tcp(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Start a TCP listener; returns the bound port."""

        async def listen(service: KemService) -> int:
            server = await service.serve_tcp(host, port)
            port_: int = server.sockets[0].getsockname()[1]
            return port_

        return self._call(listen)

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

        async def add(service: KemService) -> int:
            return service.add_keypair(spec, seed=seed, tenant=tenant)

        return self._call(add)

    def remove_keypair(self, key_id: int) -> bool:
        """Stop hosting a key on the service thread; True if it existed."""

        async def remove(service: KemService) -> bool:
            return service.remove_keypair(key_id)

        return self._call(remove)

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
