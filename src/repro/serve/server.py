"""The asyncio KEM service: transports, batching, backpressure, drain.

:class:`KemService` hosts key pairs of any registered
:class:`repro.schemes.KemScheme` (LAC and NewHope ship registered) and
serves ``KEYGEN`` / ``ENCAPS`` / ``DECAPS`` / ``INFO`` requests — plus
the stateful secure-channel ops ``SESSION_OPEN`` / ``SEAL`` / ``OPEN``
/ ``SESSION_CLOSE`` — over the frame protocol of
:mod:`repro.serve.protocol`.  The interesting part is what happens
between a request arriving and its response leaving:

1. the connection handler validates the frame cheaply on the event
   loop (sizes, key ids) and rejects early with ``BAD_REQUEST`` /
   ``NOT_FOUND``;
2. admission control: during drain every request gets
   ``SHUTTING_DOWN``; beyond the request's *per-tier* watermark
   (``high_watermark`` scaled by ``config.tier_watermarks``) it gets
   ``BUSY`` *without being queued* — the bounded queue is the
   backpressure contract — and a request whose deadline budget is
   already below the expected batch service time is shed ``BUSY``
   immediately (reason ``hopeless``);
3. accepted requests enter the
   :class:`~repro.serve.scheduler.MicroBatchScheduler`, keyed by
   ``(op, key id, tenant)`` — per-tenant queues, with deficit-round-
   robin fair-share breaking flush-order ties within a QoS tier;
4. full batches (flush-on-size) dispatch immediately; a single timer
   task wakes at the scheduler's earliest adaptive deadline for the
   rest (flush-on-deadline);
5. a dispatch submits to the service's :class:`repro.backend.KemBackend`
   (thread pool by default; multi-process via ``backend="process"``):
   expired entries — and entries whose queue wait plus the EWMA batch
   estimate overshoots their deadline (reason ``predicted-miss``) —
   are answered ``TIMEOUT`` unexecuted, the rest go
   through the backend's batched encaps/decaps/keygen kernels, and the
   responses fan back out to their connections with per-request ids;
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

Transports live once, in :class:`FrameServer` — the connection shell
this service and the cluster router both extend: ``serve_tcp`` (asyncio
TCP), ``connect`` (an in-process ``socketpair`` — what the tests and
the benchmark use; same frames, no network stack), ``connect_socket``
(the raw end the blocking client wraps), and the per-connection read
loop that decodes frames through the one decoder of
:mod:`repro.serve.protocol` and hands them to ``_handle_frame``.
:class:`LoopThreadHost` likewise runs any such server on a background
event-loop thread; :class:`ThreadedService` is the service on it, so
synchronous code — examples, notebooks — never touches asyncio.

**Tracing**: when constructed with an enabled
:class:`repro.trace.Tracer`, the service stamps each request at five
stage boundaries (read, enqueue, flush, kernel start/end) and emits a
``server.request`` root span plus telescoping ``admission`` /
``queue`` / ``dispatch`` / ``kernel`` / ``reply`` stage spans when the
response is written — the stage durations sum to the root span
exactly.  Stage times also feed ``metrics.stage_seconds``.  Requests
carrying a wire trace context (protocol version 2) attach the server
spans to the client's span and have their context echoed on the
response.  With the default :data:`repro.trace.NULL_TRACER` every
instrumentation site is a single false branch.
"""

from __future__ import annotations

import asyncio
import hmac
import json
import secrets
import socket
import threading
import time
from collections.abc import Awaitable, Callable, Coroutine
from dataclasses import dataclass, field
from typing import Any, Generic, TypeVar

from repro.backend.base import KemBackend, create_backend, resolve_backend_name

# Only ``repro.faults.plan`` is imported at module level: it has no
# dependency on ``repro.serve``, while ``repro.faults.transport`` does
# (the frame decoder), so the latter is imported lazily inside
# ``FrameServer._handle_connection`` to keep the import graph acyclic.
from repro.faults.plan import (
    KIND_STALL,
    KIND_TIMEOUT,
    SITE_ADMISSION,
    SITE_BACKEND,
    SITE_KERNEL,
    FaultPlan,
    InjectedFault,
)
from repro.lac.hybrid import _derive_keys, _keystream, _tag
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
from repro.serve.slo import (
    Autoscaler,
    CycleCostEstimator,
    KernelEstimator,
    predicted_miss,
)
from repro.trace import NULL_TRACER, Tracer, collect_tags

_Respond = Callable[[Frame], Awaitable[None]]

_T = TypeVar("_T")
_ServerT = TypeVar("_ServerT", bound="FrameServer")
_HostT = TypeVar("_HostT", bound="LoopThreadHost[Any]")


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
class _Entry:
    """One accepted request parked in the scheduler."""

    frame: Frame
    respond: _Respond
    enqueued_at: float
    key: HostedKey | None = None  # ENCAPS/DECAPS
    params: Any = None  # KEYGEN
    scheme: Any = None  # KEYGEN
    #: effective deadline budget (wire QoS or the config default) and
    #: priority tier — drive shedding and priority-aware flushing
    deadline_s: float | None = None
    tier: int = 0
    #: the wire tenant (0 when the extension is absent) — drives quota
    #: accounting, fair-share batching and the per-tenant metrics
    tenant: int = DEFAULT_TENANT
    shed_reason: str | None = None
    message: bytes | None = None  # ENCAPS (None = server-random)
    seed: bytes | None = None  # KEYGEN
    ct_bytes: bytes | None = None  # DECAPS
    # tracing stamps — populated only when the service's tracer is
    # enabled, so the disabled path allocates nothing beyond defaults
    t_read: float = 0.0
    t_flushed: float = 0.0
    t_kernel_start: float = 0.0
    t_kernel_end: float = 0.0
    trace_id: int = 0
    root_span: int = 0
    parent_span: int | None = None
    batch_size: int = 0
    trigger: str = ""
    kernel_tags: dict[str, Any] | None = None


#: The session ops: answered inline (no batching), tenant-scoped.
_SESSION_OPS = frozenset((Op.SESSION_OPEN, Op.SEAL, Op.OPEN, Op.SESSION_CLOSE))


@dataclass
class _TenantState:
    """Runtime quota accounting for one configured tenant."""

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


@dataclass
class _Session:
    """One open secure channel (``SESSION_OPEN`` .. ``SESSION_CLOSE``).

    ``kem_ct`` is the encapsulation ciphertext the channel was opened
    with — it binds every ``SEAL`` tag, exactly as
    :class:`repro.lac.hybrid.LacHybrid` binds its tags, which is what
    makes served transcripts bit-identical to the library's.
    """

    session_id: int
    key_id: int
    tenant: int
    kem_ct: bytes
    enc_key: bytes
    mac_key: bytes


def _xor_stream(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """XOR ``data`` with the :func:`repro.lac.hybrid` keystream."""
    stream = _keystream(key, nonce, len(data))
    return bytes(a ^ b for a, b in zip(data, stream, strict=True))


class FrameServer:
    """The connection shell: transports and the per-connection loop.

    Everything between a byte stream and a decoded request exists here
    once, for :class:`KemService` and :class:`repro.cluster.ClusterRouter`
    alike: the listeners (``serve_tcp``), the in-process transports
    (``connect`` / ``connect_socket``), the read loop with its fault
    wrappers and typed connection-error accounting, the serialized
    ``respond`` writer, and the transport teardown.  A subclass supplies
    ``start``/``shutdown`` and ``_handle_frame(frame, respond)``, which
    must answer every frame it accepts.
    """

    def __init__(self, fault_plan: FaultPlan | None) -> None:
        self.metrics = ServiceMetrics()
        self.fault_plan = fault_plan
        self._conn_tasks: set[asyncio.Task[None]] = set()
        self._writers: set[FrameWriter] = set()
        self._tcp_servers: list[asyncio.base_events.Server] = []

    async def start(self) -> FrameServer:
        """Begin serving (subclass hook)."""
        raise NotImplementedError

    async def shutdown(self) -> None:
        """Stop serving and release everything (subclass hook)."""
        raise NotImplementedError

    async def _handle_frame(self, frame: Frame, respond: _Respond) -> None:
        """Serve one decoded request frame (subclass hook)."""
        raise NotImplementedError

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
                try:
                    await self._handle_frame(frame, respond)
                except asyncio.CancelledError:
                    raise
                except Exception:  # noqa: BLE001 - isolate the connection
                    # a handler bug poisons this request, not the
                    # connection loop — answer INTERNAL and carry on
                    self.metrics.record_conn_error("handler-internal")
                    await respond(self._error(frame, Status.INTERNAL, "internal error"))
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

    def _error(self, request: Frame, status: Status, message: str) -> Frame:
        self.metrics.record_response(request.op.name, status.name)
        return request.reply(status, message.encode())

    async def _close_transports(self) -> None:
        """Close listeners and live connections (the tail of a shutdown)."""
        for server in self._tcp_servers:
            server.close()
            await server.wait_closed()
        for writer in list(self._writers):
            writer.close()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)


class KemService(FrameServer):
    """An async multi-scheme KEM service with adaptive micro-batching.

    Construct, ``await start()``, attach transports, ``await
    shutdown()``.  Tuning lives in one frozen :class:`ServiceConfig`
    (batching, backpressure, timeout and backend-selection knobs — see
    its docstring); the environment-shaped arguments stay on the
    constructor:

    ``backend``
        an explicit :class:`repro.backend.KemBackend` instance to
        execute batches on.  The caller keeps ownership (the service
        never closes it).  When omitted, the service creates one at
        :meth:`start` from ``config.backend`` (name, falling back to
        ``$REPRO_KEM_BACKEND``, then ``"thread"``) and closes it on
        :meth:`shutdown`;
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
        super().__init__(fault_plan)
        config = config if config is not None else ServiceConfig()
        self.config = config
        self.high_watermark = config.high_watermark
        self.request_timeout = config.request_timeout
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._clock = clock
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
        self._sessions: dict[int, _Session] = {}
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
        self._autoscaler = Autoscaler(
            min_workers=config.autoscale_min_workers,
            max_workers=config.autoscale_max_workers,
            up_queue_per_worker=config.autoscale_up_queue_per_worker,
            down_queue_per_worker=config.autoscale_down_queue_per_worker,
            cooldown_s=config.autoscale_cooldown_s,
            sustain=config.autoscale_sustain,
        )
        self._autoscale_task: asyncio.Task[None] | None = None
        self._backend = backend
        self._owns_backend = False
        self._keys: dict[int, HostedKey] = {}
        self._next_key_id = 1
        self._pending = 0
        self._draining = False
        self._started = False
        self._started_at = 0.0
        self._wake: asyncio.Event | None = None
        self._flusher: asyncio.Task[None] | None = None
        self._inflight: set[asyncio.Task[None]] = set()

    @property
    def backend(self) -> KemBackend | None:
        """The execution backend (``None`` until :meth:`start` when
        the service creates its own from configuration)."""
        return self._backend

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
                resolve_backend_name(self.config.backend),
                workers=self.config.backend_workers,
                fan_out=self.config.kernel_workers,
                cache_entries=self.config.transform_cache_entries,
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
        if self.config.autoscale:
            self._autoscale_task = asyncio.create_task(self._autoscale_loop())
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
        if self._autoscale_task is not None:
            self._autoscale_task.cancel()
            try:
                await self._autoscale_task
            except asyncio.CancelledError:
                pass
            self._autoscale_task = None
        if self._flusher is not None:
            self._flusher.cancel()
            try:
                await self._flusher
            except asyncio.CancelledError:
                pass
        await self._close_transports()
        if self._owns_backend and self._backend is not None:
            # in-flight batches are drained above, so this cannot strand
            # work; re-created from config if the service is restarted
            self._backend.close(wait=True)
            self._backend = None
            self._owns_backend = False
        self.metrics.backend_stats_provider = None
        self._started = False

    def abort(self) -> None:
        """Crash the service: sever every transport, skip the drain.

        The SIGKILL analogue for in-process members and chaos tests —
        listeners close and live connections reset immediately, so
        accepted-but-unanswered requests are simply lost, exactly as
        when a member process dies.  :meth:`shutdown` (which this does
        **not** replace) still releases the backend afterwards.
        """
        self._draining = True
        for server in self._tcp_servers:
            server.close()
        for writer in list(self._writers):
            transport = getattr(writer, "transport", None)
            if transport is not None:
                transport.abort()
            else:
                writer.close()

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
        return self._register_pair(scheme, params, pair, tenant=tenant)

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
        state = self._tenants.get(tenant)
        if state is not None:
            state.keys += 1
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

    @property
    def pending(self) -> int:
        """Requests accepted but not yet answered (the bounded queue)."""
        return self._pending

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------

    async def _reject(
        self,
        frame: Frame,
        respond: _Respond,
        t_read: float,
        status: Status,
        message: str,
        **tags: Any,
    ) -> None:
        """Answer a request that never leaves admission, and trace it.

        Writes the typed error response, then emits the admission-only
        span pair: a reject never leaves admission, so one ``admission``
        stage span tiles the whole ``server.request`` root — the
        attribution table's coverage stays exact even under
        backpressure or chaos.  ``tags`` land on the root span.  Sheds
        are counted by the caller *before* this runs: once the client
        sees ``BUSY`` the metric must already be observable.
        """
        await respond(self._error(frame, status, message))
        tracer = self.tracer
        if not tracer.enabled:
            return
        duration = self._clock() - t_read
        if frame.trace is not None:
            trace_id: int = frame.trace.trace_id
            parent: int | None = frame.trace.span_id
        else:
            trace_id, parent = tracer.new_trace_id(), None
        span_tags: dict[str, Any] = {"op": frame.op.name, "status": status.name}
        span_tags.update(tags)
        root = tracer.record_span(
            "server.request",
            t_read,
            duration,
            trace_id,
            parent_id=parent,
            tags=span_tags,
        )
        tracer.record_span(
            "admission",
            t_read,
            duration,
            trace_id,
            parent_id=root.span_id,
            tags={"op": frame.op.name, "status": status.name},
        )
        self.metrics.observe_stage("admission", max(duration, 0.0))

    def _tenant_admit(self, op: Op, tenant: int) -> str | None:
        """Check (and charge) ``tenant``'s quota for one request.

        Returns ``None`` to admit, or the exhausted limit —
        ``"keys"`` (KEYGEN would exceed ``max_keys``), ``"inflight"``
        (``max_inflight`` accepted-but-unanswered requests), or
        ``"rate"`` (the ops/s token bucket is empty).  Admission costs
        one token; tenants without a configured quota are unlimited.
        """
        state = self._tenants.get(tenant)
        if state is None:
            return None
        quota = state.quota
        if (
            op is Op.KEYGEN
            and quota.max_keys is not None
            and state.keys >= quota.max_keys
        ):
            return "keys"
        if quota.max_inflight is not None and state.inflight >= quota.max_inflight:
            return "inflight"
        if quota.ops_per_s is not None:
            state.refill(self._clock())
            if state.tokens < 1.0:
                return "rate"
            state.tokens -= 1.0
        return None

    async def _handle_frame(self, frame: Frame, respond: _Respond) -> None:
        op = frame.op
        tracer = self.tracer
        t_read = self._clock() if tracer.enabled else 0.0
        tenant = frame.tenant if frame.tenant is not None else DEFAULT_TENANT
        self.metrics.record_request(op.name)
        self.metrics.record_tenant_request(tenant)
        if op is Op.INFO:
            await respond(self._info_response(frame))
            self.metrics.record_response(op.name, Status.OK.name)
            return
        if op is Op.REMOVE_KEY:
            # control plane, like INFO: answered inline (no batching)
            # and served even while draining — the cluster router pulls
            # keys off members during rebalancing and shutdown
            try:
                key_id, _ = unpack_key_id(frame.payload)
            except ProtocolError as exc:
                await respond(self._error(frame, Status.BAD_REQUEST, str(exc)))
                return
            if self.remove_keypair(key_id):
                self.metrics.record_response(op.name, Status.OK.name)
                await respond(frame.reply(Status.OK))
            else:
                await respond(
                    self._error(
                        frame, Status.NOT_FOUND, f"unknown key id {key_id}"
                    )
                )
            return
        if self.fault_plan is not None:
            spec = self.fault_plan.draw(SITE_ADMISSION)
            if spec is not None:
                status = Status.TIMEOUT if spec.kind == KIND_TIMEOUT else Status.BUSY
                await self._reject(
                    frame, respond, t_read, status,
                    f"injected fault: {spec.kind}",
                    fault_site=SITE_ADMISSION, fault_kind=spec.kind,
                )
                return
        if self._draining:
            await self._reject(
                frame, respond, t_read, Status.SHUTTING_DOWN, "draining"
            )
            return
        qos = frame.qos
        tier = min(qos.tier if qos is not None else 0, len(self._tier_limits) - 1)
        deadline_s = (
            qos.deadline_s
            if qos is not None and qos.deadline_us
            else self.config.default_deadline_s
        )
        # tenant quota: the tenant's own key/in-flight/rate budget is
        # checked before any shared-capacity gate, so an over-quota
        # tenant is shed by *its* limits, never by crowding others out
        over_quota = self._tenant_admit(op, tenant)
        if over_quota is not None:
            self.metrics.record_shed("quota", tier, tenant)
            await self._reject(
                frame, respond, t_read, Status.BUSY,
                f"tenant {tenant} over quota ({over_quota})",
                shed_reason="quota", tier=tier, tenant=tenant,
            )
            return
        if op in _SESSION_OPS:
            # stateful channel ops: answered inline like INFO — they
            # never enter the batch queue (the quota gate above still
            # applies, so a chatty tenant cannot flood the channel path)
            await self._handle_session(frame, respond, tenant, t_read)
            return
        # per-tier watermark: lower tiers stop admitting before the
        # queue is full, reserving the remaining headroom for
        # interactive traffic (tier 0 keeps the classic full-queue BUSY)
        limit = self._tier_limits[tier]
        if self._pending >= limit:
            # a full queue is plain backpressure; only a tier that
            # stopped admitting early counts (and is tagged) as a shed
            shed: dict[str, Any] = {}
            if limit < self.high_watermark:
                self.metrics.record_shed("watermark", tier, tenant)
                shed = {"shed_reason": "watermark", "tier": tier}
            await self._reject(
                frame, respond, t_read, Status.BUSY,
                f"{self._pending} requests pending", **shed,
            )
            return
        if self.config.shed_deadlines and deadline_s is not None:
            # hopeless check: when one batch already takes longer than
            # the whole budget, admitting only manufactures a TIMEOUT —
            # answer BUSY now so the client's retry policy backs off
            estimate = self._estimator.batch_seconds((op.name, frame.param_id))
            if estimate is not None and predicted_miss(0.0, estimate, deadline_s):
                self.metrics.record_shed("hopeless", tier, tenant)
                await self._reject(
                    frame, respond, t_read, Status.BUSY,
                    f"deadline {deadline_s:.3f}s below expected "
                    f"{estimate:.3f}s service time",
                    shed_reason="hopeless", tier=tier,
                )
                return
        try:
            entry = self._parse_request(frame, respond)
        except ProtocolError as exc:
            await self._reject(frame, respond, t_read, Status.BAD_REQUEST, str(exc))
            return
        except KeyError as exc:
            await self._reject(frame, respond, t_read, Status.NOT_FOUND, str(exc))
            return
        entry.deadline_s = deadline_s
        entry.tier = tier
        if tracer.enabled:
            entry.t_read = t_read
            if frame.trace is not None:
                entry.trace_id = frame.trace.trace_id
                entry.parent_span = frame.trace.span_id
            else:
                entry.trace_id = tracer.new_trace_id()
            entry.root_span = tracer.new_span_id()
        self._accept(op, entry)

    def _parse_request(self, frame: Frame, respond: _Respond) -> _Entry:
        now = self._clock()
        op, payload = frame.op, frame.payload
        tenant = frame.tenant if frame.tenant is not None else DEFAULT_TENANT
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
            return _Entry(
                frame, respond, now, params=params, scheme=scheme,
                seed=payload or None, tenant=tenant,
            )
        key_id, rest = unpack_key_id(payload)
        key = self._keys.get(key_id)
        if key is None:
            raise KeyError(f"unknown key id {key_id}")
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
            return _Entry(
                frame, respond, now, key=key, message=rest or None, tenant=tenant
            )
        if op is Op.DECAPS:
            ct_bytes = key.scheme.ciphertext_wire_bytes(key.params)
            if len(rest) != ct_bytes:
                raise ProtocolError(f"ciphertext must be {ct_bytes} bytes")
            return _Entry(frame, respond, now, key=key, ct_bytes=rest, tenant=tenant)
        raise ProtocolError(f"unsupported op {op.name}")

    def _accept(self, op: Op, entry: _Entry) -> None:
        self._pending += 1
        self.metrics.adjust_queue_depth(+1)
        state = self._tenants.get(entry.tenant)
        if state is not None:
            state.inflight += 1
        # batches are per-tenant: one tenant's burst cannot ride in
        # another tenant's batch, and the scheduler's DRR fair-share
        # orders same-tier flushes by under-served tenant
        batch_key = (
            (op, entry.key.key_id, entry.tenant) if entry.key is not None
            else (op, entry.scheme.name, entry.params.name, entry.tenant)
        )
        batch = self._scheduler.submit(batch_key, entry, self._clock())
        if batch is not None:
            self._launch_dispatch(batch)
        elif self._wake is not None:
            self._wake.set()  # deadline set may have changed

    # ------------------------------------------------------------------
    # flushing and dispatch
    # ------------------------------------------------------------------

    async def _flush_loop(self) -> None:
        wake = self._wake
        assert wake is not None  # set by start() before the task spawns
        while True:
            for batch in self._scheduler.poll(self._clock()):
                self._launch_dispatch(batch)
            deadline = self._scheduler.next_deadline()
            timeout = None if deadline is None else max(0.0, deadline - self._clock())
            try:
                await asyncio.wait_for(wake.wait(), timeout)
            except asyncio.TimeoutError:
                pass
            wake.clear()

    # ------------------------------------------------------------------
    # autoscaling
    # ------------------------------------------------------------------

    def autoscale_tick(self) -> bool:
        """One autoscaler decision applied to the backend; True on resize.

        Reads queue depth (accepted-but-unanswered requests), the
        current worker count, and a Little's-law demand estimate
        (arrival rate x EWMA per-op kernel seconds), asks the
        :class:`~repro.serve.slo.Autoscaler` for a target, and applies
        it with :meth:`repro.backend.KemBackend.resize`.  Backends that
        decline to resize (inline, borrowed executors, the shared
        default) make this a no-op.  Public and synchronous so tests
        and benchmarks can drive it deterministically without running
        the timer loop.
        """
        backend = self._backend
        if backend is None:
            return False
        workers = backend.workers
        if workers is None:
            return False
        gap_us = self._scheduler.policy.ewma_gap_us
        op_seconds = self._estimator.global_op_seconds()
        demand = 0
        if gap_us is not None and gap_us > 0 and op_seconds is not None:
            demand = int((1e6 / gap_us) * op_seconds + 0.999)
        now = self._clock()
        target = self._autoscaler.decide(now, self._pending, workers, demand)
        if target == workers:
            return False
        if not backend.resize(target):
            return False
        direction = "up" if target > workers else "down"
        self.metrics.record_autoscale(direction)
        if self.tracer.enabled:
            self.tracer.record_span(
                "autoscaler.resize",
                now,
                self._clock() - now,
                self.tracer.new_trace_id(),
                tags={
                    "direction": direction,
                    "workers_from": workers,
                    "workers_to": target,
                    "queue_depth": self._pending,
                    "demand_workers": demand,
                },
            )
        return True

    async def _autoscale_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.autoscale_interval_s)
            try:
                self.autoscale_tick()
            except Exception:  # noqa: BLE001 - scaling must never kill serving
                self.metrics.record_conn_error("autoscale-internal")

    def _launch_dispatch(self, batch: Batch) -> None:
        self.metrics.adjust_queue_depth(-len(batch.entries))
        self.metrics.record_batch(batch.key[0].name, len(batch.entries), batch.trigger)
        task = asyncio.create_task(self._dispatch(batch))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _dispatch(self, batch: Batch) -> None:
        op: Op = batch.key[0]
        now = self._clock()
        traced = self.tracer.enabled
        if traced:
            for entry in batch.entries:
                entry.t_flushed = now
                entry.batch_size = len(batch.entries)
                entry.trigger = batch.trigger
        shed_deadlines = self.config.shed_deadlines
        estimate = (
            self._estimator.batch_seconds((op.name, batch.entries[0].frame.param_id))
            if shed_deadlines
            else None
        )
        live: list[_Entry] = []
        for entry in batch.entries:
            waited = now - entry.enqueued_at
            if self.request_timeout is not None and waited > self.request_timeout:
                await self._finish(
                    entry, Status.TIMEOUT, f"queued {waited:.3f}s".encode()
                )
            elif (
                shed_deadlines
                and entry.deadline_s is not None
                and predicted_miss(waited, estimate, entry.deadline_s)
            ):
                # the wait already spent plus the expected kernel time
                # overshoots the budget: answer TIMEOUT *before* burning
                # backend capacity on a response nobody will use
                self.metrics.record_shed("predicted-miss", entry.tier, entry.tenant)
                entry.shed_reason = "predicted-miss"
                await self._finish(
                    entry,
                    Status.TIMEOUT,
                    f"shed: queued {waited:.3f}s + expected "
                    f"{estimate or 0.0:.3f}s exceeds deadline "
                    f"{entry.deadline_s:.3f}s".encode(),
                )
            else:
                live.append(entry)
        if not live:
            return
        self.metrics.adjust_inflight(+1)
        t_exec = self._clock()
        try:
            payloads = await self._execute(op, live)
        except Exception as exc:  # noqa: BLE001 - fan the failure out
            for entry in live:
                await self._finish(entry, Status.INTERNAL, str(exc).encode())
            return
        finally:
            self.metrics.adjust_inflight(-1)
            if traced and live and live[0].t_kernel_end:
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
        if len(payloads) != len(live):
            # a kernel returning the wrong count must not strand
            # requests (they would leak out of the pending gauge)
            for entry in live:
                await self._finish(
                    entry, Status.INTERNAL, b"batch result count mismatch"
                )
            return
        t_done = self._clock()
        for entry, payload in zip(live, payloads, strict=True):
            if (
                shed_deadlines
                and entry.deadline_s is not None
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
                self.metrics.record_shed("missed", entry.tier, entry.tenant)
                entry.shed_reason = "missed"
                await self._finish(
                    entry,
                    Status.TIMEOUT,
                    f"completed {t_done - entry.enqueued_at:.3f}s "
                    f"past a {entry.deadline_s:.3f}s deadline".encode(),
                )
            else:
                await self._finish(entry, Status.OK, payload)

    def _kernel_wrapper(
        self, entries: list[_Entry]
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

    async def _execute(self, op: Op, live: list[_Entry]) -> list[bytes]:
        """Run one batch on the execution backend; returns raw payloads.

        One ``backend.submit`` per batch, whatever the scheme: the
        already-validated wire bytes go in as they arrived, and only
        message drawing and response byte-building stay on the event
        loop, so every backend receives identical inputs.
        """
        backend = self._backend
        assert backend is not None, "start() the service first"
        first = live[0]
        items: list[Any]
        if op is Op.KEYGEN:
            scheme, params, pair = first.scheme, first.params, None
            assert params is not None and scheme is not None
            items = [e.seed for e in live]
        else:
            key = first.key
            assert key is not None
            scheme, params, pair = key.scheme, key.params, key.pair
            if op is Op.ENCAPS:
                message_bytes = scheme.message_bytes(params)
                items = [
                    e.message
                    if e.message is not None
                    else secrets.token_bytes(message_bytes)
                    for e in live
                ]
            else:
                items = [e.ct_bytes for e in live]
        results = await asyncio.wrap_future(
            backend.submit(
                scheme, params, op.name, pair, items,
                wrapper=self._kernel_wrapper(live),
            )
        )
        if op is Op.KEYGEN:
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

    async def _finish(self, entry: _Entry, status: Status, payload: bytes) -> None:
        self._pending -= 1
        state = self._tenants.get(entry.tenant)
        if state is not None and state.inflight > 0:
            state.inflight -= 1
        frame = entry.frame
        self.metrics.record_response(frame.op.name, status.name)
        self.metrics.observe_latency(
            frame.op.name, (self._clock() - entry.enqueued_at) * 1e6
        )
        if self.tracer.enabled and entry.t_read:
            self._trace_request(entry, status)
        await entry.respond(frame.reply(status, payload))

    def _trace_request(self, entry: _Entry, status: Status) -> None:
        """Emit the root span and telescoping stage spans of a request.

        The stages share their boundary timestamps, so their durations
        sum to the ``server.request`` root exactly; requests that never
        reach a later boundary (queue-expired ``TIMEOUT``, kernel
        failure) close their last open stage at response time instead,
        keeping the tiling exact on every path.
        """
        tracer = self.tracer
        t_done = self._clock()
        frame = entry.frame
        trace_id = entry.trace_id
        root_id = entry.root_span
        tags: dict[str, Any] = {"op": frame.op.name, "status": status.name}
        if entry.key is not None:
            tags["key_id"] = entry.key.key_id
        if entry.tier:
            tags["tier"] = entry.tier
        if entry.tenant:
            tags["tenant"] = entry.tenant
        if entry.shed_reason is not None:
            tags["shed_reason"] = entry.shed_reason
        if entry.batch_size:
            tags["batch_size"] = entry.batch_size
            tags["trigger"] = entry.trigger
        tracer.record_span(
            "server.request",
            entry.t_read,
            t_done - entry.t_read,
            trace_id,
            span_id=root_id,
            parent_id=entry.parent_span,
            tags=tags,
        )

        def stage(
            name: str, start: float, end: float,
            extra: dict[str, Any] | None = None,
        ) -> None:
            tracer.record_span(
                name,
                start,
                end - start,
                trace_id,
                parent_id=root_id,
                tags=extra if extra is not None else {},
            )
            self.metrics.observe_stage(name, max(end - start, 0.0))

        stage("admission", entry.t_read, entry.enqueued_at)
        if not entry.t_flushed:
            stage("queue", entry.enqueued_at, t_done)
            return
        stage("queue", entry.enqueued_at, entry.t_flushed)
        if not entry.t_kernel_start:
            stage("reply", entry.t_flushed, t_done)
            return
        stage("dispatch", entry.t_flushed, entry.t_kernel_start)
        stage("kernel", entry.t_kernel_start, entry.t_kernel_end, entry.kernel_tags)
        stage("reply", entry.t_kernel_end, t_done)

    # ------------------------------------------------------------------
    # sessions (the secure-channel workload)
    # ------------------------------------------------------------------

    async def _handle_session(
        self, frame: Frame, respond: _Respond, tenant: int, t_read: float
    ) -> None:
        """Serve one secure-channel op inline (never batched).

        ``SESSION_OPEN`` encapsulates via the hosted key's backend path
        and derives the channel keys with
        :func:`repro.lac.hybrid._derive_keys`; ``SEAL``/``OPEN`` run
        the same keystream/tag construction as
        :class:`~repro.lac.hybrid.LacHybrid`, so served transcripts are
        bit-identical to the library's.  Sessions are tenant-scoped:
        another tenant's session id answers ``NOT_FOUND``.
        """
        op = frame.op
        started = self._clock()

        async def ok(payload: bytes = b"") -> None:
            self.metrics.record_response(op.name, Status.OK.name)
            self.metrics.observe_latency(op.name, (self._clock() - started) * 1e6)
            await respond(frame.reply(Status.OK, payload))

        async def not_found(message: str) -> None:
            await self._reject(
                frame, respond, t_read, Status.NOT_FOUND, message, tenant=tenant
            )

        try:
            if op is Op.SESSION_OPEN:
                key_id, rest = unpack_key_id(frame.payload)
                key = self._keys.get(key_id)
                if key is None:
                    await not_found(f"unknown key id {key_id}")
                    return
                message_bytes = key.scheme.message_bytes(key.params)
                if rest and len(rest) != message_bytes:
                    raise ProtocolError(
                        f"message must be {message_bytes} bytes or empty"
                    )
                message = rest or secrets.token_bytes(message_bytes)
                ct_bytes, shared = await self._session_encaps(key, message)
                enc_key, mac_key = _derive_keys(shared)
                session_id = self._next_session_id
                self._next_session_id += 1
                self._sessions[session_id] = _Session(
                    session_id, key.key_id, tenant, ct_bytes, enc_key, mac_key
                )
                await ok(pack_key_id(session_id) + ct_bytes + shared)
                return
            if op is Op.SESSION_CLOSE:
                session_id, _ = unpack_key_id(frame.payload)
                session = self._sessions.get(session_id)
                if session is None or session.tenant != tenant:
                    await not_found(f"unknown session id {session_id}")
                    return
                del self._sessions[session_id]
                await ok()
                return
            session_id, nonce, rest = unpack_session_request(frame.payload)
            session = self._sessions.get(session_id)
            if session is None or session.tenant != tenant:
                await not_found(f"unknown session id {session_id}")
                return
            if op is Op.SEAL:
                body = _xor_stream(session.enc_key, nonce, rest)
                tag = _tag(session.mac_key, session.kem_ct + nonce + body)
                await ok(body + tag)
                return
            if len(rest) < SESSION_TAG_SIZE:
                raise ProtocolError(
                    f"sealed body must carry a {SESSION_TAG_SIZE}-byte tag"
                )
            body, tag = rest[:-SESSION_TAG_SIZE], rest[-SESSION_TAG_SIZE:]
            expected = _tag(session.mac_key, session.kem_ct + nonce + body)
            if not hmac.compare_digest(expected, tag):
                await self._reject(
                    frame, respond, t_read, Status.BAD_REQUEST,
                    "authentication failed", tenant=tenant,
                )
                return
            await ok(_xor_stream(session.enc_key, nonce, body))
        except ProtocolError as exc:
            await self._reject(
                frame, respond, t_read, Status.BAD_REQUEST, str(exc), tenant=tenant
            )

    async def _session_encaps(
        self, key: HostedKey, message: bytes
    ) -> tuple[bytes, bytes]:
        """One encapsulation against a hosted key, on the backend."""
        backend = self._backend
        assert backend is not None, "start() the service first"
        [(ct_bytes, shared)] = await asyncio.wrap_future(
            backend.submit(key.scheme, key.params, "ENCAPS", key.pair, [message])
        )
        return ct_bytes, shared

    # ------------------------------------------------------------------
    # INFO
    # ------------------------------------------------------------------

    def _info_response(self, frame: Frame) -> Frame:
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
                    self._backend.workers if self._backend is not None else None
                ),
                "default_deadline_s": self.config.default_deadline_s,
                "shed_deadlines": self.config.shed_deadlines,
                "tier_limits": list(self._tier_limits),
                "autoscale": self.config.autoscale,
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
        return Frame(
            Op.INFO, frame.request_id, PARAM_NONE, Status.OK, payload,
            trace=frame.trace,
        )


class LoopThreadHost(Generic[_ServerT]):
    """One :class:`FrameServer` on a background event-loop thread.

    The adapter for synchronous worlds (examples, notebooks, the
    blocking client), shared by :class:`ThreadedService` and
    :class:`repro.cluster.ThreadedCluster`: ``start()`` spins up the
    loop, builds the server on it (``factory`` runs on the loop thread)
    and starts it, ``connect()`` hands back client sockets, ``stop()``
    shuts the server down and joins.  Also usable as a context manager.
    """

    def __init__(self, factory: Callable[[], _ServerT], thread_name: str) -> None:
        self._factory = factory
        self._thread_name = thread_name
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._server: _ServerT | None = None

    def start(self: _HostT) -> _HostT:
        """Start the loop thread and the server on it."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run, name=self._thread_name, daemon=True
        )
        self._thread.start()
        self._ready.wait()
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        self._server = self._factory()
        self._loop.run_until_complete(self._server.start())
        self._ready.set()
        self._loop.run_forever()
        self._loop.run_until_complete(self._server.shutdown())
        self._loop.close()

    def _call(self, coro: Coroutine[Any, Any, _T]) -> _T:
        assert self._loop is not None, "start() first"
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def _hosted(self) -> _ServerT:
        assert self._server is not None, "start() first"
        return self._server

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

    def stop(self) -> None:
        """Shut the server down (a graceful drain) and join the loop thread."""
        if self._thread is None or self._loop is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._thread = None

    def __enter__(self: _HostT) -> _HostT:
        """Start on entry."""
        return self.start()

    def __exit__(self, *exc: object) -> None:
        """Stop on exit."""
        self.stop()


class ThreadedService(LoopThreadHost[KemService]):
    """A :class:`KemService` on a background event-loop thread.

    Takes the same arguments as :class:`KemService` — a
    :class:`ServiceConfig` plus optional ``backend``/``clock``/
    ``fault_plan``/``tracer`` — and adds the key-hosting calls and
    :meth:`kill` to the :class:`LoopThreadHost` surface.
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
        super().__init__(
            lambda: KemService(
                config,
                backend=backend,
                clock=clock,
                fault_plan=fault_plan,
                tracer=tracer,
            ),
            "repro-serve-loop",
        )

    @property
    def service(self) -> KemService | None:
        """The hosted service (``None`` until :meth:`start`)."""
        return self._server

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

    def kill(self) -> None:
        """Crash the service: abort every connection, then stop.

        The in-process stand-in for SIGKILLing a member process —
        clients see their connections reset mid-request instead of a
        graceful drain (the backend is still released so the process
        stays reusable).
        """
        if self._thread is None or self._loop is None:
            return
        self._loop.call_soon_threadsafe(self._hosted().abort)
        self.stop()
