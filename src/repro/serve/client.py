"""The client for the KEM service, with a blocking shell for scripts.

:class:`AsyncKemClient` is the one client implementation: it pipelines
many in-flight requests over one connection — each request gets a
fresh 4-byte id, a background reader task matches responses back to
their futures, so 64 concurrent ``encaps`` calls need one socket, not
64.  :class:`KemClient` is the synchronous shell for scripts and
examples: the same client driven on a private event loop, one
outstanding request at a time.

The client speaks the frames of :mod:`repro.serve.protocol` and
translates non-OK statuses into typed exceptions (:class:`ServiceBusy`
for backpressure rejects, :class:`RequestTimedOut`, …), so callers can
implement retry policies without looking at status bytes.

It also implements one *built-in* retry policy — pass a
:class:`RetryPolicy` (and usually a ``reconnect`` factory) and it
transparently survives ``BUSY`` windows, per-request timeouts,
injected ``INTERNAL`` failures and dropped connections with capped
exponential backoff plus jitter.  The retry contract mirrors the ops'
semantics: ``KEYGEN``/``ENCAPS``/``INFO`` are idempotent from the
caller's perspective and retried freely; ``DECAPS`` is **never retried
unless** ``retry_decaps=True`` — resubmitting a ciphertext is a policy
decision (it doubles any side-channel exposure of the secret-key path),
so the caller must opt in.  See ``docs/SERVICE.md`` for the full
failure-semantics table.
"""

from __future__ import annotations

import asyncio
import functools
import json
import random
import socket
import time
from collections.abc import Awaitable, Callable, Coroutine
from dataclasses import dataclass
from typing import Any, Concatenate, ParamSpec, TypeVar

from repro.errors import DeadlineExceeded, KeyNotFound, ServiceClosed, ServiceError
from repro.lac.params import LacParams
from repro.lac.pke import PublicKey
from repro.schemes import resolve, wire_id_for_params
from repro.serve.protocol import (
    ERROR_FOR_STATUS,
    PARAM_NONE,
    Frame,
    Op,
    ProtocolError,
    QosSpec,
    Status,
    pack_decaps_request,
    pack_encaps_request,
    pack_key_id,
    pack_open_request,
    pack_seal_request,
    pack_session_open_request,
    qos_for,
    read_frame,
    unpack_encaps_response,
    unpack_keygen_response,
    unpack_session_open_response,
    write_frame,
)
from repro.trace import NULL_TRACER, TraceContext, Tracer

_T = TypeVar("_T")
_P = ParamSpec("_P")


#: Transport-shaped failures: the connection (not the request) is the
#: problem, so a retry needs a ``reconnect`` factory to be meaningful.
_CONNECTION_ERRORS = (ServiceClosed, DeadlineExceeded, ProtocolError, OSError)


@dataclass(frozen=True)
class RetryPolicy:
    """How a client retries: capped exponential backoff with jitter.

    Attempt ``k`` (0-based) that fails retryably sleeps
    ``min(max_delay_s, base_delay_s * 2**k)``, scaled down by up to
    ``jitter`` (a fraction in ``[0, 1]``; 0 = deterministic, 0.5 =
    each backoff uniformly in [50%, 100%] of nominal) before the next
    try — the standard recipe that keeps retry storms from
    synchronizing against a busy service.

    What is retried:

    * non-OK responses whose status is in ``retry_statuses``
      (``BUSY``, ``TIMEOUT`` and ``INTERNAL`` by default — all three
      mean "the request did not execute to completion, try again");
    * connection failures (:class:`ServiceClosed`,
      :class:`DeadlineExceeded`, ``ProtocolError``, ``OSError``) —
      these additionally trigger the client's ``reconnect`` factory,
      and are **not** retried when the client has none (a dead or
      desynchronized connection cannot be retried in place);
    * never ``BAD_REQUEST`` / ``NOT_FOUND`` (resending a malformed
      request cannot help);
    * ``DECAPS`` only when ``retry_decaps=True``: decapsulation
      touches the secret-key path, so resubmission is an explicit
      caller decision, not a transport default.

    ``attempt_timeout_s`` bounds each attempt; an attempt that exceeds
    it fails with :class:`DeadlineExceeded` (and counts as a
    connection failure, since an unanswered request leaves unknown
    state on the wire).
    """

    max_attempts: int = 5
    base_delay_s: float = 0.02
    max_delay_s: float = 1.0
    jitter: float = 0.5
    attempt_timeout_s: float | None = 10.0
    retry_statuses: frozenset[Status] = frozenset(
        {Status.BUSY, Status.TIMEOUT, Status.INTERNAL}
    )
    retry_decaps: bool = False

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        """The sleep before the retry that follows failed ``attempt``."""
        delay = min(self.max_delay_s, self.base_delay_s * (2.0**attempt))
        if self.jitter > 0.0:
            delay *= 1.0 - self.jitter * rng.random()
        return delay

    def should_retry(
        self, op: Op, exc: Exception, attempt: int, can_reconnect: bool
    ) -> bool:
        """Whether ``exc`` on 0-based ``attempt`` of ``op`` warrants a retry."""
        if attempt + 1 >= self.max_attempts:
            return False
        if op is Op.DECAPS and not self.retry_decaps:
            return False
        if isinstance(exc, _CONNECTION_ERRORS):
            return can_reconnect
        if isinstance(exc, ServiceError):
            return exc.status in self.retry_statuses
        return False


def raise_for_status(frame: Frame) -> Frame:
    """Return OK frames; raise the typed error for anything else."""
    if frame.status is Status.OK:
        return frame
    message = frame.payload.decode(errors="replace")
    raise ERROR_FOR_STATUS[frame.status](message)


class _KeyRegistry:
    """key id -> parameter set, learned from keygen or registered.

    Holds parameter sets of *any* registered scheme (resolved through
    :func:`repro.schemes.resolve`, so names, wire ids and
    :class:`~repro.schemes.ParamId` specs all work).
    """

    def __init__(self) -> None:
        self._params: dict[int, Any] = {}

    def register(self, key_id: int, spec: Any) -> None:
        _, params = resolve(spec)
        self._params[key_id] = params

    def params(self, key_id: int) -> Any:
        try:
            return self._params[key_id]
        except KeyError:
            raise KeyNotFound(
                f"key {key_id} unknown to this client; register_key() it"
            ) from None


#: Async reconnect factory: yields fresh (reader, writer) streams.
AsyncReconnect = Callable[
    [], Awaitable[tuple[asyncio.StreamReader, asyncio.StreamWriter]]
]


class AsyncKemClient:
    """A pipelined asyncio client over one service connection.

    Create from streams (``KemService.connect`` or
    ``asyncio.open_connection``), then call :meth:`keygen`,
    :meth:`encaps`, :meth:`decaps`, :meth:`info` freely — including
    concurrently from many tasks.  Close with :meth:`aclose`.

    Resilience is opt-in: pass ``retry=RetryPolicy(...)`` to survive
    ``BUSY``/``TIMEOUT``/``INTERNAL`` responses, and additionally a
    ``reconnect`` factory (e.g. ``service.connect``) to survive dropped
    or corrupted connections — in-flight requests on a replaced
    connection fail over to fresh attempts transparently.

    Tracing is opt-in too: pass an enabled
    :class:`repro.trace.Tracer` and every request wire-propagates a
    fresh trace context (protocol version 2) and emits a
    ``client.request`` span covering the round trip, so server-side
    stage spans stitch to the client span that caused them.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        retry: RetryPolicy | None = None,
        reconnect: AsyncReconnect | None = None,
        rng: random.Random | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._retry = retry
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._reconnect_factory = reconnect
        self._rng = rng if rng is not None else random.Random()
        # the one backoff-sleep seam: the blocking shell swaps in its
        # injectable synchronous sleep
        self._sleep: Callable[[float], Awaitable[None]] = asyncio.sleep
        self._pending: dict[int, asyncio.Future[Frame]] = {}
        self._next_id = 0
        self._keys = _KeyRegistry()
        self._read_task: asyncio.Task[None] | None = None
        self._conn_gen = 0
        self._reconnect_lock = asyncio.Lock()

    @classmethod
    async def open_tcp(
        cls,
        host: str,
        port: int,
        retry: RetryPolicy | None = None,
        auto_reconnect: bool = False,
    ) -> AsyncKemClient:
        """Connect to a TCP service endpoint.

        With ``auto_reconnect=True`` the client re-dials the same
        endpoint when the connection fails mid-retry.
        """
        reader, writer = await asyncio.open_connection(host, port)

        async def redial() -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
            return await asyncio.open_connection(host, port)

        return cls(
            reader, writer, retry=retry, reconnect=redial if auto_reconnect else None
        )

    def register_key(self, key_id: int, spec: Any) -> None:
        """Teach the client a hosted key's parameter set (for keys it
        did not create itself, e.g. pre-provisioned server keys).
        ``spec`` is anything :func:`repro.schemes.resolve` accepts."""
        self._keys.register(key_id, spec)

    # ------------------------------------------------------------------

    async def request(
        self,
        op: Op,
        param_id: int = PARAM_NONE,
        payload: bytes = b"",
        *,
        trace: TraceContext | None = None,
        qos: QosSpec | None = None,
        tenant: int | None = None,
    ) -> Frame:
        """Send one frame and await its matching response (any status).

        ``trace`` propagates an *explicit* trace context on the wire
        instead of minting one: the caller owns the surrounding span
        and no ``client.request`` span is emitted — this is how a
        caller nests the server's ``server.request`` spans under a span
        of its own.

        ``qos`` attaches a deadline budget / priority tier extension
        (build one with :func:`repro.serve.protocol.qos_for`); the
        server may shed the request ``BUSY``/``TIMEOUT`` when the
        budget cannot be met.

        ``tenant`` declares the request's tenant on the wire (the QoS
        extension's sibling byte); the server applies that tenant's
        quotas and fair-share.  ``None`` omits the extension (the
        server reads tenant 0).
        """
        if self._read_task is None or self._read_task.done():
            # (re)start the reader: bound to the *current* connection's
            # stream and pending-map so a later reconnect cannot cross
            # generations
            self._read_task = asyncio.create_task(
                self._read_loop(self._reader, self._pending)
            )
        pending = self._pending
        request_id = self._next_id = (self._next_id + 1) & 0xFFFFFFFF
        tracer = self._tracer
        explicit_trace = trace is not None
        t_start = 0.0
        if not explicit_trace and tracer.enabled:
            trace = TraceContext(tracer.new_trace_id(), tracer.new_span_id())
            t_start = tracer.clock()
        future: asyncio.Future[Frame] = asyncio.get_running_loop().create_future()
        pending[request_id] = future
        try:
            write_frame(
                self._writer,
                Frame(
                    op, request_id, param_id, payload=payload, trace=trace,
                    qos=qos, tenant=tenant,
                ),
            )
            await self._writer.drain()
            response = await future
            if trace is not None and not explicit_trace:
                tracer.record_span(
                    "client.request",
                    t_start,
                    tracer.clock() - t_start,
                    trace.trace_id,
                    span_id=trace.span_id,
                    tags={"op": op.name, "status": response.status.name},
                )
            return response
        finally:
            pending.pop(request_id, None)
            if not future.done():
                future.cancel()
            elif not future.cancelled():
                future.exception()  # retrieved: no GC warning if unawaited

    async def _read_loop(
        self,
        reader: asyncio.StreamReader,
        pending: dict[int, asyncio.Future[Frame]],
    ) -> None:
        error: Exception = ServiceClosed("connection closed")
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                future = pending.pop(frame.request_id, None)
                if future is not None and not future.done():
                    future.set_result(frame)
        except Exception as exc:  # noqa: BLE001 - surfaced via futures
            error = exc
        for future in pending.values():
            if not future.done():
                future.set_exception(error)
        pending.clear()

    async def _reconnect(self, seen_gen: int) -> None:
        """Replace the connection (once per failure generation).

        Concurrent requests that all observed the same dead connection
        race into this; only the first actually reconnects — the rest
        see the bumped generation and reuse the fresh streams.
        """
        assert self._reconnect_factory is not None
        async with self._reconnect_lock:
            if self._conn_gen != seen_gen:
                return  # a sibling request already reconnected
            old_writer, old_task = self._writer, self._read_task
            old_pending = self._pending
            self._pending = {}
            self._read_task = None
            self._reader, self._writer = await self._reconnect_factory()
            self._conn_gen += 1
            await self._teardown(old_writer, old_task)
            stale = ServiceClosed("connection replaced during reconnect")
            for future in old_pending.values():
                if not future.done():
                    future.set_exception(stale)
            old_pending.clear()

    async def _call_with_retry(
        self, op: Op, attempt: Callable[[], Awaitable[_T]]
    ) -> _T:
        policy = self._retry
        if policy is None:
            return await attempt()
        attempt_no = 0
        while True:
            seen_gen = self._conn_gen
            try:
                if policy.attempt_timeout_s is not None:
                    return await asyncio.wait_for(attempt(), policy.attempt_timeout_s)
                return await attempt()
            except asyncio.TimeoutError:
                exc: Exception = DeadlineExceeded(
                    f"no response within {policy.attempt_timeout_s}s"
                )
            except Exception as caught:  # noqa: BLE001 - policy decides
                exc = caught
            can_reconnect = self._reconnect_factory is not None
            if not policy.should_retry(op, exc, attempt_no, can_reconnect):
                raise exc
            if can_reconnect and isinstance(exc, _CONNECTION_ERRORS):
                await self._reconnect(seen_gen)
            await self._sleep(policy.backoff_s(attempt_no, self._rng))
            attempt_no += 1

    # ------------------------------------------------------------------

    async def keygen(
        self,
        spec: Any,
        seed: bytes | None = None,
        *,
        deadline_s: float | None = None,
        tier: int = 0,
        tenant: int | None = None,
    ) -> tuple[int, PublicKey | bytes]:
        """Generate and host a key pair; returns (key id, public key).

        ``spec`` is anything :func:`repro.schemes.resolve` accepts —
        a parameter object (:class:`LacParams`, the pre-PR-10
        signature), a :class:`~repro.schemes.ParamId`, a name
        (``"NewHope512"``) or a wire id.  LAC keys return a parsed
        :class:`PublicKey`; other schemes return the raw public-key
        wire bytes.

        ``deadline_s``/``tier`` attach a wire QoS extension — the
        server sheds the request rather than serve it past the budget.
        ``tenant`` declares the tenant the key (and request) belongs to.
        """
        _, params = resolve(spec)
        qos = qos_for(deadline_s=deadline_s, tier=tier)

        async def attempt() -> tuple[int, PublicKey | bytes]:
            frame = raise_for_status(
                await self.request(
                    Op.KEYGEN, wire_id_for_params(params), seed or b"",
                    qos=qos, tenant=tenant,
                )
            )
            key_id, pk_bytes = unpack_keygen_response(params, frame.payload)
            self._keys.register(key_id, params)
            if isinstance(params, LacParams):
                return key_id, PublicKey.from_bytes(params, pk_bytes)
            return key_id, pk_bytes

        return await self._call_with_retry(Op.KEYGEN, attempt)

    async def encaps(
        self,
        key_id: int,
        message: bytes | None = None,
        *,
        deadline_s: float | None = None,
        tier: int = 0,
        tenant: int | None = None,
    ) -> tuple[bytes, bytes]:
        """Encapsulate against a hosted key; returns (ct bytes, secret)."""
        params = self._keys.params(key_id)
        qos = qos_for(deadline_s=deadline_s, tier=tier)

        async def attempt() -> tuple[bytes, bytes]:
            frame = raise_for_status(
                await self.request(
                    Op.ENCAPS,
                    wire_id_for_params(params),
                    pack_encaps_request(key_id, message),
                    qos=qos,
                    tenant=tenant,
                )
            )
            return unpack_encaps_response(params, frame.payload)

        return await self._call_with_retry(Op.ENCAPS, attempt)

    async def decaps(
        self,
        key_id: int,
        ciphertext: bytes,
        *,
        deadline_s: float | None = None,
        tier: int = 0,
        tenant: int | None = None,
    ) -> bytes:
        """Decapsulate a ciphertext; returns the 32-byte shared secret.

        Not retried unless the policy sets ``retry_decaps=True``.
        """
        params = self._keys.params(key_id)
        qos = qos_for(deadline_s=deadline_s, tier=tier)

        async def attempt() -> bytes:
            frame = raise_for_status(
                await self.request(
                    Op.DECAPS,
                    wire_id_for_params(params),
                    pack_decaps_request(key_id, ciphertext),
                    qos=qos,
                    tenant=tenant,
                )
            )
            return frame.payload

        return await self._call_with_retry(Op.DECAPS, attempt)

    # -- the secure-channel session workload ---------------------------

    async def open_session(
        self,
        key_id: int,
        message: bytes | None = None,
        *,
        tenant: int | None = None,
    ) -> tuple[int, bytes, bytes]:
        """Open a secure channel on a hosted key.

        Returns ``(session id, kem ct bytes, shared secret)`` — the
        transcript prefix a :class:`repro.lac.hybrid.LacHybrid` opener
        needs.  The session is scoped to ``tenant``.
        """
        params = self._keys.params(key_id)

        async def attempt() -> tuple[int, bytes, bytes]:
            frame = raise_for_status(
                await self.request(
                    Op.SESSION_OPEN,
                    wire_id_for_params(params),
                    pack_session_open_request(key_id, message),
                    tenant=tenant,
                )
            )
            return unpack_session_open_response(params, frame.payload)

        return await self._call_with_retry(Op.SESSION_OPEN, attempt)

    async def seal(
        self,
        session_id: int,
        nonce: bytes,
        plaintext: bytes,
        *,
        tenant: int | None = None,
    ) -> bytes:
        """Seal ``plaintext`` on an open session; returns body ‖ tag."""

        async def attempt() -> bytes:
            frame = raise_for_status(
                await self.request(
                    Op.SEAL,
                    payload=pack_seal_request(session_id, nonce, plaintext),
                    tenant=tenant,
                )
            )
            return frame.payload

        return await self._call_with_retry(Op.SEAL, attempt)

    async def open_sealed(
        self,
        session_id: int,
        nonce: bytes,
        sealed: bytes,
        *,
        tenant: int | None = None,
    ) -> bytes:
        """Verify and decrypt ``sealed`` (body ‖ tag); returns plaintext.

        Raises :class:`BadRequest` on authentication failure.
        """

        async def attempt() -> bytes:
            frame = raise_for_status(
                await self.request(
                    Op.OPEN,
                    payload=pack_open_request(session_id, nonce, sealed),
                    tenant=tenant,
                )
            )
            return frame.payload

        return await self._call_with_retry(Op.OPEN, attempt)

    async def close_session(
        self, session_id: int, *, tenant: int | None = None
    ) -> None:
        """Close an open session (:class:`KeyNotFound` if absent)."""

        async def attempt() -> None:
            raise_for_status(
                await self.request(
                    Op.SESSION_CLOSE,
                    payload=pack_key_id(session_id),
                    tenant=tenant,
                )
            )

        await self._call_with_retry(Op.SESSION_CLOSE, attempt)

    async def info(self, text: bool = False) -> dict | str:
        """Fetch service metrics (dict, or the ``/metrics`` text dump)."""

        async def attempt() -> dict | str:
            frame = raise_for_status(
                await self.request(Op.INFO, payload=b"text" if text else b"")
            )
            if text:
                return frame.payload.decode()
            snapshot: dict = json.loads(frame.payload)
            return snapshot

        return await self._call_with_retry(Op.INFO, attempt)

    async def remove_key(self, key_id: int, *, tenant: int | None = None) -> None:
        """Stop hosting a key of ``tenant`` (raises :class:`KeyNotFound`
        if absent or another tenant's)."""

        async def attempt() -> None:
            raise_for_status(
                await self.request(
                    Op.REMOVE_KEY, payload=pack_key_id(key_id), tenant=tenant
                )
            )

        await self._call_with_retry(Op.REMOVE_KEY, attempt)

    @staticmethod
    async def _teardown(
        writer: asyncio.StreamWriter, read_task: asyncio.Task[None] | None
    ) -> None:
        """Stop one connection's reader task and close its stream."""
        if read_task is not None:
            read_task.cancel()
            try:
                await read_task
            except asyncio.CancelledError:
                pass
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass

    async def aclose(self) -> None:
        """Close the connection and stop the reader task."""
        await self._teardown(self._writer, self._read_task)


#: Blocking reconnect factory: yields a fresh connected socket.
SyncReconnect = Callable[[], socket.socket]


def _blocking(
    method: Callable[Concatenate[AsyncKemClient, _P], Coroutine[Any, Any, _T]],
) -> Callable[Concatenate[KemClient, _P], _T]:
    """The blocking twin of one :class:`AsyncKemClient` coroutine method.

    Same signature and docstring; the call runs the coroutine to
    completion on the :class:`KemClient`'s private loop.
    """

    @functools.wraps(method)
    def call(self: KemClient, *args: _P.args, **kwargs: _P.kwargs) -> _T:
        return self._loop.run_until_complete(method(self._client, *args, **kwargs))

    return call


class KemClient:
    """The blocking client: one socket, one request in flight.

    A thin shell over an :class:`AsyncKemClient` driven on a private
    event loop (``run_until_complete`` per call, no extra thread), so
    every op, the retry loop, the key registry, tracing and the framing
    exist once.  Connect with a socket from
    :meth:`~repro.serve.server.ThreadedService.connect` or
    :meth:`KemClient.open_tcp`; usable as a context manager, and
    :meth:`close` releases the socket and the loop.

    ``retry``/``rng``/``tracer`` are the :class:`AsyncKemClient`
    arguments; ``reconnect`` is their blocking counterpart (a factory
    of fresh connected sockets — after a timeout or mid-frame drop the
    byte stream cannot be trusted, so the connection is replaced, never
    resynchronized) and ``sleep`` the backoff sleep (tests inject a
    recorder).
    """

    def __init__(
        self,
        sock: socket.socket,
        retry: RetryPolicy | None = None,
        reconnect: SyncReconnect | None = None,
        rng: random.Random | None = None,
        sleep: Callable[[float], None] = time.sleep,
        tracer: Tracer | None = None,
    ) -> None:
        self._loop = asyncio.new_event_loop()

        async def redial() -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
            assert reconnect is not None
            return await asyncio.open_connection(sock=reconnect())

        async def backoff(delay: float) -> None:
            sleep(delay)

        reader, writer = self._loop.run_until_complete(
            asyncio.open_connection(sock=sock)
        )
        self._client = AsyncKemClient(
            reader,
            writer,
            retry=retry,
            reconnect=redial if reconnect is not None else None,
            rng=rng,
            tracer=tracer,
        )
        self._client._sleep = backoff

    @classmethod
    def open_tcp(
        cls,
        host: str,
        port: int,
        retry: RetryPolicy | None = None,
        auto_reconnect: bool = False,
    ) -> KemClient:
        """Connect to a TCP service endpoint (optionally re-dialing)."""

        def redial() -> socket.socket:
            return socket.create_connection((host, port))

        return cls(
            socket.create_connection((host, port)),
            retry=retry,
            reconnect=redial if auto_reconnect else None,
        )

    def register_key(self, key_id: int, spec: Any) -> None:
        """Teach the client a hosted key's parameter set (``spec`` is
        anything :func:`repro.schemes.resolve` accepts)."""
        self._client.register_key(key_id, spec)

    request = _blocking(AsyncKemClient.request)
    keygen = _blocking(AsyncKemClient.keygen)
    encaps = _blocking(AsyncKemClient.encaps)
    decaps = _blocking(AsyncKemClient.decaps)
    open_session = _blocking(AsyncKemClient.open_session)
    seal = _blocking(AsyncKemClient.seal)
    open_sealed = _blocking(AsyncKemClient.open_sealed)
    close_session = _blocking(AsyncKemClient.close_session)
    info = _blocking(AsyncKemClient.info)
    remove_key = _blocking(AsyncKemClient.remove_key)

    def close(self) -> None:
        """Close the connection, then the private loop (idempotent)."""
        if self._loop.is_closed():
            return
        self._loop.run_until_complete(self._client.aclose())
        self._loop.close()

    def __enter__(self) -> KemClient:
        """Context-manager entry (no-op)."""
        return self

    def __exit__(self, *exc: object) -> None:
        """Close on exit."""
        self.close()
