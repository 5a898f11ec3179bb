"""Wire protocol of the KEM service: length-prefixed binary frames.

Every message — request or response — is one frame:

::

    offset  size  field
    0       2     magic   b"LK"
    2       1     version (1–8; ``version - 1`` is an extension bitmask)
    3       1     op      (Op: KEYGEN/ENCAPS/DECAPS/INFO/REMOVE_KEY/
                          SESSION_OPEN/SEAL/OPEN/SESSION_CLOSE)
    4       1     status  (Status; always OK in requests)
    5       1     param   (scheme-qualified parameter id, PARAM_NONE
                          for INFO)
    6       4     request id, big-endian (echoed in the response)
    10      4     payload length, big-endian
    14      ...   extensions (trace, then QoS, then tenant), payload

The ``param`` byte is scheme-qualified: the high nibble is the
:class:`repro.schemes.SchemeId` and the low nibble the parameter-set
index within that scheme (``scheme_id << 4 | param_index``).  LAC is
scheme 0, so the historical LAC wire ids 0/1/2 are unchanged;
NewHope512/1024 are 0x10/0x11.  The ``(scheme, param)`` pair is
declared once at KEYGEN and implied by the key id afterwards —
ENCAPS/DECAPS frames still carry it so the server can reject
key/parameter mismatches without a lookup round trip.

The version byte encodes which optional extensions sit *between* the
fixed header and the payload: ``version - 1`` is a bitmask with bit 0
for the trace extension, bit 1 for the QoS extension and bit 2 for
the tenant extension, so version 1 is the plain pre-extension frame,
2 is traced, 3 carries QoS, 4 carries both, and 5–8 add the tenant
byte to each of those shapes (extensions always serialize in
trace → QoS → tenant order).  The announced payload length never
includes extensions, and a version-1 frame is bit-identical to the
original protocol — every extension is strictly opt-in per frame.

**Trace extension** (bit 0): 12 bytes — an 8-byte trace id followed by
the 4-byte id of the span that caused the frame (both big-endian),
decoded into :class:`repro.trace.TraceContext`.  Clients emit it only
when they carry a live span, and servers echo a request's trace
context on its response so the caller can stitch the round trip into
one trace.

**QoS extension** (bit 1): 5 bytes — a 4-byte relative deadline in
microseconds (big-endian; 0 = no deadline, only a tier) followed by a
1-byte priority tier (0 = most latency-sensitive), decoded into
:class:`QosSpec`.  The deadline is a *budget*, not a wall-clock
timestamp: the server measures it from admission, so clients and
servers need no clock agreement.  Requests carry QoS; responses never
echo it (the server acted on it already).

**Tenant extension** (bit 2): 1 byte — the tenant id the request is
accounted against (0 is the default tenant; omitting the extension
means tenant 0).  The server enforces per-tenant quotas and
fair-share on it and labels its metrics/trace spans with it; like
QoS, responses never echo it.

The 4-byte request id lets one connection multiplex many in-flight
requests: responses carry the id of the request they answer and may
arrive in any order (the micro-batch scheduler freely reorders across
connections).  Payload layouts per op:

==========  ==========================================  =====================
op          request payload                             OK-response payload
==========  ==========================================  =====================
KEYGEN      optional seed (``seed_bytes + 32``, or      key id (4) || public
            empty for OS randomness)                    key bytes
ENCAPS      key id (4) || optional fixed message        ciphertext bytes ||
            (``message_bytes``, tests/KATs only)        shared secret (32)
DECAPS      key id (4) || ciphertext bytes              shared secret (32)
INFO        empty (JSON snapshot) or ``b"text"``        UTF-8 metrics dump
REMOVE_KEY  key id (4)                                  empty (``NOT_FOUND``
                                                        if not hosted)
SESSION_    key id (4) || optional fixed message        session id (4) ||
OPEN        (tests/KATs only)                           KEM ct bytes ||
                                                        shared secret (32)
SEAL        session id (4) || nonce (12) || plaintext   body || tag (32)
OPEN        session id (4) || nonce (12) || body ||     plaintext
            tag (32)
SESSION_    session id (4)                              empty (``NOT_FOUND``
CLOSE                                                   if unknown)
==========  ==========================================  =====================

The SESSION ops carry the stateful secure-channel workload:
SESSION_OPEN encapsulates under the named key (any registered scheme)
and derives the channel keys exactly as
:class:`repro.lac.hybrid.LacHybrid` does, so a transcript of
``KEM ct || nonce || body || tag`` is bit-identical to the offline
hybrid construction.  SEAL/OPEN then run the AEAD on the established
session without touching the KEM again.

Error responses (any non-OK :class:`Status`) carry a UTF-8 diagnostic
string as payload.  All sizes are fixed by the parameter set, so the
payloads need no internal framing.

This module is transport-agnostic and the format is parsed in exactly
one place: :func:`frame_decoder` validates a header, says how many body
bytes (extensions + payload) follow, and turns those bytes into a
:class:`Frame`.  :func:`decode_frame` (a whole buffer) and
:func:`read_frame` (an asyncio stream: one header read, at most one
body read) are thin callers of it; every transport — TCP, the
in-process socketpair, the blocking client's private loop — goes
through :func:`read_frame`.
"""

from __future__ import annotations

import asyncio
import math
import struct
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Protocol

from repro.errors import (
    BadRequest,
    DeadlineExceeded,
    KeyNotFound,
    ProtocolError,
    RequestTimedOut,
    ServiceBusy,
    ServiceClosed,
    ServiceDraining,
    ServiceError,
)
from repro.schemes import registry as _registry
from repro.schemes.registry import params_for_wire_id as _params_for_wire_id
from repro.trace import TraceContext

#: First two bytes of every frame.
MAGIC = b"LK"

#: Protocol version carried in byte 2.
VERSION = 1

#: Version byte of a frame carrying the optional trace-context
#: extension (12 bytes between header and payload).
VERSION_TRACED = 2

#: Version byte of a frame carrying only the QoS extension.
VERSION_QOS = 3

#: Version byte of a frame carrying both extensions (trace bytes first).
VERSION_TRACED_QOS = 4

#: ``version - 1`` bitmask bits selecting the optional extensions.
_FLAG_TRACE = 0x1
_FLAG_QOS = 0x2
_FLAG_TENANT = 0x4

#: Highest version byte: all three extension bits set.
VERSION_MAX = VERSION + _FLAG_TRACE + _FLAG_QOS + _FLAG_TENANT

#: Upper bound on payload size; a frame announcing more is rejected
#: before any allocation (malformed peers must not balloon memory).
MAX_PAYLOAD = 1 << 20

#: ``param`` byte for ops that are not tied to a parameter set (INFO).
PARAM_NONE = 0xFF

_HEADER = struct.Struct(">2sBBBBII")

#: Size of the fixed frame header in bytes.
HEADER_SIZE = _HEADER.size

_TRACE_EXT = struct.Struct(">QI")

#: Size of the version-2 trace-context extension in bytes.
TRACE_EXT_SIZE = _TRACE_EXT.size

_QOS_EXT = struct.Struct(">IB")

#: Size of the QoS extension in bytes (deadline µs + tier).
QOS_EXT_SIZE = _QOS_EXT.size

#: Size of the tenant extension in bytes (one tenant id byte).
TENANT_EXT_SIZE = 1

#: Total extension bytes announced by each ``version - 1`` bitmask.
_EXTENSIONS_SIZE = tuple(
    bool(flags & _FLAG_TRACE) * TRACE_EXT_SIZE
    + bool(flags & _FLAG_QOS) * QOS_EXT_SIZE
    + bool(flags & _FLAG_TENANT) * TENANT_EXT_SIZE
    for flags in range(VERSION_MAX - VERSION + 1)
)

#: The default tenant everything unlabelled is accounted against.
DEFAULT_TENANT = 0

#: Size of the AEAD nonce carried by SEAL/OPEN (LacHybrid's nonce).
SESSION_NONCE_SIZE = 12

#: Size of the AEAD tag carried by SEAL/OPEN (SHA-256 based HMAC-style).
SESSION_TAG_SIZE = 32

#: Largest deadline the 4-byte wire field can carry (µs; ~71 minutes).
MAX_DEADLINE_US = (1 << 32) - 1

_KEY_ID = struct.Struct(">I")


@dataclass(frozen=True)
class QosSpec:
    """Per-request quality-of-service hints carried by the QoS extension.

    ``deadline_us`` is a *relative* latency budget in microseconds
    (0 = no deadline); the server measures it from admission, sheds
    work predicted to miss it, and answers ``TIMEOUT``/``BUSY`` instead
    of burning kernel time on a response the client will discard.
    ``tier`` is the priority class (0 = interactive, higher = more
    sheddable); the server maps tiers beyond its configured watermark
    table onto the last (most sheddable) tier.
    """

    deadline_us: int = 0
    tier: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.deadline_us <= MAX_DEADLINE_US:
            raise ProtocolError(
                f"deadline_us must be in [0, {MAX_DEADLINE_US}]", "bad-qos"
            )
        if not 0 <= self.tier <= 0xFF:
            raise ProtocolError("tier must fit one byte", "bad-qos")

    @property
    def deadline_s(self) -> float | None:
        """The deadline budget in seconds (``None`` when unset)."""
        return self.deadline_us / 1e6 if self.deadline_us else None


def qos_for(deadline_s: float | None = None, tier: int = 0) -> QosSpec | None:
    """Build the wire QoS spec for client knobs (``None`` = no extension)."""
    if deadline_s is None and tier == 0:
        return None
    # NaN fails every comparison, and inf does not round to an integer
    if deadline_s is not None and not (math.isfinite(deadline_s) and deadline_s > 0):
        raise ValueError("deadline_s must be > 0 or None")
    deadline_us = 0 if deadline_s is None else min(
        MAX_DEADLINE_US, max(1, round(deadline_s * 1e6))
    )
    return QosSpec(deadline_us, tier)


class Op(IntEnum):
    """Operation selector (byte 3 of the header)."""

    KEYGEN = 1
    ENCAPS = 2
    DECAPS = 3
    INFO = 4
    #: Stop hosting a key (the wire twin of
    #: :meth:`repro.serve.KemService.remove_keypair`; answered even
    #: while the service drains).
    REMOVE_KEY = 5
    #: Open a secure-channel session: encapsulate under the named key
    #: and derive the channel keys (``LacHybrid``-compatible).
    SESSION_OPEN = 6
    #: Encrypt-and-MAC a plaintext on an open session.
    SEAL = 7
    #: Verify-and-decrypt a sealed body on an open session.
    OPEN = 8
    #: Discard an open session's channel keys.
    SESSION_CLOSE = 9


class Status(IntEnum):
    """Response status (byte 4 of the header; OK in requests)."""

    OK = 0
    #: Rejected by backpressure: pending work is beyond the service's
    #: high-watermark.  The request was *not* queued; retry later.
    BUSY = 1
    BAD_REQUEST = 2
    #: Queued but not served within the per-request timeout.
    TIMEOUT = 3
    #: The service is draining; no new work is accepted.
    SHUTTING_DOWN = 4
    INTERNAL = 5
    #: Unknown key id.
    NOT_FOUND = 6


#: The one status <-> exception table: the client raises a non-OK
#: response as ``ERROR_FOR_STATUS[status]``, and a server refuses a
#: request by raising one of these — its ``status`` is what gets
#: answered.  (:mod:`repro.errors` cannot import ``Status`` without a
#: cycle, so the ``status`` attributes are attached here.)
ERROR_FOR_STATUS: dict[Status, type[ServiceError]] = {
    Status.BUSY: ServiceBusy,
    Status.BAD_REQUEST: BadRequest,
    Status.TIMEOUT: RequestTimedOut,
    Status.SHUTTING_DOWN: ServiceDraining,
    Status.INTERNAL: ServiceError,
    Status.NOT_FOUND: KeyNotFound,
}
for _status, _error in ERROR_FOR_STATUS.items():
    _error.status = _status
# never decoded from a frame (the client raises them itself): the
# status is what a relay answers when a forward fails this way
ServiceClosed.status = Status.INTERNAL
DeadlineExceeded.status = Status.TIMEOUT

#: Wire byte -> enum member (a dict lookup; the decoder runs per frame).
_OPS = {op.value: op for op in Op}
_STATUSES = {status.value: status for status in Status}


class FrameReader(Protocol):
    """The read surface the frame codec needs (asyncio streams and the
    fault-injection wrappers of :mod:`repro.faults.transport` both
    provide it)."""

    async def readexactly(self, n: int) -> bytes:
        """Read exactly ``n`` bytes or raise ``IncompleteReadError``."""
        ...


class FrameWriter(Protocol):
    """The write surface the server holds per connection."""

    def write(self, data: bytes) -> None:
        """Queue bytes on the transport."""
        ...

    async def drain(self) -> None:
        """Flush the transport's write buffer."""
        ...

    def close(self) -> None:
        """Start closing the transport."""
        ...

    async def wait_closed(self) -> None:
        """Await the transport's teardown."""
        ...


def params_for_wire_id(wire_id: int) -> tuple[Any, Any]:
    """Decode a frame param byte into ``(scheme, params)``.

    Thin wrapper over :func:`repro.schemes.params_for_wire_id` that
    raises the protocol-typed error, since a bad param byte on the
    wire is a framing problem, not a library misuse.
    """
    try:
        return _params_for_wire_id(wire_id)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


@dataclass
class Frame:
    """One protocol message (either direction).

    ``trace`` is the optional propagated trace context, ``qos`` the
    optional per-request deadline/tier spec and ``tenant`` the
    optional tenant id (``None`` means the default tenant 0); each
    present extension sets its bit in the version byte (so a frame
    with none is bit-identical to the pre-extension protocol).
    """

    op: Op
    request_id: int
    param_id: int = PARAM_NONE
    status: Status = Status.OK
    payload: bytes = field(default=b"", repr=False)
    trace: TraceContext | None = None
    qos: QosSpec | None = None
    tenant: int | None = None

    def to_bytes(self) -> bytes:
        """Serialize header (+ optional extensions) + payload."""
        if len(self.payload) > MAX_PAYLOAD:
            raise ProtocolError(
                f"payload of {len(self.payload)} bytes too large", "oversized"
            )
        if self.tenant is not None and not 0 <= self.tenant <= 0xFF:
            raise ProtocolError("tenant id must fit one byte", "bad-tenant")
        version = VERSION
        extensions = b""
        if self.trace is not None:
            version += _FLAG_TRACE
            extensions += _TRACE_EXT.pack(self.trace.trace_id, self.trace.span_id)
        if self.qos is not None:
            version += _FLAG_QOS
            extensions += _QOS_EXT.pack(self.qos.deadline_us, self.qos.tier)
        if self.tenant is not None:
            version += _FLAG_TENANT
            extensions += bytes([self.tenant])
        header = _HEADER.pack(
            MAGIC,
            version,
            int(self.op),
            int(self.status),
            self.param_id,
            self.request_id,
            len(self.payload),
        )
        return header + extensions + self.payload

    def reply(self, status: Status, payload: bytes = b"") -> Frame:
        """The response to this request frame.

        Echoes the op, request id, param byte and trace context (so the
        caller can match it and stitch the round trip into one trace);
        QoS and tenant are never echoed.
        """
        return Frame(
            self.op, self.request_id, self.param_id, status, payload, self.trace
        )


def frame_decoder(header: bytes) -> tuple[int, Callable[[bytes], Frame]]:
    """The one frame decoder: header -> body size -> :class:`Frame`.

    Validates the 14-byte ``header`` and returns ``(body_size,
    finish)``: ``body_size`` is how many bytes follow the header
    (extensions announced by the version byte plus the payload), and
    ``finish(body)`` decodes exactly those bytes into the frame.  Pure:
    no I/O, so buffers, streams and the fault-injection wrappers all
    learn the frame's shape from the same code.

    Raises :class:`ProtocolError` tagged ``truncated`` (short header or
    body), ``bad-magic``, ``bad-version``, ``bad-enum`` or
    ``oversized`` — the last *before* the caller reads or allocates
    anything for the announced payload.
    """
    if len(header) != HEADER_SIZE:
        raise ProtocolError("truncated header", "truncated")
    magic, version, op, status, param_id, request_id, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}", "bad-magic")
    if not VERSION <= version <= VERSION_MAX:
        raise ProtocolError(f"unsupported version {version}", "bad-version")
    try:
        op, status = _OPS[op], _STATUSES[status]
    except KeyError as exc:
        raise ProtocolError(f"unknown op or status byte {exc}", "bad-enum") from None
    if length > MAX_PAYLOAD:
        raise ProtocolError(
            f"announced payload of {length} bytes too large", "oversized"
        )
    flags = version - VERSION
    extensions_size = _EXTENSIONS_SIZE[flags]
    body_size = extensions_size + length

    def finish(body: bytes) -> Frame:
        if len(body) != body_size:
            part = "extension" if len(body) < extensions_size else "payload"
            raise ProtocolError(f"truncated {part}", "truncated")
        if not flags:
            return Frame(op, request_id, param_id, status, body)
        frame = Frame(op, request_id, param_id, status, body[extensions_size:])
        offset = 0
        if flags & _FLAG_TRACE:
            frame.trace = TraceContext(*_TRACE_EXT.unpack_from(body, offset))
            offset += TRACE_EXT_SIZE
        if flags & _FLAG_QOS:
            frame.qos = QosSpec(*_QOS_EXT.unpack_from(body, offset))
            offset += QOS_EXT_SIZE
        if flags & _FLAG_TENANT:
            frame.tenant = body[offset]
        return frame

    return body_size, finish


def decode_frame(buf: bytes) -> tuple[Frame, int]:
    """Decode one frame from the head of ``buf``.

    Returns ``(frame, bytes_consumed)``; raises :class:`ProtocolError`
    (``truncated``) if ``buf`` does not hold a complete frame.
    """
    body_size, finish = frame_decoder(buf[:HEADER_SIZE])
    end = HEADER_SIZE + body_size
    return finish(bytes(buf[HEADER_SIZE:end])), end


async def read_frame(reader: FrameReader) -> Frame | None:
    """Read one frame from an asyncio stream.

    Returns ``None`` on a clean EOF at a frame boundary; raises
    :class:`ProtocolError` on garbage or a mid-frame disconnect (the
    bytes that did arrive go to the decoder, so a cut stream and a cut
    buffer fail with the same typed error).  One header read, then at
    most one body read.
    """
    try:
        header = await reader.readexactly(HEADER_SIZE)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        header = exc.partial
    body_size, finish = frame_decoder(header)
    if not body_size:
        return finish(b"")
    try:
        return finish(await reader.readexactly(body_size))
    except asyncio.IncompleteReadError as exc:
        return finish(exc.partial)


def write_frame(writer: FrameWriter, frame: Frame) -> None:
    """Queue one frame on an asyncio stream (caller drains)."""
    writer.write(frame.to_bytes())


# ---------------------------------------------------------------------------
# payload packing/unpacking
# ---------------------------------------------------------------------------


def pack_key_id(key_id: int) -> bytes:
    """Big-endian 4-byte key id."""
    return _KEY_ID.pack(key_id)


def unpack_key_id(payload: bytes) -> tuple[int, bytes]:
    """Split a payload into its leading key id and the remainder."""
    if len(payload) < _KEY_ID.size:
        raise ProtocolError("payload too short for a key id")
    return _KEY_ID.unpack_from(payload)[0], payload[_KEY_ID.size:]


def pack_encaps_request(key_id: int, message: bytes | None = None) -> bytes:
    """ENCAPS request payload: key id plus an optional fixed message."""
    return pack_key_id(key_id) + (message or b"")


def unpack_encaps_response(params: Any, payload: bytes) -> tuple[bytes, bytes]:
    """Split an ENCAPS OK-payload into (ciphertext bytes, shared secret).

    ``params`` may be any registered scheme's parameter set (or a
    :class:`repro.schemes.ParamId`/name); the ciphertext size is read
    from the owning scheme's wire metadata.
    """
    scheme, resolved = _registry.resolve(params)
    ct_bytes = scheme.ciphertext_wire_bytes(resolved)
    expected = ct_bytes + scheme.shared_secret_bytes(resolved)
    if len(payload) != expected:
        raise ProtocolError(
            f"ENCAPS response must be {expected} bytes, got {len(payload)}"
        )
    return payload[:ct_bytes], payload[ct_bytes:]


def pack_decaps_request(key_id: int, ciphertext: bytes) -> bytes:
    """DECAPS request payload: key id plus the ciphertext bytes."""
    return pack_key_id(key_id) + ciphertext


def unpack_keygen_response(params: Any, payload: bytes) -> tuple[int, bytes]:
    """Split a KEYGEN OK-payload into (key id, public-key bytes)."""
    scheme, resolved = _registry.resolve(params)
    pk_bytes = scheme.public_key_wire_bytes(resolved)
    key_id, pk = unpack_key_id(payload)
    if len(pk) != pk_bytes:
        raise ProtocolError(f"KEYGEN response pk must be {pk_bytes} bytes")
    return key_id, pk


# ---------------------------------------------------------------------------
# secure-channel session payloads
# ---------------------------------------------------------------------------


def pack_session_open_request(key_id: int, message: bytes | None = None) -> bytes:
    """SESSION_OPEN request: key id plus an optional fixed KEM message."""
    return pack_key_id(key_id) + (message or b"")


def unpack_session_open_response(
    params: Any, payload: bytes
) -> tuple[int, bytes, bytes]:
    """Split a SESSION_OPEN OK-payload into (session id, KEM ct, shared)."""
    scheme, resolved = _registry.resolve(params)
    ct_bytes = scheme.ciphertext_wire_bytes(resolved)
    expected = _KEY_ID.size + ct_bytes + scheme.shared_secret_bytes(resolved)
    if len(payload) != expected:
        raise ProtocolError(
            f"SESSION_OPEN response must be {expected} bytes, got {len(payload)}"
        )
    session_id, rest = unpack_key_id(payload)
    return session_id, rest[:ct_bytes], rest[ct_bytes:]


def pack_seal_request(session_id: int, nonce: bytes, plaintext: bytes) -> bytes:
    """SEAL request: session id || nonce (12) || plaintext."""
    if len(nonce) != SESSION_NONCE_SIZE:
        raise ProtocolError(f"nonce must be {SESSION_NONCE_SIZE} bytes")
    return pack_key_id(session_id) + nonce + plaintext


def pack_open_request(session_id: int, nonce: bytes, sealed: bytes) -> bytes:
    """OPEN request: session id || nonce (12) || body || tag (32)."""
    if len(nonce) != SESSION_NONCE_SIZE:
        raise ProtocolError(f"nonce must be {SESSION_NONCE_SIZE} bytes")
    if len(sealed) < SESSION_TAG_SIZE:
        raise ProtocolError("sealed body shorter than its tag")
    return pack_key_id(session_id) + nonce + sealed


def unpack_session_request(payload: bytes) -> tuple[int, bytes, bytes]:
    """Split a SEAL/OPEN request into (session id, nonce, body)."""
    session_id, rest = unpack_key_id(payload)
    if len(rest) < SESSION_NONCE_SIZE:
        raise ProtocolError("payload too short for a session nonce")
    return session_id, rest[:SESSION_NONCE_SIZE], rest[SESSION_NONCE_SIZE:]
