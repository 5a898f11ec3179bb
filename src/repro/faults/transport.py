"""Fault-injecting wrappers for the service's asyncio stream transports.

:func:`wrap_connection` interposes :class:`FaultyReader` /
:class:`FaultyWriter` between the server's connection handler and the
real asyncio streams.  Faults are drawn from the connection's
:class:`~repro.faults.plan.FaultPlan` once per *frame* (on the header
read, and once per written frame), never per byte:

* ``delay`` — the frame is held for ``delay_s`` before proceeding;
* ``drop`` — the connection is reset (read side) or closed before the
  response is written (write side);
* ``truncate`` — the peer sees a mid-frame EOF;
* ``corrupt`` (read side only) — the first *framing* byte (the magic)
  is flipped, so the frame is guaranteed to be rejected as malformed.
  Payload bytes are deliberately never corrupted: a corrupted request
  must fail loudly, not execute with silently altered inputs — payload
  integrity beyond framing is an authentication concern, out of scope
  for this transport (see ``docs/SERVICE.md``).

The wrappers only implement the stream surface the frame codec uses
(``readexactly``; ``write``/``drain``/``close``/``wait_closed``), which
keeps them honest: anything else the server might call on a transport
would fail fast rather than silently bypass injection.
"""

from __future__ import annotations

import asyncio
from collections.abc import Awaitable, Callable

from repro.faults.plan import (
    KIND_CORRUPT,
    KIND_DELAY,
    KIND_DROP,
    KIND_TRUNCATE,
    SITE_TRANSPORT_READ,
    SITE_TRANSPORT_WRITE,
    FaultPlan,
)
from repro.errors import ProtocolError
from repro.serve.protocol import FrameReader, FrameWriter, frame_decoder

_Sleep = Callable[[float], Awaitable[None]]


class FaultyReader:
    """A ``readexactly`` stream that perturbs one frame per fault draw.

    :func:`repro.serve.protocol.read_frame` reads a header and then, if
    the header announces one, a single body.  The wrapper follows the
    same shape explicitly: a read at a frame boundary is a header and
    draws the frame's one fault; the frame decoder then says whether a
    body read follows, and that read passes through untouched — so a
    single draw decides the whole frame's fate whatever the sizes.
    """

    def __init__(
        self,
        reader: FrameReader,
        plan: FaultPlan,
        sleep: _Sleep = asyncio.sleep,
    ) -> None:
        self._reader = reader
        self._plan = plan
        self._sleep = sleep
        self._body_follows = False

    async def readexactly(self, n: int) -> bytes:
        """Read exactly ``n`` bytes, subject to the fault plan."""
        if self._body_follows:
            self._body_follows = False
            return await self._reader.readexactly(n)
        header = await self._read_header(n)
        try:
            self._body_follows = frame_decoder(header)[0] > 0
        except ProtocolError:
            pass  # the frame reader rejects the same bytes: no body read
        return header

    async def _read_header(self, n: int) -> bytes:
        spec = self._plan.draw(SITE_TRANSPORT_READ)
        if spec is None:
            return await self._reader.readexactly(n)
        if spec.kind == KIND_DELAY:
            await self._sleep(spec.delay_s)
            return await self._reader.readexactly(n)
        if spec.kind == KIND_DROP:
            raise ConnectionResetError("injected fault: connection drop")
        data = await self._reader.readexactly(n)
        if spec.kind == KIND_TRUNCATE:
            raise asyncio.IncompleteReadError(data[: n // 2], n)
        if spec.kind == KIND_CORRUPT:
            return bytes([data[0] ^ 0xFF]) + data[1:]
        return data


class FaultyWriter:
    """A frame-writing stream that perturbs one response per fault draw.

    ``delay`` faults are applied in :meth:`drain` (the write itself is
    synchronous); ``drop``/``truncate`` close the underlying transport
    so the peer observes a dead or mid-frame connection.
    """

    def __init__(
        self,
        writer: FrameWriter,
        plan: FaultPlan,
        sleep: _Sleep = asyncio.sleep,
    ) -> None:
        self._writer = writer
        self._plan = plan
        self._sleep = sleep
        self._pending_delay = 0.0

    def write(self, data: bytes) -> None:
        """Write one frame's bytes, subject to the fault plan."""
        spec = self._plan.draw(SITE_TRANSPORT_WRITE)
        if spec is None:
            self._writer.write(data)
            return
        if spec.kind == KIND_DELAY:
            self._pending_delay += spec.delay_s
            self._writer.write(data)
            return
        if spec.kind == KIND_TRUNCATE:
            self._writer.write(data[: max(1, len(data) // 2)])
            self._writer.close()
            return
        if spec.kind == KIND_DROP:
            self._writer.close()
            return
        self._writer.write(data)

    async def drain(self) -> None:
        """Flush, after serving any injected delay."""
        if self._pending_delay > 0.0:
            delay, self._pending_delay = self._pending_delay, 0.0
            await self._sleep(delay)
        await self._writer.drain()

    def close(self) -> None:
        """Close the underlying transport."""
        self._writer.close()

    async def wait_closed(self) -> None:
        """Await the underlying transport's teardown."""
        await self._writer.wait_closed()


def wrap_connection(
    reader: FrameReader,
    writer: FrameWriter,
    plan: FaultPlan | None,
) -> tuple[FrameReader, FrameWriter]:
    """Interpose fault wrappers where the plan has transport rules.

    Streams without matching rules are returned unwrapped, so a plan
    that only injects kernel or admission faults adds zero overhead to
    the transport path.
    """
    if plan is None:
        return reader, writer
    wrapped_reader: FrameReader = reader
    wrapped_writer: FrameWriter = writer
    if plan.has_site(SITE_TRANSPORT_READ):
        wrapped_reader = FaultyReader(reader, plan)
    if plan.has_site(SITE_TRANSPORT_WRITE):
        wrapped_writer = FaultyWriter(writer, plan)
    return wrapped_reader, wrapped_writer
