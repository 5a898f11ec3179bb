"""Property tests for the frame format (repro.serve.protocol).

The format is parsed by one function, so one set of properties covers
every way bytes reach it — over whole frames drawn across every op,
status, extension subset and the payload sizes around the header size:

* **round trip** — ``decode_frame(f.to_bytes()) == (f, len)``, and the
  same bytes through ``read_frame`` give the identical frame however
  the stream splits them (every byte offset is tried);
* **truncation is typed** — cutting the bytes at *every* offset yields
  ``ProtocolError(reason="truncated")`` from both entry points (a clean
  EOF before the first byte is ``None`` from ``read_frame``), never a
  hang or an untyped exception;
* **version 1 is frozen** — un-extended frames serialize to the exact
  bytes pinned below.
"""

import asyncio
import itertools
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.protocol import (
    HEADER_SIZE,
    MAX_DEADLINE_US,
    Frame,
    Op,
    ProtocolError,
    QosSpec,
    Status,
    decode_frame,
    read_frame,
)
from repro.trace import TraceContext

MAX_EXAMPLES = int(os.environ.get("REPRO_PROPERTY_MAX_EXAMPLES", "20"))

SWEEP = settings(max_examples=MAX_EXAMPLES, deadline=None)

#: empty, one byte, the header size and its neighbours (a body read the
#: size of a header must not be mistaken for one), and typical requests
#: and responses (key id + message, LAC-128 ciphertext + secret)
PAYLOAD_SIZES = (0, 1, HEADER_SIZE - 1, HEADER_SIZE, HEADER_SIZE + 1, 36, 744)

#: hang guard: every read below completes or fails immediately
READ_TIMEOUT_S = 5.0

traces = st.builds(
    TraceContext,
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=2**32 - 1),
)
qos_specs = st.builds(
    QosSpec,
    st.integers(min_value=0, max_value=MAX_DEADLINE_US),
    st.integers(min_value=0, max_value=0xFF),
)
tenants = st.integers(min_value=0, max_value=0xFF)

frames = st.builds(
    Frame,
    op=st.sampled_from(list(Op)),
    request_id=st.integers(min_value=0, max_value=2**32 - 1),
    param_id=st.integers(min_value=0, max_value=0xFF),
    status=st.sampled_from(list(Status)),
    payload=st.sampled_from(PAYLOAD_SIZES).flatmap(
        lambda size: st.binary(min_size=size, max_size=size)
    ),
    # each extension independently present or absent: all 8 subsets
    trace=st.none() | traces,
    qos=st.none() | qos_specs,
    tenant=st.none() | tenants,
)


async def read_split(wire: bytes, offset: int) -> Frame | None:
    """``read_frame`` over a stream that delivers ``wire`` in two pieces."""
    reader = asyncio.StreamReader()
    reader.feed_data(wire[:offset])
    task = asyncio.ensure_future(read_frame(reader))
    await asyncio.sleep(0)  # let the read block on the missing tail
    reader.feed_data(wire[offset:])
    reader.feed_eof()
    return await asyncio.wait_for(task, READ_TIMEOUT_S)


async def read_truncated(wire: bytes, offset: int) -> Frame | None:
    """``read_frame`` over a stream that ends after ``offset`` bytes."""
    reader = asyncio.StreamReader()
    reader.feed_data(wire[:offset])
    reader.feed_eof()
    return await asyncio.wait_for(read_frame(reader), READ_TIMEOUT_S)


class TestRoundTrip:
    def test_every_op_status_extension_subset_and_size(self):
        # the whole grid, exhaustively (the decoder is cheap)
        extensions = list(itertools.product([False, True], repeat=3))
        assert len(extensions) == 8
        for op, status, (trace, qos, tenant), size in itertools.product(
            Op, Status, extensions, PAYLOAD_SIZES
        ):
            frame = Frame(
                op,
                request_id=size,
                param_id=0x11,
                status=status,
                payload=bytes(size),
                trace=TraceContext(1, 2) if trace else None,
                qos=QosSpec(3, 4) if qos else None,
                tenant=5 if tenant else None,
            )
            wire = frame.to_bytes()
            assert wire[2] == 1 + trace + 2 * qos + 4 * tenant
            assert decode_frame(wire) == (frame, len(wire))

    @SWEEP
    @given(frames, st.binary(max_size=HEADER_SIZE + 1))
    def test_decode_inverts_encode(self, frame, trailing):
        wire = frame.to_bytes()
        assert decode_frame(wire + trailing) == (frame, len(wire))

    @SWEEP
    @given(frames)
    def test_stream_split_at_every_offset(self, frame):
        wire = frame.to_bytes()

        async def main():
            for offset in range(len(wire) + 1):
                assert await read_split(wire, offset) == frame

        asyncio.run(main())

    @SWEEP
    @given(st.lists(frames, min_size=2, max_size=4))
    def test_back_to_back_frames_keep_their_boundaries(self, sent):
        async def main():
            reader = asyncio.StreamReader()
            reader.feed_data(b"".join(frame.to_bytes() for frame in sent))
            reader.feed_eof()
            for frame in sent:
                assert await read_frame(reader) == frame
            assert await read_frame(reader) is None

        asyncio.run(main())


class TestTruncation:
    @SWEEP
    @given(frames)
    def test_buffer_cut_at_every_offset_is_typed(self, frame):
        wire = frame.to_bytes()
        for offset in range(len(wire)):
            with pytest.raises(ProtocolError) as excinfo:
                decode_frame(wire[:offset])
            assert excinfo.value.reason == "truncated"

    @SWEEP
    @given(frames)
    def test_stream_cut_at_every_offset_is_typed(self, frame):
        wire = frame.to_bytes()

        async def main():
            assert await read_truncated(wire, 0) is None  # clean EOF
            for offset in range(1, len(wire)):
                with pytest.raises(ProtocolError) as excinfo:
                    await read_truncated(wire, offset)
                assert excinfo.value.reason == "truncated"

        asyncio.run(main())


#: Version-1 (un-extended) frames as the first protocol release wrote
#: them; these bytes may never change.
GOLDEN_V1 = [
    (Frame(Op.INFO, 1), "4c4b010400ff0000000100000000"),
    (
        Frame(Op.ENCAPS, 0xDEADBEEF, 2, payload=b"\x00\x00\x00\x07" + b"\xa5" * 4),
        "4c4b01020002deadbeef0000000800000007a5a5a5a5",
    ),
    (
        Frame(Op.DECAPS, 9, 0x10, Status.BUSY, b"3 requests pending"),
        "4c4b010301100000000900000012332072657175657374732070656e64696e67",
    ),
]


class TestVersionOneIsFrozen:
    @pytest.mark.parametrize("frame,wire_hex", GOLDEN_V1)
    def test_golden_bytes(self, frame, wire_hex):
        wire = bytes.fromhex(wire_hex)
        assert frame.to_bytes() == wire
        assert decode_frame(wire) == (frame, len(wire))
