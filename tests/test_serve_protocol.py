"""Frame-level tests of the service wire protocol, plus a
malformed-frame corpus driven through a live server: every corpus
entry must surface as a typed, reason-tagged error — counted in the
connection-error metrics — and must never leak an exception out of
the accept loop or poison other connections."""

import asyncio

import pytest

from repro.lac.params import ALL_PARAMS, LAC_128, LAC_256
from repro.newhope.params import NEWHOPE_512, NEWHOPE_1024
from repro.schemes import wire_id_for_params
from repro.serve.protocol import (
    HEADER_SIZE,
    MAX_PAYLOAD,
    PARAM_NONE,
    Frame,
    Op,
    ProtocolError,
    Status,
    decode_frame,
    pack_decaps_request,
    pack_encaps_request,
    params_for_wire_id,
    read_frame,
    unpack_encaps_response,
    unpack_key_id,
    unpack_keygen_response,
)


class TestFrameRoundtrip:
    def test_empty_payload(self):
        frame = Frame(Op.INFO, request_id=7)
        decoded, consumed = decode_frame(frame.to_bytes())
        assert consumed == HEADER_SIZE
        assert decoded == frame

    def test_payload_roundtrip(self):
        frame = Frame(
            Op.ENCAPS, 0xDEADBEEF, wire_id_for_params(LAC_256), Status.OK, b"\x01" * 37
        )
        blob = frame.to_bytes()
        decoded, consumed = decode_frame(blob + b"trailing")
        assert consumed == len(blob)
        assert decoded == frame

    def test_status_roundtrip(self):
        for status in Status:
            frame = Frame(Op.DECAPS, 1, status=status, payload=b"why")
            assert decode_frame(frame.to_bytes())[0].status is status

    def test_request_id_is_echo_field(self):
        for rid in (0, 1, 0xFFFFFFFF):
            assert decode_frame(Frame(Op.KEYGEN, rid).to_bytes())[0].request_id == rid


class TestMalformedFrames:
    def test_truncated_header(self):
        with pytest.raises(ProtocolError, match="truncated header"):
            decode_frame(b"LK\x01")

    def test_truncated_payload(self):
        blob = Frame(Op.INFO, 1, payload=b"abcdef").to_bytes()
        with pytest.raises(ProtocolError, match="truncated payload"):
            decode_frame(blob[:-1])

    def test_bad_magic(self):
        blob = bytearray(Frame(Op.INFO, 1).to_bytes())
        blob[:2] = b"XX"
        with pytest.raises(ProtocolError, match="magic"):
            decode_frame(bytes(blob))

    def test_bad_version(self):
        blob = bytearray(Frame(Op.INFO, 1).to_bytes())
        blob[2] = 99
        with pytest.raises(ProtocolError, match="version"):
            decode_frame(bytes(blob))

    def test_bad_op(self):
        blob = bytearray(Frame(Op.INFO, 1).to_bytes())
        blob[3] = 200
        with pytest.raises(ProtocolError):
            decode_frame(bytes(blob))

    def test_oversized_announced_payload(self):
        blob = bytearray(Frame(Op.INFO, 1).to_bytes())
        blob[10:14] = (MAX_PAYLOAD + 1).to_bytes(4, "big")
        # rejected on the header alone: nothing of the announced
        # payload has to be present (or allocated) to get the error
        with pytest.raises(ProtocolError, match="too large") as excinfo:
            decode_frame(bytes(blob))
        assert excinfo.value.reason == "oversized"

    def test_oversized_outgoing_payload(self):
        with pytest.raises(ProtocolError, match="too large"):
            Frame(Op.INFO, 1, payload=b"x" * (MAX_PAYLOAD + 1)).to_bytes()


class TestParamIds:
    def test_roundtrip_all_sets(self):
        for params in (*ALL_PARAMS, NEWHOPE_512, NEWHOPE_1024):
            assert params_for_wire_id(wire_id_for_params(params))[1] is params

    def test_ids_are_stable_wire_values(self):
        # wire compatibility: LAC ids are positional in ALL_PARAMS
        # (scheme 0 keeps the historical values); NewHope is scheme 1
        assert [wire_id_for_params(p) for p in ALL_PARAMS] == [0, 1, 2]
        assert wire_id_for_params(NEWHOPE_512) == 0x10
        assert wire_id_for_params(NEWHOPE_1024) == 0x11

    def test_unknown_id_rejected(self):
        # 3: no LAC index 3; 0x12: no NewHope index 2; 0x20: no scheme 2
        for bad in (3, 0x12, 0x20, PARAM_NONE):
            with pytest.raises(ProtocolError, match="unknown"):
                params_for_wire_id(bad)


class TestPayloadPacking:
    def test_encaps_request(self):
        payload = pack_encaps_request(42, b"m" * 32)
        key_id, rest = unpack_key_id(payload)
        assert (key_id, rest) == (42, b"m" * 32)
        assert unpack_key_id(pack_encaps_request(7))[1] == b""

    def test_decaps_request(self):
        key_id, ct = unpack_key_id(pack_decaps_request(9, b"\x05" * 11))
        assert (key_id, ct) == (9, b"\x05" * 11)

    def test_key_id_too_short(self):
        with pytest.raises(ProtocolError, match="key id"):
            unpack_key_id(b"\x00")

    def test_encaps_response_split(self):
        ct = b"\xaa" * LAC_128.ciphertext_bytes
        ss = b"\xbb" * 32
        assert unpack_encaps_response(LAC_128, ct + ss) == (ct, ss)
        with pytest.raises(ProtocolError, match="ENCAPS response"):
            unpack_encaps_response(LAC_128, ct + ss + b"x")

    def test_keygen_response_split(self):
        pk = b"\xcc" * LAC_128.public_key_bytes
        key_id, pk_out = unpack_keygen_response(LAC_128, b"\x00\x00\x00\x05" + pk)
        assert (key_id, pk_out) == (5, pk)
        with pytest.raises(ProtocolError, match="pk must be"):
            unpack_keygen_response(LAC_128, b"\x00\x00\x00\x05" + pk[:-1])


# ---------------------------------------------------------------------------
# malformed-frame corpus
# ---------------------------------------------------------------------------


def _mutated(index: int, value: bytes) -> bytes:
    blob = bytearray(Frame(Op.INFO, 1).to_bytes())
    blob[index : index + len(value)] = value
    return bytes(blob)


#: (label, wire bytes, expected ProtocolError.reason).  Every entry is
#: an unrecoverable framing fault: the server must drop the connection
#: and count ``protocol:<reason>``.
FRAMING_CORPUS = [
    ("garbage-header", b"\xde\xad\xbe\xef" * 3 + b"\xde\xad", "bad-magic"),
    ("bad-version", _mutated(2, b"\x63"), "bad-version"),
    ("unknown-opcode", _mutated(3, b"\xc8"), "bad-enum"),
    ("unknown-status", _mutated(4, b"\xc8"), "bad-enum"),
    (
        "oversized-length",
        _mutated(10, (MAX_PAYLOAD + 1).to_bytes(4, "big")),
        "oversized",
    ),
    # cut inside the 4-byte length prefix, then EOF
    ("truncated-length-prefix", Frame(Op.INFO, 1).to_bytes()[:12], "truncated"),
]


class TestCorpusReasons:
    """The decoder tags every corpus entry with its machine reason."""

    @pytest.mark.parametrize(
        "blob,reason",
        [(blob, reason) for _, blob, reason in FRAMING_CORPUS],
        ids=[label for label, _, _ in FRAMING_CORPUS],
    )
    def test_reason_tag(self, blob, reason):
        async def main():
            reader = asyncio.StreamReader()
            reader.feed_data(blob)
            reader.feed_eof()
            with pytest.raises(ProtocolError) as excinfo:
                await read_frame(reader)
            assert excinfo.value.reason == reason

        asyncio.run(main())

    def test_default_reason_is_malformed(self):
        assert ProtocolError("x").reason == "malformed"


class TestServerMalformedIsolation:
    """A poisoned client is dropped, counted, and never takes the
    service (or other connections) down with it."""

    @pytest.mark.parametrize(
        "blob,reason",
        [(blob, reason) for _, blob, reason in FRAMING_CORPUS],
        ids=[label for label, _, _ in FRAMING_CORPUS],
    )
    def test_connection_dropped_and_counted(self, blob, reason):
        from repro.serve import AsyncKemClient, KemService, ServiceConfig

        async def main():
            svc = await KemService(ServiceConfig(max_batch=1)).start()
            reader, writer = await svc.connect()
            writer.write(blob)
            if len(blob) < HEADER_SIZE:
                writer.write_eof()  # truncation needs the EOF to land
            await writer.drain()
            # server must close this connection (not hang, not crash)
            tail = await asyncio.wait_for(reader.read(), timeout=5)
            assert tail == b""
            writer.close()
            assert (
                svc.metrics.snapshot()["connection_errors"].get(
                    f"protocol:{reason}"
                )
                == 1
            )
            # the accept loop survived: a fresh connection is served
            client = AsyncKemClient(*(await svc.connect()))
            assert isinstance(await client.info(), dict)
            await client.aclose()
            await svc.shutdown()

        asyncio.run(main())

    def test_garbage_payload_is_typed_bad_request(self):
        # a well-framed request with nonsense payload: answered with
        # BAD_REQUEST, connection stays usable
        from repro.serve import AsyncKemClient, BadRequest, KemService, ServiceConfig

        async def main():
            svc = await KemService(ServiceConfig(max_batch=1)).start()
            client = AsyncKemClient(*(await svc.connect()))
            frame = await client.request(
                Op.ENCAPS, wire_id_for_params(LAC_128), b"\x01\x02"
            )
            assert frame.status is Status.BAD_REQUEST
            with pytest.raises(BadRequest):
                from repro.serve.client import raise_for_status

                raise_for_status(frame)
            # same connection still serves valid requests
            assert isinstance(await client.info(), dict)
            snap = svc.metrics.snapshot()
            assert snap["responses"].get("ENCAPS:BAD_REQUEST") == 1
            assert snap["connection_errors"] == {}
            await client.aclose()
            await svc.shutdown()

        asyncio.run(main())

    def test_poisoned_peer_does_not_affect_others(self):
        from repro.serve import AsyncKemClient, KemService, ServiceConfig

        async def main():
            svc = await KemService(ServiceConfig(max_batch=1)).start()
            healthy = AsyncKemClient(*(await svc.connect()))
            _, poison_writer = await svc.connect()
            poison_writer.write(b"\x00" * 64)
            await poison_writer.drain()
            poison_writer.close()
            # the healthy connection is untouched by the teardown
            from repro.lac.params import LAC_128 as params

            key_id, _pk = await healthy.keygen(params, bytes(range(64)))
            assert isinstance(key_id, int)
            await healthy.aclose()
            await svc.shutdown()

        asyncio.run(main())
