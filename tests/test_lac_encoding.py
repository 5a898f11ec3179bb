"""Tests for message encoding, threshold decoding and compression."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lac.encoding import MessageCodec
from repro.lac.params import ALL_PARAMS, LAC_128, LAC_192, LAC_256


@pytest.fixture(params=ALL_PARAMS, ids=str)
def codec(request):
    return MessageCodec(request.param)


# ----------------------------------------------------------------------
# int64 references: the codec works in int16/uint8, and must agree
# ----------------------------------------------------------------------


def _hard_bits_int64(params, noisy):
    q, half, cw = params.q, params.half_q, params.codeword_bits
    values = np.mod(np.asarray(noisy, dtype=np.int64), q)
    d0 = np.minimum(values, q - values)
    shifted = np.mod(values - half, q)
    d1 = np.minimum(shifted, q - shifted)
    if params.d2:
        return (
            d1[..., :cw] + d1[..., cw : 2 * cw] < d0[..., :cw] + d0[..., cw : 2 * cw]
        ).astype(np.uint8)
    return (d1[..., :cw] < d0[..., :cw]).astype(np.uint8)


def _compress_int64(params, v):
    return (np.mod(np.asarray(v, dtype=np.int64), params.q) >> (8 - params.v_bits)).astype(
        np.uint8
    )


def _decompress_int64(params, compressed):
    shift = 8 - params.v_bits
    wide = compressed.astype(np.int64)
    return wide << shift if shift == 0 else (wide << shift) + (1 << (shift - 1))


def _edge_values(q, half):
    """0, q - 1, q, negatives, and both sides of each decision boundary
    (q/4 and 3q/4, where distance to 0 meets distance to floor(q/2))."""
    return [0, 1, q - 1, q, q + 1, 2 * q - 1, -1, -q, -q - 1, -2 * q + 1,
            half - 1, half, half + 1, q - half, -half,
            half // 2, half // 2 + 1, q - half // 2 - 1, q - half // 2]


def _edge_rows(params, draw):
    """One row of ``v_slots`` values from the edges; a D2 set also
    draws pairs whose two halves sit either side of the vote's tie."""
    q, half, cw = params.q, params.half_q, params.codeword_bits
    edges = _edge_values(q, half)
    value = st.one_of(st.sampled_from(edges), st.integers(-3 * q, 3 * q))
    head = draw(st.lists(value, min_size=1, max_size=48))
    row = np.resize(np.array(head, dtype=np.int64), params.v_slots)
    if params.d2:
        # a pair votes by summed distance, and two halves in [0, half]
        # summing to half tie it: draw sums of half - 1, half and
        # half + 1, each half moved by whole multiples of q
        small = st.integers(-2, 2)
        for i in draw(st.lists(st.integers(0, cw - 1), min_size=1, max_size=16)):
            step, delta = draw(small), draw(st.integers(-1, 1))
            first = half // 2 + step
            row[i] = first + q * draw(small)
            row[cw + i] = half - first + delta + q * draw(small)
    return row


class TestEncode:
    def test_amplitude(self, codec):
        encoded = codec.encode(b"\xff" * 32)
        used = encoded[: codec.params.v_slots]
        assert set(np.unique(used)) <= {0, codec.params.half_q}

    def test_unused_slots_zero(self, codec):
        encoded = codec.encode(b"\xaa" * 32)
        assert not encoded[codec.params.v_slots :].any()

    def test_d2_duplicates(self):
        codec = MessageCodec(LAC_256)
        encoded = codec.encode(bytes(range(32)))
        cw = codec.params.codeword_bits
        assert np.array_equal(encoded[:cw], encoded[cw : 2 * cw])

    def test_wrong_message_size(self, codec):
        with pytest.raises(ValueError):
            codec.encode(b"short")


class TestThresholdDecode:
    def test_clean_roundtrip(self, codec):
        message = bytes(range(32))
        encoded = codec.encode(message)
        bits = codec.threshold_decode(encoded[: codec.params.v_slots])
        decoded = codec.decode(encoded[: codec.params.v_slots])
        assert decoded.message == message
        assert decoded.channel_errors == 0
        assert bits.size == codec.params.codeword_bits

    @given(noise_amp=st.integers(min_value=0, max_value=40))
    @settings(max_examples=10, deadline=None)
    def test_small_noise_thresholds_correctly(self, noise_amp):
        codec = MessageCodec(LAC_128)
        params = codec.params
        message = b"\x5a" * 32
        encoded = codec.encode(message)[: params.v_slots]
        rng = np.random.default_rng(noise_amp)
        noise = rng.integers(-noise_amp, noise_amp + 1, params.v_slots)
        noisy = np.mod(encoded + noise, params.q)
        bits = codec.threshold_decode(noisy)
        clean_bits = codec.threshold_decode(encoded)
        # noise below q/4 = 62 can never flip a threshold decision
        assert np.array_equal(bits, clean_bits)

    def test_wrong_size_rejected(self, codec):
        with pytest.raises(ValueError):
            codec.threshold_decode(np.zeros(10))

    @pytest.mark.parametrize("params", ALL_PARAMS, ids=str)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_narrow_threshold_equals_int64_reference(self, params, data):
        codec = MessageCodec(params)
        row = _edge_rows(params, data.draw)
        want = _hard_bits_int64(params, row)
        # int64 as the scalar decrypt hands it over, int16 where it fits,
        # and the reduced byte rows the batch DECAPS hands over
        for noisy in (row, row.astype(np.int16), np.mod(row, params.q).astype(np.uint8)):
            assert np.array_equal(codec._hard_bits(noisy), want)
            assert np.array_equal(codec.threshold_decode(noisy), want)
        stack = np.stack([row, np.mod(-row, params.q)])
        assert np.array_equal(codec._hard_bits(stack), _hard_bits_int64(params, stack))

    def test_d2_survives_one_large_half(self):
        # D2 combines two observations: one badly corrupted slot out of
        # a pair still decodes if its twin is clean enough
        codec = MessageCodec(LAC_256)
        params = codec.params
        message = b"\x33" * 32
        encoded = codec.encode(message)[: params.v_slots]
        noisy = encoded.copy()
        cw = params.codeword_bits
        # push 8 first-half slots to the decision boundary
        noisy[:8] = np.mod(noisy[:8] + 55, params.q)
        bits = codec.threshold_decode(noisy)
        assert np.array_equal(bits, codec.threshold_decode(encoded))


class TestFullDecode:
    def test_bch_cleans_channel_errors(self, codec):
        params = codec.params
        message = b"\x77" * 32
        encoded = codec.encode(message)[: params.v_slots]
        noisy = encoded.copy()
        rng = np.random.default_rng(1)
        # flip a few coefficients completely (guaranteed bit errors),
        # choosing distinct codeword bits
        bad_bits = rng.choice(params.codeword_bits, size=3, replace=False)
        for b in bad_bits:
            noisy[b] = np.mod(noisy[b] + params.half_q, params.q)
            if params.d2:
                twin = b + params.codeword_bits
                noisy[twin] = np.mod(noisy[twin] + params.half_q, params.q)
        decoded = codec.decode(noisy)
        assert decoded.message == message
        assert decoded.channel_errors == 3
        assert decoded.bch_result.success

    def test_non_ct_decoder_path(self):
        codec = MessageCodec(LAC_192)
        encoded = codec.encode(b"\x01" * 32)[: codec.params.v_slots]
        decoded = codec.decode(encoded, constant_time=False)
        assert decoded.message == b"\x01" * 32


class TestCompression:
    @pytest.mark.parametrize("params", ALL_PARAMS, ids=str)
    def test_error_bound(self, params):
        codec = MessageCodec(params)
        values = np.arange(params.v_slots) % params.q
        compressed = codec.compress_v(values)
        restored = codec.decompress_v(compressed)
        error = np.abs(restored - values)
        assert error.max() <= 8

    def test_compressed_range(self):
        codec = MessageCodec(LAC_128)
        values = np.arange(codec.params.v_slots) % 251
        compressed = codec.compress_v(values)
        assert compressed.max() <= 15
        assert compressed.dtype == np.uint8

    @pytest.mark.parametrize("params", ALL_PARAMS, ids=str)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_narrow_compression_equals_int64_reference(self, params, data):
        codec = MessageCodec(params)
        v = _edge_rows(params, data.draw)
        for held in (v, v.astype(np.int16)):
            compressed = codec.compress_v(held)
            assert compressed.dtype == np.uint8
            assert np.array_equal(compressed, _compress_int64(params, v))
        # every byte, not only the v_bits-wide values a ciphertext holds
        every = np.arange(256, dtype=np.uint8)
        restored = codec.decompress_v(every)
        assert np.array_equal(restored, _decompress_int64(params, every))
        assert np.array_equal(
            codec.decompress_v(codec.compress_v(v)),
            _decompress_int64(params, _compress_int64(params, v)),
        )

    def test_decompressed_in_zq(self):
        codec = MessageCodec(LAC_128)
        compressed = np.arange(16, dtype=np.uint8).repeat(25)
        restored = codec.decompress_v(compressed)
        assert restored.max() < 251
