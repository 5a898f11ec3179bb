"""Message <-> ring-element encoding, including D2 and compression.

Encryption path (Sec. III-C): the 256-bit plaintext is BCH-encoded
into a codeword, each codeword bit is scaled to floor(q/2) = 125 and
placed into a ring coefficient (twice, at offset ``codeword_bits``,
for D2 parameter sets).  Only the occupied ``v_slots`` coefficients of
v are transmitted, each compressed to 4 bits.

Decryption path (Sec. III-D): coefficients are threshold-decoded back
to bits — a bit is 1 when the (noisy) coefficient is closer to q/2
than to 0; D2 pairs vote by summed distance — and the BCH decoder
removes the remaining bit errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.bch.decoder import BCHDecoder, DecodeResult
from repro.bch.ct_decoder import ConstantTimeBCHDecoder
from repro.bch.encoder import BCHEncoder
from repro.bitutils import bits_to_bytes, bytes_to_bits
from repro.lac.params import LacParams
from repro.metrics import OpCounter, ensure_counter


@dataclass
class DecodedMessage:
    """Threshold + BCH decode outcome."""

    message: bytes
    bch_result: DecodeResult
    #: Bit errors the threshold stage handed to the BCH decoder
    #: (relative to the corrected codeword) — a noise health metric.
    channel_errors: int


class BchDecoder(Protocol):
    """A BCH decoder of a schedule: the decoders of :mod:`repro.bch`, or
    the ISE-accelerated one of the co-design layer."""

    def decode(
        self, received: np.ndarray, counter: OpCounter | None = None
    ) -> DecodeResult:
        """Correct ``received`` (a codeword's bits)."""
        ...


def embed_codewords(params: LacParams, codewords: np.ndarray) -> np.ndarray:
    """Codeword bits ``(..., codeword_bits)`` as ring elements ``(..., n)``.

    Each bit is scaled to floor(q/2) and, for D2 parameter sets, copied
    again at offset ``codeword_bits``; every other coefficient is zero.
    The elements are int16: they hold 0 and floor(q/2) only, and a
    caller adding noise or a mask stays exact.
    """
    cw_len = params.codeword_bits
    out = np.zeros(codewords.shape[:-1] + (params.n,), dtype=np.int16)
    out[..., :cw_len] = codewords
    out[..., :cw_len] *= params.half_q
    if params.d2:
        out[..., cw_len : 2 * cw_len] = out[..., :cw_len]
    return out


class MessageCodec:
    """Encode/decode 32-byte messages into/out of ring coefficients."""

    def __init__(self, params: LacParams) -> None:
        self.params = params
        self.encoder = BCHEncoder(params.bch)
        self.decoder = BCHDecoder(params.bch)
        self.ct_decoder = ConstantTimeBCHDecoder(params.bch)

    # ------------------------------------------------------------------
    # encode
    # ------------------------------------------------------------------

    def encode(self, message: bytes, counter: OpCounter | None = None) -> np.ndarray:
        """BCH-encode and embed a message into a full ring element.

        Unused coefficients are zero; the caller adds this to the RLWE
        mask b*s' + e'' and truncates to ``params.v_slots``.
        """
        params = self.params
        counter = ensure_counter(counter)
        if len(message) != params.message_bytes:
            raise ValueError(f"message must be {params.message_bytes} bytes")
        bits = bytes_to_bits(message, params.bch.k)
        out = embed_codewords(params, self.encoder.encode(bits, counter))
        with counter.phase("encode"):
            counter.count("loop", params.v_slots)
            counter.count("alu", params.v_slots)
            counter.count("store", params.v_slots)
        return out

    # ------------------------------------------------------------------
    # threshold decode
    # ------------------------------------------------------------------

    def threshold_decode(
        self, noisy: np.ndarray, counter: OpCounter | None = None
    ) -> np.ndarray:
        """Map ``v_slots`` noisy Z_q values to hard codeword bits.

        Per coefficient w, let d0 = distance(w, 0) and
        d1 = distance(w, floor(q/2)) on the Z_q circle; the bit is 1
        when d1 < d0.  D2 pairs sum both distances before comparing —
        a 1-bit soft combination that roughly halves the noise standard
        deviation, which is what lets LAC-256 keep t = 16.
        """
        params = self.params
        counter = ensure_counter(counter)
        if noisy.size != params.v_slots:
            raise ValueError(f"expected {params.v_slots} coefficients")
        with counter.phase("threshold"):
            counter.count("loop", params.v_slots)
            counter.count("load", params.v_slots)
            counter.count("alu", 4 * params.v_slots)
            counter.count("branch", params.v_slots)
            counter.count("store", params.codeword_bits)
        return self._hard_bits(noisy)

    def _hard_bits(self, noisy: np.ndarray) -> np.ndarray:
        """The threshold rule along the last axis (one word or a stack)."""
        params = self.params
        q, half = params.q, params.half_q
        cw_len = params.codeword_bits

        # reduce in the input's own dtype, then work in int16: every
        # value below is in [0, q) and a D2 sum of two stays under 2q
        values = np.mod(noisy, q).astype(np.int16)
        d0 = np.minimum(values, q - values)
        shifted = np.mod(values - half, q)
        d1 = np.minimum(shifted, q - shifted)
        if params.d2:
            bit_metric0 = d0[..., :cw_len] + d0[..., cw_len : 2 * cw_len]
            bit_metric1 = d1[..., :cw_len] + d1[..., cw_len : 2 * cw_len]
            return (bit_metric1 < bit_metric0).astype(np.uint8)
        return (d1[..., :cw_len] < d0[..., :cw_len]).astype(np.uint8)

    def decode(
        self,
        noisy: np.ndarray,
        counter: OpCounter | None = None,
        constant_time: bool = True,
    ) -> DecodedMessage:
        """Full decode: threshold bits, then BCH error correction by the
        constant-time decoder (the submission's when ``constant_time``
        is false)."""
        counter = ensure_counter(counter)
        hard_bits = self.threshold_decode(noisy, counter)
        decoder = self.ct_decoder if constant_time else self.decoder
        return self.decoded(hard_bits, decoder.decode(hard_bits, counter))

    def decode_many(self, noisy_rows: np.ndarray) -> list[DecodedMessage]:
        """Decode a ``(B, v_slots)`` stack; equals looping :meth:`decode`.

        Uncounted and constant-time only: the rows are thresholded at
        once and corrected by
        :meth:`~repro.bch.ct_decoder.ConstantTimeBCHDecoder.decode_many`.
        """
        noisy_rows = np.asarray(noisy_rows)
        if noisy_rows.ndim != 2 or noisy_rows.shape[1] != self.params.v_slots:
            raise ValueError(
                f"expected rows of {self.params.v_slots} coefficients"
            )
        hard_rows = self._hard_bits(noisy_rows)
        results = self.ct_decoder.decode_many(hard_rows)
        return [
            self.decoded(hard_bits, result)
            for hard_bits, result in zip(hard_rows, results)
        ]

    @staticmethod
    def decoded(hard_bits: np.ndarray, result: DecodeResult) -> DecodedMessage:
        """The message of ``result``, the BCH correction of ``hard_bits``."""
        return DecodedMessage(
            message=bits_to_bytes(result.message),
            bch_result=result,
            channel_errors=int(np.count_nonzero(hard_bits != result.codeword)),
        )

    # ------------------------------------------------------------------
    # ciphertext compression of v (4 bits per slot)
    # ------------------------------------------------------------------

    def compress_v(self, v: np.ndarray) -> np.ndarray:
        """Drop the low ``8 - v_bits`` bits of each v coefficient."""
        shift = 8 - self.params.v_bits
        return np.mod(v, self.params.q).astype(np.uint8) >> shift

    def decompress_v(self, compressed: np.ndarray) -> np.ndarray:
        """Re-center the dropped bits (adds uniform noise of +-2^(shift-1))."""
        shift = 8 - self.params.v_bits
        # int16: a v_bits-wide value shifted back is a byte, and even a
        # full byte shifted by up to 7 bits, plus the offset, fits
        if shift == 0:
            return compressed.astype(np.int16)
        return (compressed.astype(np.int16) << shift) + (1 << (shift - 1))
