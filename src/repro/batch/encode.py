"""Batched message encoding: matrix BCH encode + ring embedding.

Systematic BCH encoding is GF(2)-linear: the parity of a message is
the XOR of the parities of its set bits, i.e. ``parity = m @ P (mod 2)``
for the k-by-(n-k) matrix P whose row j is the remainder of
``x^{parity_bits + j}`` modulo the generator polynomial.  With P's rows
bit-packed into 64-bit words, one masked XOR-reduction encodes a whole
batch of messages — bit-identical to the shift-register model in
:class:`repro.bch.encoder.BCHEncoder` (a tested invariant), at a
fraction of the per-message cost.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.bch.code import BCHCode
from repro.bitutils import mask_to_bits
from repro.gf.poly2 import Poly2
from repro.lac.encoding import embed_codewords
from repro.lac.params import LacParams


@lru_cache(maxsize=None)
def parity_matrix(code: BCHCode) -> np.ndarray:
    """The k-by-parity_bits GF(2) parity generator matrix of ``code``.

    Row j is ``x^{parity_bits + j} mod g(x)`` as a bit row; built once
    per code and cached (the build does k polynomial reductions).
    """
    rows = [
        mask_to_bits(
            (Poly2(1 << (code.parity_bits + j)) % code.generator).mask,
            code.parity_bits,
        )
        for j in range(code.k)
    ]
    matrix = np.array(rows, dtype=np.uint8)
    matrix.setflags(write=False)
    return matrix


@lru_cache(maxsize=None)
def _parity_words(code: BCHCode) -> np.ndarray:
    """:func:`parity_matrix` with each row bit-packed into ``uint64``
    words, shaped ``(k, words, 1)`` to broadcast across lanes."""
    words = -(-code.parity_bits // 64)
    packed = np.zeros((code.k, 8 * words), dtype=np.uint8)
    packed[:, : -(-code.parity_bits // 8)] = np.packbits(
        parity_matrix(code), axis=1, bitorder="little"
    )
    rows = packed.view(np.uint64)[:, :, None]
    rows.setflags(write=False)
    return rows


def bch_encode_many(code: BCHCode, message_bits: np.ndarray) -> np.ndarray:
    """Encode a (B, k) bit matrix into a (B, n) codeword matrix."""
    message_bits = np.atleast_2d(np.asarray(message_bits, dtype=np.uint8))
    if message_bits.shape[1] != code.k:
        raise ValueError(f"messages must be {code.k} bits wide")
    # every message bit becomes an all-ones or all-zero word per lane,
    # selects its packed parity row, and the rows XOR-fold over the
    # bits.  Integer ops only: a float matmul would wake the BLAS
    # thread pool, which then spins a core; and the memory touched
    # never depends on the message
    masks = np.negative(message_bits.T.astype(np.int64)).view(np.uint64)
    parity_words = np.bitwise_xor.reduce(
        _parity_words(code) & masks[:, None, :], axis=0
    )
    parity = np.unpackbits(
        np.ascontiguousarray(parity_words.T).view(np.uint8),
        axis=1,
        count=code.parity_bits,
        bitorder="little",
    )
    out = np.empty((message_bits.shape[0], code.n), dtype=np.uint8)
    out[:, : code.parity_bits] = parity
    out[:, code.parity_bits :] = message_bits
    return out


def encode_many(params: LacParams, messages: list[bytes]) -> np.ndarray:
    """Embed a batch of 32-byte messages into stacked ring elements.

    Returns a (B, n) int16 matrix, the codewords placed by
    :func:`repro.lac.encoding.embed_codewords` — row-for-row identical
    to :meth:`repro.lac.encoding.MessageCodec.encode`.
    """
    for message in messages:
        if len(message) != params.message_bytes:
            raise ValueError(f"messages must be {params.message_bytes} bytes")
    bits = np.unpackbits(
        np.frombuffer(b"".join(messages), dtype=np.uint8).reshape(len(messages), -1),
        axis=1,
        count=params.bch.k,
        bitorder="little",
    )
    return embed_codewords(params, bch_encode_many(params.bch, bits))
