"""SHA-256 (FIPS 180-4): a from-scratch golden model and a counted hasher.

(a) :func:`compress` is written round-by-round as the golden model of
    the SHA256 accelerator: :mod:`repro.hw.sha256_accel` and the ISS's
    ``pq.sha256`` reuse its exact round schedule, and the test suite
    checks its fold over ``message + pad(len)`` from :data:`IV`
    bit-exactly against ``hashlib``.
(b) :class:`SHA256` computes its digest with ``hashlib``; the bytes are
    the same with or without a counter.
(c) With a counter attached, :class:`SHA256` prices its blocks instead
    of compressing them: FIPS padding makes the number of compressions
    a function of the absorbed length alone, so each ``update`` and
    ``digest`` records exactly the ``sha256_block`` operations the
    from-scratch engine would have run, for the cycle model to charge.
"""

from __future__ import annotations

import hashlib
import struct

from repro.metrics import NullCounter, OpCounter, ensure_counter

_MASK32 = 0xFFFFFFFF

#: Initial hash values H0..H7 (FIPS 180-4, Sec. 5.3.3).
IV = (
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
)

#: Round constants K0..K63 (FIPS 180-4, Sec. 4.2.2).
K = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5,
    0x3956C25B, 0x59F111F1, 0x923F82A4, 0xAB1C5ED5,
    0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174,
    0xE49B69C1, 0xEFBE4786, 0x0FC19DC6, 0x240CA1CC,
    0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7,
    0xC6E00BF3, 0xD5A79147, 0x06CA6351, 0x14292967,
    0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85,
    0xA2BFE8A1, 0xA81A664B, 0xC24B8B70, 0xC76C51A3,
    0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5,
    0x391C0CB3, 0x4ED8AA4A, 0x5B9CCA4F, 0x682E6FF3,
    0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
)


def _rotr(x: int, r: int) -> int:
    return ((x >> r) | (x << (32 - r))) & _MASK32


def compress(state: tuple[int, ...], block: bytes) -> tuple[int, ...]:
    """One SHA-256 compression: 64-byte block folded into the 8-word state.

    This is the unit of work the SHA256 hardware accelerator performs
    per activation (one message schedule expansion + 64 rounds).
    """
    if len(block) != 64:
        raise ValueError("SHA-256 blocks are exactly 64 bytes")
    w = list(struct.unpack(">16I", block))
    for i in range(16, 64):
        s0 = _rotr(w[i - 15], 7) ^ _rotr(w[i - 15], 18) ^ (w[i - 15] >> 3)
        s1 = _rotr(w[i - 2], 17) ^ _rotr(w[i - 2], 19) ^ (w[i - 2] >> 10)
        w.append((w[i - 16] + s0 + w[i - 7] + s1) & _MASK32)

    a, b, c, d, e, f, g, h = state
    for i in range(64):
        big_s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
        ch = (e & f) ^ (~e & g)
        temp1 = (h + big_s1 + ch + K[i] + w[i]) & _MASK32
        big_s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
        maj = (a & b) ^ (a & c) ^ (b & c)
        temp2 = (big_s0 + maj) & _MASK32
        h, g, f, e = g, f, e, (d + temp1) & _MASK32
        d, c, b, a = c, b, a, (temp1 + temp2) & _MASK32

    return tuple((s + v) & _MASK32 for s, v in zip(state, (a, b, c, d, e, f, g, h)))


def pad(message_length: int) -> bytes:
    """The FIPS padding appended to a message of the given byte length."""
    bit_length = message_length * 8
    padding = b"\x80" + b"\x00" * ((55 - message_length) % 64)
    return padding + struct.pack(">Q", bit_length)


class SHA256:
    """Incremental SHA-256 hasher (hashlib-like interface).

    The digest always comes from ``hashlib``.  The optional ``counter``
    records one ``sha256_block`` operation per compression the FIPS
    engine performs, which the cycle model prices at the software cost
    of a compression on the RISC-V core: ``update`` counts the blocks
    it completes, ``digest`` the padded tail (on every call, since each
    call finalises its own copy of the state).  ``copy()`` carries the
    absorbed length, so a pre-absorbed state (the PRNG's incremental
    squeeze) is priced from where it was cloned.
    """

    digest_size = 32
    block_size = 64

    def __init__(self, data: bytes = b"", counter: OpCounter | None = None) -> None:
        self._counter = ensure_counter(counter)
        self._hash = hashlib.sha256()
        self._length = 0
        if data:
            self.update(data)

    def _count(self, nbytes: int) -> None:
        """Record the compressions that ``nbytes`` more bytes complete."""
        blocks = (self._length % 64 + nbytes) // 64
        if blocks:
            self._counter.count("sha256_block", blocks)

    def update(self, data: bytes) -> SHA256:
        """Absorb more message bytes; returns self for chaining."""
        self._hash.update(data)
        self._count(len(data))
        self._length += len(data)
        return self

    def digest(self) -> bytes:
        """The 32-byte digest of everything absorbed so far."""
        self._count(len(pad(self._length)))
        return self._hash.digest()

    def hexdigest(self) -> str:
        """The digest as a hex string."""
        return self.digest().hex()

    def copy(self) -> SHA256:
        """An independent clone of the current hash state."""
        clone = SHA256(counter=self._counter)
        clone._hash = self._hash.copy()
        clone._length = self._length
        return clone


def sha256(data: bytes, counter: OpCounter | None = None) -> bytes:
    """One-shot SHA-256 digest.

    When no operations are being counted this is a direct ``hashlib``
    call; with a counter, :class:`SHA256` prices every block.
    """
    counter = ensure_counter(counter)
    if isinstance(counter, NullCounter):
        return hashlib.sha256(data).digest()
    return SHA256(data, counter=counter).digest()
