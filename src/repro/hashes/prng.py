"""Seed expansion for polynomial generation (GenA / Sample poly).

LAC expands short seeds into long pseudorandom byte streams with
SHA-256 (Sec. III-B: "expands this seed using a pseudo random number
generator (SHA256 in LAC)").  The exact domain-separation details of
the reference code are immaterial to the paper's evaluation (what is
measured is the number of SHA-256 compressions); we use the standard
counter-mode construction

    stream = SHA256(seed || LE32(0)) || SHA256(seed || LE32(1)) || ...

which performs one compression per 32 output bytes for 32-byte seeds,
matching the accounting of the reference implementation.
"""

from __future__ import annotations

import hashlib

from repro.hashes.sha256 import SHA256
from repro.metrics import NullCounter, OpCounter, ensure_counter


class Sha256Prng:
    """A deterministic byte stream expanded from a seed via SHA-256.

    Parameters
    ----------
    seed:
        Arbitrary-length seed bytes (LAC uses 32).
    counter:
        Optional operation counter; every SHA-256 compression performed
        during expansion is recorded (``sha256_block``), so GenA and
        sampling costs in the cycle model scale with real hash work.
    """

    def __init__(self, seed: bytes, counter: OpCounter | None = None) -> None:
        if not isinstance(seed, (bytes, bytearray)):
            raise TypeError("seed must be bytes")
        self.seed = bytes(seed)
        self._counter = ensure_counter(counter)
        self._fast = isinstance(self._counter, NullCounter)
        self._block_index = 0
        self._pool = bytearray()
        self._offset = 0
        #: SHA-256 state with the seed already absorbed, cloned per
        #: squeeze block so the seed is hashed exactly once instead of
        #: being re-absorbed on every refill (lazy: first squeeze).  A
        #: raw ``hashlib`` object on the uncounted fast path, the
        #: block-priced :class:`SHA256` otherwise.
        self._base: SHA256 | hashlib._Hash | None = None

    def _squeeze(self, blocks: int) -> None:
        """Append ``blocks`` counter-mode output blocks to the pool."""
        if self._base is None:
            self._base = (
                hashlib.sha256(self.seed)
                if self._fast
                else SHA256(self.seed, counter=self._counter)
            )
        base, pool = self._base, self._pool
        stop = self._block_index + blocks
        for index in range(self._block_index, stop):
            hasher = base.copy()
            hasher.update(index.to_bytes(4, "little"))
            pool += hasher.digest()
        self._block_index = stop

    def read(self, n: int) -> bytes:
        """Return the next ``n`` bytes of the stream.

        Besides the SHA-256 compressions, one ``prng_byte`` operation is
        recorded per byte delivered: the reference implementation's
        stream-state management (buffer bookkeeping, call layering) costs
        a roughly constant amount per output byte on top of the hashing,
        and dominates the polynomial-generation kernels of Table II.
        """
        if n < 0:
            raise ValueError("cannot read a negative number of bytes")
        deficit = n - (len(self._pool) - self._offset)
        if deficit > 0:
            self._squeeze(-(-deficit // 32))
        out = bytes(self._pool[self._offset : self._offset + n])
        self._offset += n
        if self._offset >= 4096:
            del self._pool[: self._offset]
            self._offset = 0
        self._counter.count("prng_byte", n)
        return out

    def read_u8(self) -> int:
        """One stream byte as an integer."""
        return self.read(1)[0]

    def read_u32(self) -> int:
        """Four stream bytes as a little-endian integer."""
        return int.from_bytes(self.read(4), "little")

    def fork(self, label: bytes) -> Sha256Prng:
        """A domain-separated child stream (seed' = SHA256(seed || label))."""
        if self._fast:
            return Sha256Prng(hashlib.sha256(self.seed + label).digest())
        hasher = SHA256(counter=self._counter)
        hasher.update(self.seed)
        hasher.update(label)
        return Sha256Prng(hasher.digest(), counter=self._counter)
