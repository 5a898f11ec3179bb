"""Keccak-f[1600] and the SHAKE extendable-output functions.

Two of the paper's reference points need Keccak: the NewHope co-design
of [8] generates its polynomials with SHAKE-128, and the paper's own
future work proposes replacing the SHA256 accelerator with a Keccak
core ("Changing the SHA256 accelerator with a Keccak accelerator to
further increase the performance of LAC has been left for a future
work").  This module implements the permutation and the SHAKE-128/256
XOFs from scratch (verified against ``hashlib`` in the test suite);
the hardware model lives in :mod:`repro.hw.keccak_accel`.

One ``keccak_f`` operation is recorded per permutation so the cycle
models can price software vs. accelerator execution.
"""

from __future__ import annotations

from repro.metrics import OpCounter, ensure_counter

_MASK64 = (1 << 64) - 1

#: Round constants of Keccak-f[1600] (FIPS 202, Sec. 3.2.5).
ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

#: Rotation offsets rho[x][y] (FIPS 202, Sec. 3.2.2).
ROTATION_OFFSETS = (
    (0, 36, 3, 41, 18),
    (1, 44, 10, 45, 2),
    (62, 6, 43, 15, 61),
    (28, 55, 25, 21, 56),
    (27, 20, 39, 8, 14),
)


def _rotl(value: int, offset: int) -> int:
    offset %= 64
    return ((value << offset) | (value >> (64 - offset))) & _MASK64


def keccak_f1600(state: list[int]) -> list[int]:
    """One Keccak-f[1600] permutation over 25 lanes (x + 5y indexing)."""
    if len(state) != 25:
        raise ValueError("the Keccak state is 25 64-bit lanes")
    lanes = [[state[x + 5 * y] for y in range(5)] for x in range(5)]

    for round_constant in ROUND_CONSTANTS:
        # theta
        parity = [
            lanes[x][0] ^ lanes[x][1] ^ lanes[x][2] ^ lanes[x][3] ^ lanes[x][4]
            for x in range(5)
        ]
        for x in range(5):
            d = parity[(x - 1) % 5] ^ _rotl(parity[(x + 1) % 5], 1)
            for y in range(5):
                lanes[x][y] ^= d
        # rho + pi
        moved = [[0] * 5 for _ in range(5)]
        for x in range(5):
            for y in range(5):
                moved[y][(2 * x + 3 * y) % 5] = _rotl(
                    lanes[x][y], ROTATION_OFFSETS[x][y]
                )
        # chi
        for x in range(5):
            for y in range(5):
                lanes[x][y] = moved[x][y] ^ (
                    (~moved[(x + 1) % 5][y]) & moved[(x + 2) % 5][y] & _MASK64
                )
        # iota
        lanes[0][0] ^= round_constant

    return [lanes[x][y] for y in range(5) for x in range(5)]


class KeccakSponge:
    """The sponge construction over Keccak-f[1600].

    Parameters
    ----------
    rate_bytes:
        Sponge rate in bytes (168 for SHAKE-128, 136 for SHAKE-256).
    domain_suffix:
        Padding domain byte (0x1F for the SHAKE XOFs).
    counter:
        Optional operation counter; one ``keccak_f`` per permutation.
    """

    def __init__(
        self,
        rate_bytes: int,
        domain_suffix: int = 0x1F,
        counter: OpCounter | None = None,
    ) -> None:
        if not 0 < rate_bytes < 200:
            raise ValueError("rate must be between 1 and 199 bytes")
        self.rate = rate_bytes
        self.domain_suffix = domain_suffix
        self._counter = ensure_counter(counter)
        self._state = [0] * 25
        self._buffer = b""
        self._squeezing = False
        self._squeeze_pool = b""

    def _permute(self) -> None:
        self._state = keccak_f1600(self._state)
        self._counter.count("keccak_f")

    def _absorb_block(self, block: bytes) -> None:
        for i in range(0, self.rate, 8):
            lane = int.from_bytes(block[i : i + 8].ljust(8, b"\x00"), "little")
            self._state[i // 8] ^= lane
        self._permute()

    def absorb(self, data: bytes) -> "KeccakSponge":
        """Feed message bytes into the sponge (before any squeeze)."""
        if self._squeezing:
            raise RuntimeError("cannot absorb after squeezing started")
        self._buffer += data
        while len(self._buffer) >= self.rate:
            self._absorb_block(self._buffer[: self.rate])
            self._buffer = self._buffer[self.rate :]
        return self

    def _finalize(self) -> None:
        padded = bytearray(self._buffer.ljust(self.rate, b"\x00"))
        padded[len(self._buffer)] ^= self.domain_suffix
        padded[self.rate - 1] ^= 0x80
        self._absorb_block(bytes(padded))
        self._buffer = b""
        self._squeezing = True

    def squeeze(self, n: int) -> bytes:
        """Extract ``n`` output bytes (can be called repeatedly)."""
        if n < 0:
            raise ValueError("cannot squeeze a negative number of bytes")
        if not self._squeezing:
            self._finalize()
        while len(self._squeeze_pool) < n:
            block = b"".join(
                lane.to_bytes(8, "little") for lane in self._state[: (self.rate + 7) // 8]
            )[: self.rate]
            self._squeeze_pool += block
            self._permute()
        out, self._squeeze_pool = self._squeeze_pool[:n], self._squeeze_pool[n:]
        return out


def shake128(data: bytes, n: int, counter: OpCounter | None = None) -> bytes:
    """SHAKE-128 XOF: ``n`` output bytes."""
    return KeccakSponge(168, counter=counter).absorb(data).squeeze(n)


def shake256(data: bytes, n: int, counter: OpCounter | None = None) -> bytes:
    """SHAKE-256 XOF: ``n`` output bytes."""
    return KeccakSponge(136, counter=counter).absorb(data).squeeze(n)


class ShakePrng:
    """A SHAKE-128 byte stream with the Sha256Prng interface.

    Drop-in alternative seed expander: this is what NewHope [8] uses
    for polynomial generation, and what the paper's future-work Keccak
    accelerator would back for LAC.  Per-byte stream-management
    overhead is recorded as ``prng_byte`` exactly like the SHA-256
    expander, so the two are comparable under the same cost model.
    """

    def __init__(self, seed: bytes, counter: OpCounter | None = None) -> None:
        if not isinstance(seed, (bytes, bytearray)):
            raise TypeError("seed must be bytes")
        self.seed = bytes(seed)
        self._counter = ensure_counter(counter)
        self._sponge = KeccakSponge(168, counter=self._counter)
        self._sponge.absorb(self.seed)

    def read(self, n: int) -> bytes:
        """The next ``n`` stream bytes (records per-byte overhead)."""
        out = self._sponge.squeeze(n)
        self._counter.count("prng_byte", n)
        return out

    def read_u8(self) -> int:
        """One stream byte as an integer."""
        return self.read(1)[0]

    def read_u32(self) -> int:
        """Four stream bytes as a little-endian integer."""
        return int.from_bytes(self.read(4), "little")

    def fork(self, label: bytes) -> "ShakePrng":
        """A domain-separated child stream."""
        child_seed = shake128(self.seed + label, 32, counter=self._counter)
        return ShakePrng(child_seed, counter=self._counter)
