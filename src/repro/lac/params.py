"""LAC parameter sets (NIST round-2 submission, as used by the paper).

The three security levels share q = 251 and a 256-bit message; they
differ in ring size n, secret weight h, BCH code, and whether the
codeword is redundantly (D2) encoded:

* **LAC-128** — n = 512, BCH(511,367,16), plain encoding (NIST level I)
* **LAC-192** — n = 1024, BCH(511,439,8), plain encoding (level III);
  the sparser secrets (h/n = 1/4) keep the noise small enough for t=8
* **LAC-256** — n = 1024, BCH(511,367,16), D2 encoding: every codeword
  bit is embedded twice and the decoder combines both observations
  (level V)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bch.code import BCHCode, LAC_BCH_128_256, LAC_BCH_192
from repro.ring.poly import LAC_Q, PolyRing


@dataclass(frozen=True)
class LacParams:
    """A complete LAC parameter set."""

    name: str
    n: int
    #: Fixed Hamming weight of secret/error polynomials (h/2 ones, h/2
    #: minus-ones), the round-2 fixed-weight distribution.
    h: int
    bch: BCHCode
    #: D2 redundant encoding: each codeword bit occupies two ring slots.
    d2: bool
    nist_level: str
    q: int = LAC_Q
    seed_bytes: int = 32
    message_bytes: int = 32
    #: Bits kept per v-coefficient after ciphertext compression.
    v_bits: int = 4

    def __post_init__(self) -> None:
        if self.n < 2 or self.n & (self.n - 1):
            raise ValueError("ring size n must be a power of two")
        if self.h % 2:
            raise ValueError("weight h must be even (h/2 ones, h/2 minus-ones)")
        if self.h > self.n:
            raise ValueError("weight cannot exceed the ring size")
        if self.bch.k != 8 * self.message_bytes:
            raise ValueError("BCH payload must match the message size")
        if self.v_slots > self.n:
            raise ValueError("encoded codeword does not fit in the ring")

    # ------------------------------------------------------------------

    @property
    def ring(self) -> PolyRing:
        """The negacyclic ring Z_q[x]/(x^n + 1)."""
        return PolyRing(self.n, self.q, negacyclic=True)

    @property
    def codeword_bits(self) -> int:
        """Length of the shortened BCH codeword."""
        return self.bch.n

    @property
    def v_slots(self) -> int:
        """Ring coefficients carried by the ciphertext component v."""
        return self.codeword_bits * (2 if self.d2 else 1)

    @property
    def half_q(self) -> int:
        """The encoding amplitude floor(q/2) = 125."""
        return self.q // 2

    # ------------------------------------------------------------------
    # wire sizes (bytes), for comparison with the paper's Sec. VI-B
    # ------------------------------------------------------------------

    @property
    def public_key_bytes(self) -> int:
        """seed_a || b (one byte per coefficient)."""
        return self.seed_bytes + self.n

    @property
    def secret_key_bytes(self) -> int:
        """s, one byte per coefficient (the paper's ||sk|| convention)."""
        return self.n

    @property
    def ciphertext_bytes(self) -> int:
        """u (one byte per coefficient) || v (v_bits per slot)."""
        return self.n + (self.v_slots * self.v_bits + 7) // 8

    def __str__(self) -> str:
        return self.name


LAC_128 = LacParams(
    name="LAC-128", n=512, h=256, bch=LAC_BCH_128_256, d2=False, nist_level="I"
)

LAC_192 = LacParams(
    name="LAC-192", n=1024, h=256, bch=LAC_BCH_192, d2=False, nist_level="III"
)

LAC_256 = LacParams(
    name="LAC-256", n=1024, h=384, bch=LAC_BCH_128_256, d2=True, nist_level="V"
)

#: All parameter sets, in ascending security order.
ALL_PARAMS = (LAC_128, LAC_192, LAC_256)
