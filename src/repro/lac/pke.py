"""LAC CPA-secure public-key encryption (Fig. 1 of the paper).

Key generation:   a = GenA(seed);  b = a*s + e
Encryption:       u = a*s' + e';   v = (b*s')[:slots] + e''[:slots] + Enc(mu)
Decryption:       mu = Dec(v - (u*s)[:slots])

All multiplications are ternary-times-general, which is the property
the MUL TER accelerator exploits.  The multiplication strategy is
injectable so the same protocol code runs the numpy golden model, the
cycle-annotated reference schedule, and the hardware-accelerated
schedule of the co-design layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.hashes.prng import Sha256Prng
from repro.hashes.sha256 import sha256
from repro.lac.encoding import BchDecoder, DecodedMessage, MessageCodec
from repro.lac.params import LacParams
from repro.lac.sampling import gen_a, sample_secret_and_error
from repro.metrics import OpCounter, ensure_counter
from repro.ring.poly import PolyRing
from repro.ring.ternary import TernaryPoly

#: Multiplication strategy: (ring, ternary, general, counter) -> product.
Multiplier = Callable[[PolyRing, TernaryPoly, np.ndarray, "OpCounter | None"], np.ndarray]

#: Truncated multiplication for v: (ring, ternary, general, slots,
#: counter) -> the first ``slots`` coefficients of the product.
VMultiplier = Callable[
    [PolyRing, TernaryPoly, np.ndarray, int, "OpCounter | None"], np.ndarray
]


def fast_multiplier(
    ring: PolyRing,
    ternary: TernaryPoly,
    general: np.ndarray,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Vectorized golden-model multiplication (no cycle accounting)."""
    return ring.mul(ternary.to_zq(ring.q), general)


@dataclass
class PublicKey:
    """pk = (seed_a, b): the GenA seed and the RLWE instance b = a*s + e."""

    params: LacParams
    seed_a: bytes
    b: np.ndarray

    def to_bytes(self) -> bytes:
        """Wire format: seed_a || b (one byte per coefficient)."""
        return self.seed_a + self.b.astype(np.uint8).tobytes()

    @classmethod
    def from_bytes(cls, params: LacParams, blob: bytes) -> "PublicKey":
        expected = params.public_key_bytes
        if len(blob) != expected:
            raise ValueError(f"public key must be {expected} bytes")
        seed_a = blob[: params.seed_bytes]
        b = np.frombuffer(blob[params.seed_bytes :], dtype=np.uint8).astype(np.int64)
        if np.any(b >= params.q):
            raise ValueError("public key coefficient out of range")
        return cls(params, seed_a, b)

    def digest(self) -> bytes:
        """SHA-256 binding of the public key (used by the KEM)."""
        return sha256(self.to_bytes())


@dataclass
class SecretKey:
    """sk = s, the ternary secret polynomial."""

    params: LacParams
    s: TernaryPoly

    def to_bytes(self) -> bytes:
        """Wire format: s mod q, one byte per coefficient."""
        return self.s.to_zq(self.params.q).astype(np.uint8).tobytes()

    @classmethod
    def from_bytes(cls, params: LacParams, blob: bytes) -> "SecretKey":
        if len(blob) != params.secret_key_bytes:
            raise ValueError(f"secret key must be {params.secret_key_bytes} bytes")
        coeffs = np.frombuffer(blob, dtype=np.uint8).astype(np.int64)
        return cls(params, TernaryPoly.from_zq(coeffs, params.q))


@dataclass
class Ciphertext:
    """ct = (u, v): u over the full ring, v compressed to 4 bits/slot."""

    params: LacParams
    u: np.ndarray
    v_compressed: np.ndarray

    def to_bytes(self) -> bytes:
        """Wire format: u bytes, then two 4-bit v values per byte."""
        params = self.params
        if params.v_bits != 4:
            raise NotImplementedError(
                "wire serialization packs nibbles; experimental v_bits "
                "variants are in-memory only"
            )
        u_bytes = self.u.astype(np.uint8).tobytes()
        packed = np.zeros((params.v_slots + 1) // 2, dtype=np.uint8)
        v = self.v_compressed
        packed[:] = v[0::2]
        packed[: v[1::2].size] |= v[1::2] << 4
        return u_bytes + packed.tobytes()

    @classmethod
    def from_bytes(cls, params: LacParams, blob: bytes) -> "Ciphertext":
        expected = params.ciphertext_bytes
        if len(blob) != expected:
            raise ValueError(f"ciphertext must be {expected} bytes")
        u = np.frombuffer(blob[: params.n], dtype=np.uint8).astype(np.int64)
        if np.any(u >= params.q):
            raise ValueError("ciphertext coefficient out of range")
        packed = np.frombuffer(blob[params.n :], dtype=np.uint8)
        v = np.zeros(params.v_slots, dtype=np.uint8)
        v[0::2] = packed & 0x0F
        v[1::2] = (packed >> 4)[: params.v_slots // 2]
        return cls(params, u, v)


class LacPke:
    """The CPA-secure LAC public-key encryption scheme.

    Strategy hooks (used by the co-design cycle models):

    * ``multiplier`` — full ring multiplication;
    * ``v_multiplier`` — optional truncated multiplication
      ``(ring, ternary, general, slots, counter) -> slots coefficients``
      for the v component: the reference implementation only computes
      the ``v_slots`` coefficients that carry the message (visible in
      the paper's encapsulation totals);
    * ``bch_decoder`` — optional decoder override for decryption.
    """

    def __init__(
        self,
        params: LacParams,
        multiplier: Multiplier = fast_multiplier,
        v_multiplier: VMultiplier | None = None,
        bch_decoder: BchDecoder | None = None,
    ) -> None:
        self.params = params
        self.ring = params.ring
        self.codec = MessageCodec(params)
        self.multiplier = multiplier
        self.v_multiplier = v_multiplier
        self.bch_decoder = bch_decoder

    # ------------------------------------------------------------------

    def keygen(
        self, seed: bytes, counter: OpCounter | None = None
    ) -> tuple[PublicKey, SecretKey]:
        """Derive a key pair deterministically from a master seed."""
        params = self.params
        counter = ensure_counter(counter)
        if len(seed) != params.seed_bytes:
            raise ValueError(f"seed must be {params.seed_bytes} bytes")
        root = Sha256Prng(seed)
        seed_a = root.fork(b"seed-a").seed
        seed_sk = root.fork(b"seed-sk").seed

        a = gen_a(seed_a, params, counter)
        s, e = sample_secret_and_error(seed_sk, params, 2, counter)
        with counter.phase("keygen_arith"):
            b = self.ring.add(
                self.multiplier(self.ring, s, a, counter), e.to_zq(params.q)
            )
            counter.count("loop", params.n)
            counter.count("alu", params.n)
            counter.count("modq", params.n)
            counter.count("load", 2 * params.n)
            counter.count("store", params.n)
        return PublicKey(params, seed_a, b), SecretKey(params, s)

    # ------------------------------------------------------------------

    def encrypt(
        self,
        pk: PublicKey,
        message: bytes,
        coins: bytes,
        counter: OpCounter | None = None,
    ) -> Ciphertext:
        """Deterministic encryption of a 32-byte message with given coins."""
        params = self.params
        counter = ensure_counter(counter)
        slots = params.v_slots

        a = gen_a(pk.seed_a, params, counter)
        s_prime, e_prime, e_dprime = sample_secret_and_error(coins, params, 3, counter)

        u = self.ring.add(
            self.multiplier(self.ring, s_prime, a, counter),
            e_prime.to_zq(params.q),
        )
        encoded = self.codec.encode(message, counter)
        if self.v_multiplier is not None:
            bs_slots = self.v_multiplier(self.ring, s_prime, pk.b, slots, counter)
        else:
            bs_slots = self.multiplier(self.ring, s_prime, pk.b, counter)[:slots]
        with counter.phase("encrypt_arith"):
            v_full = np.mod(
                bs_slots + e_dprime.to_zq(params.q)[:slots] + encoded[:slots],
                params.q,
            )
            counter.count("loop", params.n + slots)
            counter.count("alu", params.n + 2 * slots)
            counter.count("modq", params.n + slots)
            counter.count("load", 2 * params.n + 3 * slots)
            counter.count("store", params.n + slots)
        return Ciphertext(params, u, self.codec.compress_v(v_full))

    # ------------------------------------------------------------------

    def decrypt(
        self,
        sk: SecretKey,
        ct: Ciphertext,
        counter: OpCounter | None = None,
        constant_time_bch: bool = True,
    ) -> DecodedMessage:
        """Recover the message: threshold-decode v - u*s, then BCH-correct."""
        params = self.params
        counter = ensure_counter(counter)
        slots = params.v_slots

        us = self.multiplier(self.ring, sk.s, ct.u, counter)
        v = self.codec.decompress_v(ct.v_compressed)
        with counter.phase("decrypt_arith"):
            noisy = np.mod(v - us[:slots], params.q)
            counter.count("loop", slots)
            counter.count("alu", slots)
            counter.count("modq", slots)
            counter.count("load", 2 * slots)
            counter.count("store", slots)
        return self.codec.decode(
            noisy,
            counter,
            constant_time=constant_time_bch,
            bch_decoder=self.bch_decoder,
        )
