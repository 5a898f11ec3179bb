"""LAC CPA-secure public-key encryption (Fig. 1 of the paper).

Key generation:   a = GenA(seed);  b = a*s + e
Encryption:       u = a*s' + e';   v = (b*s')[:slots] + e''[:slots] + Enc(mu)
Decryption:       mu = Dec(v - (u*s)[:slots])

All multiplications are ternary-times-general, which is the property
the MUL TER accelerator exploits.  One :class:`Schedule` (multipliers
and BCH decoder) is injectable, so the same protocol code runs the numpy
golden model and each counted profile of the co-design layer
(:data:`repro.cosim.protocol.PROFILE_TABLE`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.hashes.prng import Sha256Prng
from repro.hashes.sha256 import sha256
from repro.lac.encoding import BchDecoder, DecodedMessage, MessageCodec
from repro.lac.params import LacParams
from repro.lac.sampling import gen_a, sample_secret_and_error
from repro.metrics import OpCounter, ensure_counter
from repro.ring.poly import LAC_Q, PolyRing
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


@dataclass(frozen=True)
class Schedule:
    """How a run multiplies and decodes: one profile of the modelled core.

    :data:`repro.cosim.protocol.PROFILE_TABLE` builds one per Table II
    column; without one, :class:`LacPke` runs :func:`fast_multiplier`
    and the constant-time decoder, uncounted.
    """

    #: Full ring multiplication.
    multiplier: Multiplier
    #: The first ``slots`` coefficients of the ``v`` product (the
    #: reference code computes only those); ``None`` slices the full one.
    v_multiplier: VMultiplier | None
    #: Decryption's BCH decoder.
    bch_decoder: BchDecoder


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


# ---------------------------------------------------------------------------
# the ciphertext wire codec
# ---------------------------------------------------------------------------
#
# A LAC ciphertext on the wire is ``u``, one byte per coefficient (each
# < q), then ``v`` compressed to ``v_bits = 4`` and packed two slots a
# byte, low nibble first (Sec. III-C).  The functions below are that
# layout over ``(B, ciphertext_bytes)`` uint8 stacks; ``Ciphertext``
# serializes as their one-row case, and the batch kernels, the scheme
# adapter and the process backend read and write rows only through them.


#: The byte values >= q, none of which a ``u`` coefficient may take,
#: for the modulus every LAC parameter set shares.
_OUT_OF_RANGE = {LAC_Q: bytes(range(LAC_Q, 256))}


def check_u(params: LacParams, u: bytes) -> None:
    """The range rule: refuse ``u`` bytes holding a coefficient >= q."""
    table = _OUT_OF_RANGE.get(params.q) or bytes(range(params.q, 256))
    if len(u.translate(None, table)) != len(u):
        raise ValueError("ciphertext coefficient out of range")


def _require_nibbles(params: LacParams) -> None:
    if params.v_bits != 4:
        raise NotImplementedError(
            "wire serialization packs nibbles; experimental v_bits "
            "variants are in-memory only"
        )


def pack_ciphertexts(
    params: LacParams, u: np.ndarray, v_compressed: np.ndarray
) -> np.ndarray:
    """The ``(B, ciphertext_bytes)`` wire rows of ``B`` ciphertexts,
    given their ``(B, n)`` ``u`` and ``(B, v_slots)`` compressed ``v``."""
    _require_nibbles(params)
    n = params.n
    rows = np.empty((u.shape[0], params.ciphertext_bytes), dtype=np.uint8)
    rows[:, :n] = u
    packed = rows[:, n:]
    packed[:] = v_compressed[:, 0::2]
    high = v_compressed[:, 1::2]
    packed[:, : high.shape[1]] |= high << 4
    return rows


def unpack_ciphertexts(
    params: LacParams, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(u, compressed v)`` of wire rows, the inverse of
    :func:`pack_ciphertexts` (an odd ``v_slots`` leaves the last byte's
    high nibble unread).  Refuses a row of the wrong width and, by
    :func:`check_u`, a ``u`` byte >= q."""
    _require_nibbles(params)
    rows = np.asarray(rows, dtype=np.uint8)
    if rows.ndim != 2 or rows.shape[1] != params.ciphertext_bytes:
        raise ValueError(f"ciphertext must be {params.ciphertext_bytes} bytes")
    n = params.n
    u = rows[:, :n]
    check_u(params, u.tobytes())
    packed = rows[:, n:]
    v_compressed = np.empty((rows.shape[0], 2 * packed.shape[1]), dtype=np.uint8)
    v_compressed[:, 0::2] = packed & 0x0F
    v_compressed[:, 1::2] = packed >> 4
    return u, v_compressed[:, : params.v_slots]


def ciphertext_rows(params: LacParams, blobs: Sequence[bytes]) -> np.ndarray:
    """Wire ciphertexts as one read-only ``(B, ciphertext_bytes)`` block
    (one copy), each checked for its width."""
    width = params.ciphertext_bytes
    if any(len(blob) != width for blob in blobs):
        raise ValueError(f"ciphertext must be {width} bytes")
    return np.frombuffer(b"".join(blobs), dtype=np.uint8).reshape(len(blobs), width)


def ciphertext_blobs(rows: np.ndarray) -> list[bytes]:
    """Each wire row as one ``bytes`` ciphertext."""
    wire = rows.tobytes()
    width = rows.shape[1]
    return [wire[start : start + width] for start in range(0, len(wire), width)]


@dataclass
class Ciphertext:
    """ct = (u, v): u over the full ring, v compressed to 4 bits/slot."""

    params: LacParams
    u: np.ndarray
    v_compressed: np.ndarray

    def to_bytes(self) -> bytes:
        """Wire format: the one-row case of :func:`pack_ciphertexts`."""
        return pack_ciphertexts(
            self.params, self.u[None, :], self.v_compressed[None, :]
        ).tobytes()

    @classmethod
    def from_bytes(cls, params: LacParams, blob: bytes) -> "Ciphertext":
        """The one-row case of :func:`unpack_ciphertexts`."""
        u, v_compressed = unpack_ciphertexts(params, ciphertext_rows(params, [blob]))
        return cls(params, u[0].astype(np.int64), v_compressed[0])


class LacPke:
    """The CPA-secure LAC public-key encryption scheme.

    ``schedule`` is the multiplication and decoding the co-design cycle
    models count (``None``: the uncounted default).
    """

    def __init__(self, params: LacParams, schedule: Schedule | None = None) -> None:
        self.params = params
        self.ring = params.ring
        self.codec = MessageCodec(params)
        self.schedule = schedule or Schedule(fast_multiplier, None, self.codec.ct_decoder)

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
                self.schedule.multiplier(self.ring, s, a, counter), e.to_zq(params.q)
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
        schedule = self.schedule
        counter = ensure_counter(counter)
        slots = params.v_slots

        a = gen_a(pk.seed_a, params, counter)
        s_prime, e_prime, e_dprime = sample_secret_and_error(coins, params, 3, counter)

        u = self.ring.add(
            schedule.multiplier(self.ring, s_prime, a, counter),
            e_prime.to_zq(params.q),
        )
        encoded = self.codec.encode(message, counter)
        if schedule.v_multiplier is not None:
            bs_slots = schedule.v_multiplier(self.ring, s_prime, pk.b, slots, counter)
        else:
            bs_slots = schedule.multiplier(self.ring, s_prime, pk.b, counter)[:slots]
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
        self, sk: SecretKey, ct: Ciphertext, counter: OpCounter | None = None
    ) -> DecodedMessage:
        """Recover the message: threshold-decode v - u*s, then BCH-correct."""
        params = self.params
        counter = ensure_counter(counter)
        slots = params.v_slots

        us = self.schedule.multiplier(self.ring, sk.s, ct.u, counter)
        v = self.codec.decompress_v(ct.v_compressed)
        with counter.phase("decrypt_arith"):
            noisy = np.mod(v - us[:slots], params.q)
            counter.count("loop", slots)
            counter.count("alu", slots)
            counter.count("modq", slots)
            counter.count("load", 2 * slots)
            counter.count("store", slots)
        hard_bits = self.codec.threshold_decode(noisy, counter)
        return self.codec.decoded(
            hard_bits, self.schedule.bch_decoder.decode(hard_bits, counter)
        )
