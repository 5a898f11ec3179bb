"""NewHope CPA-PKE and CPA-KEM (the [8] baseline protocol).

NTT-domain protocol exactly as the NewHope submission defines it:

* keygen:  b_hat = a_hat o NTT(s) + NTT(e);     pk = (seed, b_hat), sk = NTT(s)
* encrypt: u_hat = a_hat o NTT(s') + NTT(e')
           v = INTT(b_hat o NTT(s')) + e'' + Encode(m), compressed to 3 bits
* decrypt: m = Decode(v - INTT(u_hat o s_hat))

Encode spreads each of the 256 message bits over ``redundancy``
coefficients (4 for n = 1024); Decode sums the distances, which is the
soft combining that gives NewHope its negligible failure rate without
an error-correcting code — the structural contrast with LAC that the
paper's related-work section draws.

The comparison rows measured in Table II are CPA (no FO re-encryption),
which is why [8]'s decapsulation is so much cheaper than its
encapsulation; the KEM here mirrors that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.bitutils import bytes_to_bits
from repro.hashes.keccak import ShakePrng, shake256
from repro.metrics import OpCounter, ensure_counter
from repro.newhope.params import NewHopeParams
from repro.newhope.sampling import gen_a, sample_noise_polys


class Transformer(Protocol):
    """Forward/inverse NTT strategy: the software
    :class:`repro.ring.ntt.NttContext` by default; the cycle model
    injects the accelerator model so transforms are priced."""

    def forward(self, poly: np.ndarray) -> np.ndarray:
        """Negacyclic forward transform of a coefficient vector."""
        ...

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Inverse transform back to coefficients."""
        ...


@dataclass
class NewHopeKeyPair:
    params: NewHopeParams
    seed_a: bytes
    b_hat: np.ndarray
    s_hat: np.ndarray


@dataclass
class NewHopeCiphertext:
    params: NewHopeParams
    u_hat: np.ndarray
    v_compressed: np.ndarray


class NewHopePke:
    """The CPA-secure NewHope public-key encryption scheme."""

    def __init__(
        self, params: NewHopeParams, transformer: Transformer | None = None
    ) -> None:
        self.params = params
        self.ntt = params.ntt
        #: forward/inverse transforms (defaults to the pure software
        #: context; the cycle model injects the accelerator)
        self.transformer: Transformer = transformer or self.ntt

    # ------------------------------------------------------------------

    def keygen(
        self, seed: bytes, counter: OpCounter | None = None
    ) -> NewHopeKeyPair:
        """b_hat = a_hat o NTT(s) + NTT(e); keys stay in the NTT domain."""
        params = self.params
        counter = ensure_counter(counter)
        if len(seed) != params.seed_bytes:
            raise ValueError(f"seed must be {params.seed_bytes} bytes")
        root = ShakePrng(seed)
        seed_a = root.fork(b"seed-a").seed
        seed_noise = root.fork(b"seed-noise").seed

        a_hat = gen_a(seed_a, params, counter)
        s, e = sample_noise_polys(seed_noise, params, 2, counter)
        with counter.phase("ntt"):
            s_hat = self.transformer.forward(s)
            e_hat = self.transformer.forward(e)
        with counter.phase("keygen_arith"):
            b_hat = (self.ntt.pointwise(a_hat, s_hat) + e_hat) % params.q
            counter.count("loop", params.n)
            counter.count("mul", params.n)
            counter.count("modq", 2 * params.n)
            counter.count("load", 3 * params.n)
            counter.count("store", params.n)
        return NewHopeKeyPair(params, seed_a, b_hat, s_hat)

    # ------------------------------------------------------------------

    def encrypt(
        self,
        seed_a: bytes,
        b_hat: np.ndarray,
        message: bytes,
        coins: bytes,
        counter: OpCounter | None = None,
    ) -> NewHopeCiphertext:
        """Deterministic encryption of a 32-byte message with given coins."""
        params = self.params
        counter = ensure_counter(counter)
        if len(message) != params.message_bytes:
            raise ValueError(f"message must be {params.message_bytes} bytes")

        a_hat = gen_a(seed_a, params, counter)
        s_prime, e_prime, e_dprime = sample_noise_polys(coins, params, 3, counter)
        with counter.phase("ntt"):
            t_hat = self.transformer.forward(s_prime)
            e_prime_hat = self.transformer.forward(e_prime)
        with counter.phase("encrypt_arith"):
            u_hat = (self.ntt.pointwise(a_hat, t_hat) + e_prime_hat) % params.q
            counter.count("loop", params.n)
            counter.count("mul", params.n)
            counter.count("modq", 2 * params.n)
            counter.count("load", 3 * params.n)
            counter.count("store", params.n)
        with counter.phase("ntt"):
            masked = self.transformer.inverse(self.ntt.pointwise(b_hat, t_hat))
        with counter.phase("encrypt_arith"):
            v_full = (masked + e_dprime + self.encode(message)) % params.q
            counter.count("loop", params.n)
            counter.count("mul", params.n)
            counter.count("alu", 2 * params.n)
            counter.count("modq", 2 * params.n)
            counter.count("load", 3 * params.n)
            counter.count("store", params.n)
        return NewHopeCiphertext(params, u_hat, self.compress_v(v_full))

    # ------------------------------------------------------------------

    def decrypt(
        self,
        keys: NewHopeKeyPair,
        ct: NewHopeCiphertext,
        counter: OpCounter | None = None,
    ) -> bytes:
        """Recover the message: v - INTT(u_hat o s_hat), then Decode."""
        params = self.params
        counter = ensure_counter(counter)
        with counter.phase("ntt"):
            mask = self.transformer.inverse(
                self.ntt.pointwise(ct.u_hat, keys.s_hat)
            )
        with counter.phase("decrypt_arith"):
            noisy = np.mod(self.decompress_v(ct.v_compressed) - mask, params.q)
            counter.count("loop", params.n)
            counter.count("alu", params.n)
            counter.count("modq", params.n)
            counter.count("load", 2 * params.n)
            counter.count("store", params.n)
        return self.decode(noisy, counter)

    # ------------------------------------------------------------------
    # message encoding: repetition over `redundancy` coefficients
    # ------------------------------------------------------------------

    def encode(self, message: bytes) -> np.ndarray:
        """Spread each message bit over ``redundancy`` coefficients."""
        params = self.params
        bits = bytes_to_bits(message, 8 * params.message_bytes)
        amplitude = params.q // 2
        # bit i occupies coefficients i, i+256, i+512, ... (spec layout)
        return np.tile(bits, params.redundancy).astype(np.int64) * amplitude

    def decode(self, noisy: np.ndarray, counter: OpCounter | None = None) -> bytes:
        """Summed-distance majority vote back to 32 message bytes."""
        params = self.params
        counter = ensure_counter(counter)
        q, half = params.q, params.q // 2
        values = np.mod(noisy, q).reshape(params.redundancy, -1)
        distance_zero = np.minimum(values, q - values).sum(axis=0)
        shifted = np.mod(values - half, q)
        distance_half = np.minimum(shifted, q - shifted).sum(axis=0)
        with counter.phase("threshold"):
            counter.count("loop", params.n)
            counter.count("load", params.n)
            counter.count("alu", 5 * params.n)
            counter.count("store", params.n // params.redundancy)
        bits = (distance_half < distance_zero).astype(np.uint8)
        return np.packbits(bits, bitorder="little").tobytes()

    # ------------------------------------------------------------------
    # v compression (3 bits per coefficient)
    # ------------------------------------------------------------------

    def compress_v(self, v: np.ndarray) -> np.ndarray:
        """Round each coefficient to ``v_bits`` bits (NewHope's 3)."""
        q, bits = self.params.q, self.params.v_bits
        return ((np.mod(v, q) * (1 << bits) + q // 2) // q % (1 << bits)).astype(
            np.uint8
        )

    def decompress_v(self, compressed: np.ndarray) -> np.ndarray:
        """Expand compressed values back to Z_q midpoints."""
        q, bits = self.params.q, self.params.v_bits
        return (compressed.astype(np.int64) * q + (1 << (bits - 1))) >> bits


class NewHopeCpaKem:
    """CPA-secure KEM (what [8] benchmarks: no re-encryption check)."""

    def __init__(
        self, params: NewHopeParams, transformer: Transformer | None = None
    ) -> None:
        self.params = params
        self.pke = NewHopePke(params, transformer)

    def keygen(self, seed: bytes, counter: OpCounter | None = None) -> NewHopeKeyPair:
        """Generate a CPA key pair from a 32-byte seed."""
        return self.pke.keygen(seed, counter)

    def encaps(
        self,
        keys_or_pk: NewHopeKeyPair,
        message: bytes | None = None,
        counter: OpCounter | None = None,
    ) -> tuple[NewHopeCiphertext, bytes]:
        """Encapsulate a shared secret (CPA: hash-derived, no FO check)."""
        params = self.params
        counter = ensure_counter(counter)
        if message is None:
            import secrets

            message = secrets.token_bytes(params.message_bytes)
        with counter.phase("kem_glue"):
            coins = shake256(message + b"coins", 32, counter=counter)
        ct = self.pke.encrypt(
            keys_or_pk.seed_a, keys_or_pk.b_hat, message, coins, counter
        )
        with counter.phase("kem_glue"):
            shared = shake256(message + b"shared", 32, counter=counter)
        return ct, shared

    def decaps(
        self,
        keys: NewHopeKeyPair,
        ct: NewHopeCiphertext,
        counter: OpCounter | None = None,
    ) -> bytes:
        """Decrypt and hash: the cheap CPA decapsulation of [8]."""
        counter = ensure_counter(counter)
        message = self.pke.decrypt(keys, ct, counter)
        with counter.phase("kem_glue"):
            return shake256(message + b"shared", 32, counter=counter)
