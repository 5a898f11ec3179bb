"""LAC CCA-secure KEM via the Fujisaki-Okamoto transform.

The paper benchmarks the CCA variant (Table II, "Security Class CCA"),
whose decapsulation re-encrypts the recovered message and compares
ciphertexts — that re-encryption is why LAC decapsulation costs
roughly a key generation plus an encryption plus a decryption, and why
the accelerators pay off twice per decapsulation.

Key derivations (SHA-256 with domain separation):

* coins  = H(m || H(pk) || "coins")  — deterministic encryption randomness
* shared = H(m || H(ct) || "shared") — the session key
* reject = H(z || H(ct) || "reject") — implicit rejection on FO failure

:meth:`LacKem.encaps_many`/:meth:`LacKem.decaps_many` run a whole
batch through the vectorized kernels of :mod:`repro.batch` in the
caller's thread; a batch reaches an execution backend only through
:meth:`repro.backend.KemBackend.submit`.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass

from repro.bch.decoder import BCHDecoder
from repro.hashes.sha256 import sha256
from repro.lac.params import LacParams
from repro.lac.pke import Ciphertext, LacPke, PublicKey, SecretKey, Schedule
from repro.metrics import OpCounter, ensure_counter
from repro.ring.cache import KeyTransformCache


def _hash3(a: bytes, b: bytes, label: bytes, counter: OpCounter | None = None) -> bytes:
    # sha256() takes the hashlib fast path when nothing is counted
    return sha256(a + b + label, counter=counter)


def split_seed(params: LacParams, seed: bytes | None) -> tuple[bytes, bytes]:
    """``(pke_seed, z)`` of a key-generation seed: the PKE seed, then the
    next 32 bytes as the implicit-rejection secret (an OS-random seed
    when ``None``)."""
    if seed is None:
        seed = secrets.token_bytes(params.seed_bytes + 32)
    if len(seed) < params.seed_bytes + 32:
        raise ValueError(
            f"seed must provide {params.seed_bytes + 32} bytes "
            "(PKE seed + implicit-rejection secret)"
        )
    return seed[: params.seed_bytes], seed[params.seed_bytes :][:32]


@dataclass
class KemSecretKey:
    """Decapsulation key: the PKE secret, the public key (for
    re-encryption), its digest, and the implicit-rejection secret z."""

    sk: SecretKey
    pk: PublicKey
    pk_digest: bytes
    z: bytes

    def to_bytes(self) -> bytes:
        """Serialize for storage: sk || pk || pk_digest || z."""
        return self.sk.to_bytes() + self.pk.to_bytes() + self.pk_digest + self.z

    @classmethod
    def from_bytes(cls, params: LacParams, blob: bytes) -> "KemSecretKey":
        expected = (
            params.secret_key_bytes + params.public_key_bytes + 32 + 32
        )
        if len(blob) != expected:
            raise ValueError(f"KEM secret key must be {expected} bytes")
        offset = params.secret_key_bytes
        sk = SecretKey.from_bytes(params, blob[:offset])
        pk = PublicKey.from_bytes(
            params, blob[offset : offset + params.public_key_bytes]
        )
        offset += params.public_key_bytes
        pk_digest = blob[offset : offset + 32]
        z = blob[offset + 32 : offset + 64]
        return cls(sk, pk, pk_digest, z)


@dataclass
class KemKeyPair:
    public_key: PublicKey
    secret_key: KemSecretKey


@dataclass
class EncapsResult:
    ciphertext: Ciphertext
    shared_secret: bytes


class LacKem:
    """The CCA-secure LAC key encapsulation mechanism.

    ``schedule`` is the counted multiplication and decoding of a
    co-design profile (``None``: the uncounted default, as for
    :class:`~repro.lac.pke.LacPke`).
    """

    def __init__(self, params: LacParams, schedule: Schedule | None = None) -> None:
        self.params = params
        self.pke = LacPke(params, schedule)

    @property
    def constant_time_bch(self) -> bool:
        """Whether decapsulation corrects with a constant-time BCH decoder
        (every schedule's but the reference profile's)."""
        return not isinstance(self.pke.schedule.bch_decoder, BCHDecoder)

    # ------------------------------------------------------------------

    def keygen(
        self, seed: bytes | None = None, counter: OpCounter | None = None
    ) -> KemKeyPair:
        """Generate a key pair (random seed drawn from the OS when omitted)."""
        counter = ensure_counter(counter)
        pke_seed, z = split_seed(self.params, seed)
        pk, sk = self.pke.keygen(pke_seed, counter)
        with counter.phase("kem_glue"):
            pk_digest = _hash3(pk.to_bytes(), b"", b"pk", counter)
        return KemKeyPair(pk, KemSecretKey(sk, pk, pk_digest, z))

    # ------------------------------------------------------------------

    def encaps(
        self,
        pk: PublicKey,
        message: bytes | None = None,
        counter: OpCounter | None = None,
    ) -> EncapsResult:
        """Encapsulate a fresh shared secret under ``pk``.

        ``message`` fixes the FO randomness (tests/KATs only); normal
        callers leave it None for an OS-random message.
        """
        counter = ensure_counter(counter)
        params = self.params
        if message is None:
            message = secrets.token_bytes(params.message_bytes)
        if len(message) != params.message_bytes:
            raise ValueError(f"message must be {params.message_bytes} bytes")

        with counter.phase("kem_glue"):
            pk_digest = _hash3(pk.to_bytes(), b"", b"pk", counter)
            coins = _hash3(message, pk_digest, b"coins", counter)
        ciphertext = self.pke.encrypt(pk, message, coins, counter)
        with counter.phase("kem_glue"):
            ct_digest = _hash3(ciphertext.to_bytes(), b"", b"ct", counter)
            shared = _hash3(message, ct_digest, b"shared", counter)
        return EncapsResult(ciphertext, shared)

    # ------------------------------------------------------------------

    def encaps_many(
        self,
        pk: PublicKey,
        messages: list[bytes] | None = None,
        count: int | None = None,
        cache: KeyTransformCache | None = None,
    ) -> list[EncapsResult]:
        """Encapsulate a whole batch under ``pk`` (vectorized fast path).

        Stacks the batch into 2-D arrays and runs batched negacyclic
        multiplication, matrix BCH encoding and vectorized sampling
        (:mod:`repro.batch`); ``GenA`` and the public-key digest are
        computed once per batch.  Output is positionally bit-identical
        to calling :meth:`encaps` in a loop with the same messages.
        ``cache`` accepts a :class:`repro.ring.KeyTransformCache`:
        repeated batches under the same key then reuse the key-side
        forward FFT (and skip GenA), still bit-identical to the scalar
        path.  Cycle accounting is not available on the batch path —
        use the scalar method with a counter for that.
        """
        from repro.batch import encaps_many as _encaps_many

        return _encaps_many(self, pk, messages=messages, count=count, cache=cache)

    def decaps_many(
        self,
        keys: KemSecretKey,
        ciphertexts: list[Ciphertext],
        cache: KeyTransformCache | None = None,
    ) -> list[bytes]:
        """Decapsulate a whole batch (vectorized fast path).

        The counterpart of :meth:`encaps_many`; positionally identical
        to looping :meth:`decaps`, including implicit rejection.
        ``cache`` reuses the hosted key's transforms across batches, as
        for :meth:`encaps_many`.
        """
        from repro.batch import decaps_many as _decaps_many

        return _decaps_many(self, keys, ciphertexts, cache=cache)

    # ------------------------------------------------------------------

    def decaps(
        self,
        keys: KemSecretKey,
        ciphertext: Ciphertext,
        counter: OpCounter | None = None,
    ) -> bytes:
        """Recover the shared secret (implicit rejection on FO failure)."""
        counter = ensure_counter(counter)
        decoded = self.pke.decrypt(keys.sk, ciphertext, counter)
        with counter.phase("kem_glue"):
            coins = _hash3(decoded.message, keys.pk_digest, b"coins", counter)
        # FO re-encryption: the decapsulation's second big cost block
        reencrypted = self.pke.encrypt(keys.pk, decoded.message, coins, counter)
        with counter.phase("kem_glue"):
            ct_bytes = ciphertext.to_bytes()
            ct_digest = _hash3(ct_bytes, b"", b"ct", counter)
            counter.count("loop", len(ct_bytes))
            counter.count("load", 2 * len(ct_bytes))
            counter.count("alu", len(ct_bytes))
            if reencrypted.to_bytes() == ct_bytes:
                return _hash3(decoded.message, ct_digest, b"shared", counter)
            return _hash3(keys.z, ct_digest, b"reject", counter)
