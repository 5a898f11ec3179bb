"""CCA-secure NewHope KEM (what a fair comparison with LAC needs).

The paper points out that "[8] only provides results for the CPA-secure
version" while its own LAC numbers are CCA — i.e., LAC's decapsulation
carries a full re-encryption that the NewHope row does not pay.  This
module supplies the missing piece: the same Fujisaki-Okamoto transform
LAC uses, wrapped around the NewHope CPA-PKE, so the CCA-vs-CCA
comparison the paper could not make becomes measurable (see the
NewHope benchmark's fairness check).

Derivations (SHAKE-256 with domain separation, mirroring
:mod:`repro.lac.kem`):

* coins  = H(m || H(pk) || "coins")
* shared = H(m || H(ct) || "shared")
* reject = H(z || H(ct) || "reject")
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass

import numpy as np

from repro.hashes.keccak import shake256
from repro.metrics import OpCounter, ensure_counter
from repro.newhope.cpa import (
    NewHopeCiphertext,
    NewHopeKeyPair,
    NewHopePke,
    Transformer,
)
from repro.newhope.params import NewHopeParams


def _hash3(a: bytes, b: bytes, label: bytes, counter: OpCounter | None = None) -> bytes:
    return shake256(a + b + label, 32, counter=counter)


def _ct_bytes(ct: NewHopeCiphertext) -> bytes:
    return ct.u_hat.astype("<u2").tobytes() + ct.v_compressed.tobytes()


def _pk_bytes(keys: NewHopeKeyPair) -> bytes:
    return keys.seed_a + keys.b_hat.astype("<u2").tobytes()


@dataclass
class NewHopeCcaSecretKey:
    """Decapsulation key: CPA keys + FO material."""

    keys: NewHopeKeyPair
    pk_digest: bytes
    z: bytes


class NewHopeCcaKem:
    """The CCA-secure NewHope KEM via the FO transform."""

    def __init__(
        self, params: NewHopeParams, transformer: Transformer | None = None
    ) -> None:
        self.params = params
        self.pke = NewHopePke(params, transformer)

    # ------------------------------------------------------------------

    def keygen(
        self, seed: bytes | None = None, counter: OpCounter | None = None
    ) -> NewHopeCcaSecretKey:
        """Generate CPA keys plus the FO material (digest, z)."""
        counter = ensure_counter(counter)
        params = self.params
        if seed is None:
            seed = secrets.token_bytes(params.seed_bytes + 32)
        if len(seed) < params.seed_bytes + 32:
            raise ValueError(
                f"seed must provide {params.seed_bytes + 32} bytes"
            )
        keys = self.pke.keygen(seed[: params.seed_bytes], counter)
        with counter.phase("kem_glue"):
            pk_digest = _hash3(_pk_bytes(keys), b"", b"pk", counter)
        return NewHopeCcaSecretKey(keys, pk_digest, seed[params.seed_bytes :][:32])

    # ------------------------------------------------------------------

    def encaps(
        self,
        sk: NewHopeCcaSecretKey,
        message: bytes | None = None,
        counter: OpCounter | None = None,
    ) -> tuple[NewHopeCiphertext, bytes]:
        """Encapsulate with FO-derived coins; returns (ct, shared)."""
        counter = ensure_counter(counter)
        params = self.params
        if message is None:
            message = secrets.token_bytes(params.message_bytes)
        with counter.phase("kem_glue"):
            coins = _hash3(message, sk.pk_digest, b"coins", counter)
        ct = self.pke.encrypt(
            sk.keys.seed_a, sk.keys.b_hat, message, coins, counter
        )
        with counter.phase("kem_glue"):
            ct_digest = _hash3(_ct_bytes(ct), b"", b"ct", counter)
            shared = _hash3(message, ct_digest, b"shared", counter)
        return ct, shared

    # ------------------------------------------------------------------

    def decaps(
        self,
        sk: NewHopeCcaSecretKey,
        ct: NewHopeCiphertext,
        counter: OpCounter | None = None,
    ) -> bytes:
        """Decrypt, re-encrypt, compare — implicit rejection on mismatch."""
        counter = ensure_counter(counter)
        message = self.pke.decrypt(sk.keys, ct, counter)
        with counter.phase("kem_glue"):
            coins = _hash3(message, sk.pk_digest, b"coins", counter)
        reencrypted = self.pke.encrypt(
            sk.keys.seed_a, sk.keys.b_hat, message, coins, counter
        )
        with counter.phase("kem_glue"):
            ct_digest = _hash3(_ct_bytes(ct), b"", b"ct", counter)
            same = np.array_equal(reencrypted.u_hat, ct.u_hat) and np.array_equal(
                reencrypted.v_compressed, ct.v_compressed
            )
            counter.count("loop", self.params.n)
            counter.count("load", 4 * self.params.n)
            counter.count("alu", 2 * self.params.n)
            if same:
                return _hash3(message, ct_digest, b"shared", counter)
            return _hash3(sk.z, ct_digest, b"reject", counter)
