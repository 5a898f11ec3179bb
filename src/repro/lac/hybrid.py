"""Hybrid public-key encryption (KEM-DEM) on top of the LAC KEM.

The KEM transports 32-byte secrets; real payloads need a data
encapsulation mechanism.  This module provides the standard KEM-DEM
construction with primitives already in the repository:

* stream cipher: SHA-256 in counter mode, keyed from the KEM secret;
* integrity: an encrypt-then-MAC tag (keyed hash) over the whole
  ciphertext, so tampering anywhere — KEM part or payload — is
  rejected before any plaintext is released.

Wire format: ``kem_ciphertext || nonce (12) || body || tag (32)``.
"""

from __future__ import annotations

import hmac
import secrets
from dataclasses import dataclass

from repro.hashes.sha256 import sha256
from repro.lac.kem import KemSecretKey, LacKem
from repro.lac.params import LacParams
from repro.lac.pke import Ciphertext, PublicKey

_NONCE_BYTES = 12
_TAG_BYTES = 32


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += sha256(key + nonce + counter.to_bytes(8, "little"))
        counter += 1
    return bytes(out[:length])


class HybridDecryptionError(Exception):
    """Authentication failed — the ciphertext was tampered with."""


class HybridChannel:
    """The DEM half: one keyed channel bound to one KEM ciphertext.

    Derived from a KEM shared secret and the ciphertext that carried
    it; every tag covers ``kem_ct || nonce || body``.  The one
    implementation of the construction — :class:`LacHybrid` runs it per
    message and the service's ``SEAL``/``OPEN`` ops per session, which
    is what keeps served transcripts bit-identical to the library's.
    """

    def __init__(self, shared_secret: bytes, kem_ct: bytes) -> None:
        self._enc_key = sha256(shared_secret + b"hybrid-enc")
        self._mac_key = sha256(shared_secret + b"hybrid-mac")
        self._kem_ct = kem_ct

    def _xor(self, nonce: bytes, data: bytes) -> bytes:
        stream = _keystream(self._enc_key, nonce, len(data))
        return bytes(a ^ b for a, b in zip(data, stream, strict=True))

    def _tag(self, nonce: bytes, body: bytes) -> bytes:
        """Nested keyed hash (HMAC-style envelope)."""
        key = self._mac_key
        return sha256(key + sha256(key + self._kem_ct + nonce + body))

    def seal(self, nonce: bytes, plaintext: bytes) -> tuple[bytes, bytes]:
        """Encrypt-then-MAC ``plaintext``; returns ``(body, tag)``."""
        body = self._xor(nonce, plaintext)
        return body, self._tag(nonce, body)

    def open(self, nonce: bytes, body: bytes, tag: bytes) -> bytes:
        """Authenticate, then decrypt; raises :class:`HybridDecryptionError`.

        The tag compare is constant-time: how many leading bytes of a
        forged tag are right must not show in the timing.
        """
        if not hmac.compare_digest(self._tag(nonce, body), tag):
            raise HybridDecryptionError("authentication failed")
        return self._xor(nonce, body)


@dataclass
class HybridCiphertext:
    """A sealed message."""

    params: LacParams
    kem_ciphertext: Ciphertext
    nonce: bytes
    body: bytes
    tag: bytes

    def to_bytes(self) -> bytes:
        """Wire format: kem_ct || nonce || body || tag."""
        return (
            self.kem_ciphertext.to_bytes() + self.nonce + self.body + self.tag
        )

    @classmethod
    def from_bytes(cls, params: LacParams, blob: bytes) -> "HybridCiphertext":
        kem_len = params.ciphertext_bytes
        minimum = kem_len + _NONCE_BYTES + _TAG_BYTES
        if len(blob) < minimum:
            raise ValueError(f"hybrid ciphertext must be >= {minimum} bytes")
        kem_ct = Ciphertext.from_bytes(params, blob[:kem_len])
        nonce = blob[kem_len : kem_len + _NONCE_BYTES]
        body = blob[kem_len + _NONCE_BYTES : -_TAG_BYTES]
        return cls(params, kem_ct, nonce, body, blob[-_TAG_BYTES:])


class LacHybrid:
    """Seal/open arbitrary-length messages under a LAC public key."""

    def __init__(self, params: LacParams) -> None:
        self.params = params
        self.kem = LacKem(params)

    def seal(self, pk: PublicKey, plaintext: bytes) -> HybridCiphertext:
        """Encrypt and authenticate ``plaintext`` for the key holder."""
        encapsulated = self.kem.encaps(pk)
        kem_ct = encapsulated.ciphertext
        channel = HybridChannel(encapsulated.shared_secret, kem_ct.to_bytes())
        nonce = secrets.token_bytes(_NONCE_BYTES)
        body, tag = channel.seal(nonce, plaintext)
        return HybridCiphertext(self.params, kem_ct, nonce, body, tag)

    def open(self, sk: KemSecretKey, sealed: HybridCiphertext) -> bytes:
        """Authenticate and decrypt; raises on any tampering.

        Implicit rejection does the heavy lifting: a tampered KEM part
        decapsulates to a decoy secret, whose MAC key then rejects the
        tag — one uniform failure path, no decryption oracle.
        """
        shared = self.kem.decaps(sk, sealed.kem_ciphertext)
        channel = HybridChannel(shared, sealed.kem_ciphertext.to_bytes())
        return channel.open(sealed.nonce, sealed.body, sealed.tag)
