"""The NewHope adapter: ``KemScheme`` over :mod:`repro.newhope.cca`.

The CCA module serializes with ``_ct_bytes`` / ``_pk_bytes`` — raw
little-endian 16-bit NTT-domain coefficients and the *unpacked* 3-bit
compressed component (one byte per coefficient) — not the 14-bit
packed sizes ``NewHopeParams`` quotes for the paper comparison.  The
wire sizes here follow the serialization actually used by the FO
transform (the ciphertext digest hashes these exact bytes), so a
served decapsulation is bit-identical to the scalar reference:

* public key  = seed_a (32) || b_hat as ``<u2``        = 32 + 2n bytes
* ciphertext  = u_hat as ``<u2`` || v_compressed bytes = 3n bytes

The pair object is the :class:`~repro.newhope.cca.NewHopeCcaSecretKey`
itself — NewHope encapsulation needs the pk digest the secret key
carries, so unlike LAC there is no separate public half to pass
around.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.newhope.cca import NewHopeCcaKem, NewHopeCcaSecretKey, _pk_bytes
from repro.newhope.cpa import NewHopeCiphertext
from repro.newhope.params import NEWHOPE_512, NEWHOPE_1024, NewHopeParams
from repro.ring.cache import KeyTransformCache
from repro.schemes.base import KemScheme


class NewHopeScheme(KemScheme):
    """NewHope512/1024 (CCA, FO transform) behind the scheme seam."""

    scheme_id = 1
    name = "newhope"
    #: ``encaps_many``/``decaps_many`` below are scalar loops
    coalesces = False
    engine = NewHopeCcaKem

    @property
    def param_sets(self) -> tuple[NewHopeParams, ...]:
        return (NEWHOPE_512, NEWHOPE_1024)

    # ------------------------------------------------------------------

    def public_key_wire_bytes(self, params: NewHopeParams) -> int:
        """seed_a (32) || b_hat as ``<u2`` = 32 + 2n bytes."""
        return params.seed_bytes + 2 * params.n

    def ciphertext_wire_bytes(self, params: NewHopeParams) -> int:
        """u_hat as ``<u2`` (2n) || v_compressed bytes (n) = 3n bytes."""
        return 3 * params.n

    # ------------------------------------------------------------------

    def keygen(
        self, params: NewHopeParams, seed: bytes | None = None
    ) -> NewHopeCcaSecretKey:
        """A fresh (or seed-derived) CCA secret key (pk included)."""
        return self.kem_for(params).keygen(seed)

    def public_key_bytes_of(
        self, params: NewHopeParams, pair: NewHopeCcaSecretKey
    ) -> bytes:
        """The pair's public key in wire form (FO-digest bytes)."""
        return _pk_bytes(pair.keys)

    def encaps_many(
        self,
        params: NewHopeParams,
        pair: NewHopeCcaSecretKey,
        messages: Sequence[bytes],
        cache: KeyTransformCache | None = None,
    ) -> list[tuple[bytes, bytes]]:
        """Sequential CCA encapsulations, serialized to wire bytes."""
        kem = self.kem_for(params)
        out: list[tuple[bytes, bytes]] = []
        for message in messages:
            ct, shared = kem.encaps(pair, message)
            out.append(
                (ct.u_hat.astype("<u2").tobytes() + ct.v_compressed.tobytes(), shared)
            )
        return out

    def decaps_many(
        self,
        params: NewHopeParams,
        pair: NewHopeCcaSecretKey,
        ciphertexts: Sequence[bytes],
        cache: KeyTransformCache | None = None,
    ) -> list[bytes]:
        """Sequential CCA decapsulations from wire-format ciphertexts."""
        kem = self.kem_for(params)
        return [kem.decaps(pair, self._parse_ct(params, blob)) for blob in ciphertexts]

    # ------------------------------------------------------------------

    def _parse_ct(self, params: NewHopeParams, blob: bytes) -> NewHopeCiphertext:
        expected = self.ciphertext_wire_bytes(params)
        if len(blob) != expected:
            raise ValueError(f"ciphertext must be {expected} bytes")
        split = 2 * params.n
        u_hat = np.frombuffer(blob[:split], dtype="<u2").astype(np.int64)
        v_compressed = np.frombuffer(blob[split:], dtype=np.uint8)
        return NewHopeCiphertext(params, u_hat, v_compressed)


__all__ = ["NewHopeScheme"]
