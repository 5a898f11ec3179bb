"""The LAC adapter: ``KemScheme`` over :mod:`repro.lac`.

Wire formats are exactly the ones the serving stack has always used —
``PublicKey.to_bytes()`` / ``Ciphertext.to_bytes()`` — so LAC keys
registered through the scheme seam are bit-compatible with every
pre-registry client.  Batch entry points route through
:meth:`repro.lac.kem.LacKem.encaps_many` / ``decaps_many`` (the PR-1
vectorized fast path), so scheme-seam parity with the scalar reference
is inherited rather than re-proven.  The adapter's :meth:`kem_for` is
the serving stack's one ``LacKem`` cache, and the transform cache a
backend hands to the batch entry points is the one its
:meth:`warm_key` populated at registration.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

from repro.batch.kem import key_fingerprints, warm_cache
from repro.lac.kem import KemKeyPair, LacKem
from repro.lac.params import ALL_PARAMS, LacParams
from repro.lac.pke import Ciphertext
from repro.ring.cache import KeyTransformCache
from repro.schemes.base import KemScheme


class LacScheme(KemScheme):
    """LAC-128/192/256 behind the scheme seam (wire scheme id 0)."""

    scheme_id = 0
    name = "lac"

    def __init__(self) -> None:
        self._kems: dict[str, LacKem] = {}

    @property
    def param_sets(self) -> tuple[LacParams, ...]:
        return ALL_PARAMS

    def owns_params(self, params: Any) -> bool:
        """True for ``LacParams`` values."""
        return isinstance(params, LacParams)

    # ------------------------------------------------------------------

    def kem_for(self, params: LacParams) -> LacKem:
        """The cached per-parameter-set engine (GenA tables, BCH)."""
        kem = self._kems.get(params.name)
        if kem is None or kem.params is not params:
            kem = LacKem(params)
            self._kems[params.name] = kem
        return kem

    # ------------------------------------------------------------------

    def public_key_wire_bytes(self, params: LacParams) -> int:
        """``PublicKey.to_bytes()`` length (seed || packed b)."""
        return params.public_key_bytes

    def ciphertext_wire_bytes(self, params: LacParams) -> int:
        """``Ciphertext.to_bytes()`` length for this parameter set."""
        return params.ciphertext_bytes

    # ------------------------------------------------------------------

    def keygen(self, params: LacParams, seed: bytes | None = None) -> KemKeyPair:
        """A fresh (or seed-derived) :class:`KemKeyPair`."""
        return self.kem_for(params).keygen(seed)

    def public_key_bytes_of(self, params: LacParams, pair: KemKeyPair) -> bytes:
        """The pair's public key in wire form."""
        return pair.public_key.to_bytes()

    def warm_key(
        self, params: LacParams, pair: KemKeyPair, cache: KeyTransformCache | None
    ) -> list[bytes]:
        """Pay GenA and the key-side forward FFTs now, not on the first
        batch; without a cache the (content-derived) fingerprints are
        still returned."""
        if cache is None:
            return key_fingerprints(params, pair.public_key, pair.secret_key)
        return warm_cache(cache, params, pair.public_key, pair.secret_key)

    def encaps_many(
        self,
        params: LacParams,
        pair: KemKeyPair,
        messages: Sequence[bytes],
        cache: KeyTransformCache | None = None,
    ) -> list[tuple[bytes, bytes]]:
        """Batch encapsulation via the PR-1 vectorized fast path."""
        results = self.kem_for(params).encaps_many(
            pair.public_key, messages=list(messages), cache=cache
        )
        return [(r.ciphertext.to_bytes(), r.shared_secret) for r in results]

    def decaps_many(
        self,
        params: LacParams,
        pair: KemKeyPair,
        ciphertexts: Sequence[bytes],
        cache: KeyTransformCache | None = None,
    ) -> list[bytes]:
        """Batch decapsulation (implicit rejection included)."""
        cts = [Ciphertext.from_bytes(params, blob) for blob in ciphertexts]
        return self.kem_for(params).decaps_many(pair.secret_key, cts, cache=cache)


__all__ = ["LacScheme"]
