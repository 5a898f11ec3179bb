"""The LAC adapter: ``KemScheme`` over :mod:`repro.lac`.

Wire formats are exactly the ones the serving stack has always used —
``PublicKey.to_bytes()`` / ``Ciphertext.to_bytes()`` — so LAC keys
registered through the scheme seam are bit-compatible with every
pre-registry client.  Batch entry points run the vectorized kernels of
:mod:`repro.batch.kem`, which take one key per lane; the one-key
``encaps_many``/``decaps_many`` are the same kernel with every lane
naming that key.  The adapter's ``kem_for`` (inherited from
:class:`~repro.schemes.base.KemScheme`) is the serving stack's one
``LacKem`` cache, and the transform cache a backend hands to the batch
entry points is the one its :meth:`warm_key` populated at
registration.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.batch.kem import (
    _decaps_chunk,
    _encaps_chunk,
    key_fingerprints,
    keygen_many,
    warm_cache,
)
from repro.lac.kem import KemKeyPair, LacKem
from repro.lac.params import ALL_PARAMS, LacParams
from repro.lac.pke import ciphertext_blobs, ciphertext_rows, check_u
from repro.ring.cache import KeyTransformCache
from repro.schemes.base import KemScheme


class LacScheme(KemScheme):
    """LAC-128/192/256 behind the scheme seam (wire scheme id 0)."""

    scheme_id = 0
    name = "lac"
    engine = LacKem

    @property
    def param_sets(self) -> tuple[LacParams, ...]:
        return ALL_PARAMS

    # ------------------------------------------------------------------

    def public_key_wire_bytes(self, params: LacParams) -> int:
        """``PublicKey.to_bytes()`` length (seed || packed b)."""
        return params.public_key_bytes

    def ciphertext_wire_bytes(self, params: LacParams) -> int:
        """``Ciphertext.to_bytes()`` length for this parameter set."""
        return params.ciphertext_bytes

    def check_ciphertext(self, params: LacParams, blob: bytes) -> None:
        """Reject a ``u`` byte >= q: the codec's range rule, as
        ``Ciphertext.from_bytes`` applies it."""
        check_u(params, blob[: params.n])

    # ------------------------------------------------------------------

    def keygen(self, params: LacParams, seed: bytes | None = None) -> KemKeyPair:
        """A fresh (or seed-derived) :class:`KemKeyPair`, from the batch
        kernel (bit-identical to the scalar :meth:`LacKem.keygen`)."""
        return keygen_many(self.kem_for(params), [seed])[0]

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

    def encaps_each(
        self,
        params: LacParams,
        pairs: Sequence[KemKeyPair],
        messages: Sequence[bytes],
        cache: KeyTransformCache | None = None,
    ) -> list[tuple[bytes, bytes]]:
        """One vectorized batch across the pairs' public keys."""
        if not messages:
            return []
        rows, shared = _encaps_chunk(
            self.kem_for(params), [pair.public_key for pair in pairs], messages, cache
        )
        return list(zip(ciphertext_blobs(rows), shared))

    def decaps_each(
        self,
        params: LacParams,
        pairs: Sequence[KemKeyPair],
        ciphertexts: Sequence[bytes],
        cache: KeyTransformCache | None = None,
    ) -> list[bytes]:
        """One vectorized batch across the pairs' secret keys (implicit
        rejection included)."""
        if not ciphertexts:
            return []
        return _decaps_chunk(
            self.kem_for(params),
            [pair.secret_key for pair in pairs],
            ciphertext_rows(params, ciphertexts),
            cache,
        )

    def encaps_many(
        self,
        params: LacParams,
        pair: KemKeyPair,
        messages: Sequence[bytes],
        cache: KeyTransformCache | None = None,
    ) -> list[tuple[bytes, bytes]]:
        """:meth:`encaps_each` with every message under ``pair``."""
        return self.encaps_each(params, [pair] * len(messages), messages, cache)

    def decaps_many(
        self,
        params: LacParams,
        pair: KemKeyPair,
        ciphertexts: Sequence[bytes],
        cache: KeyTransformCache | None = None,
    ) -> list[bytes]:
        """:meth:`decaps_each` with every ciphertext under ``pair``."""
        return self.decaps_each(params, [pair] * len(ciphertexts), ciphertexts, cache)


__all__ = ["LacScheme"]
