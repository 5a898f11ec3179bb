"""The ``KemScheme`` seam: one protocol for every served KEM.

Before this package the serving stack spoke exactly one dialect —
``LacParams`` in, LAC ciphertexts out — even though the repo already
carried a complete NewHope CCA KEM and a hybrid channel.  A
:class:`KemScheme` adapter narrows a scheme to the five things the
serving stack actually needs:

* **keygen** from an explicit seed (so restarts re-derive hosted keys),
* **batch encaps/decaps over wire bytes** (the scheduler coalesces
  per parameter set, across keys — a batch names one pair per item;
  the transport never sees scheme-native objects),
* **wire sizes** for request validation and response parsing,
* **param-set enumeration** so the registry can assign stable ids,
* the **public-key serialization** returned by KEYGEN.

Adapters are stateless aside from caching scheme-native engines per
parameter set (:meth:`KemScheme.kem_for`, the stack's one such cache;
an adapter names only its engine class); a ``pair`` is whatever the
scheme's ``keygen`` returns and is treated as opaque by every caller
(the LAC pair is a ``KemKeyPair``, the NewHope pair is the
``NewHopeCcaSecretKey`` that carries its own public material).

The adapter *is* the kernel: :meth:`repro.backend.KemBackend.submit`
runs ``keygen``/``encaps_many``/``decaps_many`` wherever the backend
executes, handing in its per-key transform cache.

This module depends only on the math packages (``repro.lac``,
``repro.newhope``, ``repro.ring``, ``repro.batch``) — never on
``repro.serve`` or ``repro.backend`` — so the protocol codec and the
backend seam can import it without cycles.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from typing import Any

from repro.batch.kem import key_lanes
from repro.ring.cache import KeyTransformCache


def per_pair(
    pairs: Sequence[Any],
    items: Sequence[Any],
    run: Callable[[Any, list[Any]], Sequence[Any]],
) -> list[Any]:
    """``run(pair, its items)`` once per distinct pair (told apart by
    identity), results back in item order — how a one-key kernel or
    wire serves a batch that names one pair per item."""
    distinct, lane = key_lanes(pairs)
    members: list[list[int]] = [[] for _ in distinct]
    for i, k in enumerate(lane):
        members[k].append(i)
    out: list[Any] = [None] * len(items)
    for pair, its in zip(distinct, members):
        for i, result in zip(its, run(pair, [items[i] for i in its]), strict=True):
            out[i] = result
    return out


class KemScheme(ABC):
    """One KEM family the serving stack can host.

    ``scheme_id`` is the stable wire identity (the high nibble of the
    frame param byte); ``name`` is the stable human label used in
    metrics and benchmarks.  Parameter sets are enumerated by
    :attr:`param_sets` and addressed on the wire by their index in it,
    so the tuple order is part of the wire protocol — append only.
    """

    #: Stable wire scheme id (high nibble of the frame param byte).
    scheme_id: int
    #: Stable lowercase label ("lac", "newhope").
    name: str
    #: Whether a batch costs less per item than its items one by one.
    #: A scheme whose ``*_many`` is a scalar loop says ``False``: every
    #: lane of its batch would wait for the whole loop and save nothing,
    #: so the serving layer dispatches its requests singly.
    coalesces: bool = True
    #: The scheme-native engine class, built from a parameter set.
    engine: Callable[[Any], Any]

    def __init__(self) -> None:
        self._kems: dict[str, Any] = {}

    def kem_for(self, params: Any) -> Any:
        """The cached per-parameter-set :attr:`engine` (GenA tables,
        BCH codecs, ...), built on first use."""
        kem = self._kems.get(params.name)
        if kem is None or kem.params is not params:
            kem = self._kems[params.name] = self.engine(params)
        return kem

    # ------------------------------------------------------------------
    # parameter enumeration
    # ------------------------------------------------------------------

    @property
    @abstractmethod
    def param_sets(self) -> tuple[Any, ...]:
        """All parameter sets, in wire-id order (append only)."""

    def param_index(self, params: Any) -> int:
        """The wire index of ``params`` within :attr:`param_sets`."""
        for index, candidate in enumerate(self.param_sets):
            if candidate is params or candidate.name == params.name:
                return index
        raise ValueError(
            f"{params.name!r} is not a {self.name} parameter set"
        )

    # ------------------------------------------------------------------
    # size metadata (bytes on the wire)
    # ------------------------------------------------------------------

    def seed_len(self, params: Any) -> int:
        """KEYGEN seed length: PKE seed + implicit-rejection secret."""
        return int(params.seed_bytes) + 32

    def message_bytes(self, params: Any) -> int:
        """Fixed encapsulation message size (32 for both families)."""
        return int(params.message_bytes)

    def shared_secret_bytes(self, params: Any) -> int:
        """Shared-secret size (32 for both families)."""
        return 32

    @abstractmethod
    def public_key_wire_bytes(self, params: Any) -> int:
        """Serialized public-key size as returned by KEYGEN."""

    @abstractmethod
    def ciphertext_wire_bytes(self, params: Any) -> int:
        """Serialized ciphertext size as carried by ENCAPS/DECAPS."""

    def check_ciphertext(self, params: Any, blob: bytes) -> None:
        """Raise ``ValueError`` when a wire ciphertext of the right
        length is still one the kernel would refuse outright.

        The serving layer calls it on admission, so one malformed
        request is answered alone rather than failing its whole batch.
        Schemes whose decapsulation accepts any bytes (implicit
        rejection covers them) keep this no-op default.
        """

    # ------------------------------------------------------------------
    # the KEM itself (wire-byte in, wire-byte out)
    # ------------------------------------------------------------------

    @abstractmethod
    def keygen(self, params: Any, seed: bytes | None = None) -> Any:
        """Generate a key pair; ``seed`` (``seed_len`` bytes) fixes it."""

    @abstractmethod
    def public_key_bytes_of(self, params: Any, pair: Any) -> bytes:
        """Serialize the pair's public key for the KEYGEN response."""

    def warm_key(
        self, params: Any, pair: Any, cache: KeyTransformCache | None
    ) -> list[bytes]:
        """Populate ``cache`` for a hosted pair; returns its fingerprints.

        The handles a backend keeps to reclaim the pair's entries on
        removal.  Schemes with no per-key cached state (the default)
        have none.
        """
        return []

    @abstractmethod
    def encaps_many(
        self,
        params: Any,
        pair: Any,
        messages: Sequence[bytes],
        cache: KeyTransformCache | None = None,
    ) -> list[tuple[bytes, bytes]]:
        """Encapsulate a batch; returns ``(ct_bytes, shared)`` pairs.

        Positionally bit-identical to the scheme's scalar reference
        with the same messages — that parity is what the conformance
        sweep pins.  ``cache`` is the executing backend's per-key
        transform cache, handed in by :meth:`repro.backend.KemBackend.
        submit`; it never changes a result, and schemes without
        cacheable key-side state ignore it.
        """

    @abstractmethod
    def decaps_many(
        self,
        params: Any,
        pair: Any,
        ciphertexts: Sequence[bytes],
        cache: KeyTransformCache | None = None,
    ) -> list[bytes]:
        """Decapsulate a batch of wire ciphertexts (implicit rejection)."""

    def encaps_each(
        self,
        params: Any,
        pairs: Sequence[Any],
        messages: Sequence[bytes],
        cache: KeyTransformCache | None = None,
    ) -> list[tuple[bytes, bytes]]:
        """Encapsulate ``messages[i]`` under ``pairs[i]`` — what
        :meth:`repro.backend.KemBackend.submit` runs.  By default one
        :meth:`encaps_many` per distinct pair."""
        return per_pair(
            pairs, messages, lambda pair, ms: self.encaps_many(params, pair, ms, cache)
        )

    def decaps_each(
        self,
        params: Any,
        pairs: Sequence[Any],
        ciphertexts: Sequence[bytes],
        cache: KeyTransformCache | None = None,
    ) -> list[bytes]:
        """Decapsulate ``ciphertexts[i]`` under ``pairs[i]``; by default
        one :meth:`decaps_many` per distinct pair."""
        return per_pair(
            pairs,
            ciphertexts,
            lambda pair, cts: self.decaps_many(params, pair, cts, cache),
        )

    # ------------------------------------------------------------------

    def encaps_one(
        self, params: Any, pair: Any, message: bytes
    ) -> tuple[bytes, bytes]:
        """Single encapsulation (the SESSION_OPEN handshake path)."""
        return self.encaps_many(params, pair, [message])[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<KemScheme {self.name} id={self.scheme_id}>"


__all__ = ["KemScheme", "per_pair"]
