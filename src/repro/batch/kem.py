"""Batched LAC KEM operations (the production fast path).

The scalar :class:`repro.lac.kem.LacKem` methods process one operation
at a time through the cycle-model reference code.  This module stacks a
whole batch of operations — KEYGEN (:func:`keygen_many`), ENCAPS and
DECAPS — into 2-D numpy arrays and runs the ring arithmetic as batched
negacyclic multiplications (:meth:`repro.ring.poly.PolyRing.mul_many`,
one half-length ring transform for the whole stack), the BCH encode as
one masked XOR reduction, and the samplers through their vectorized
twins — while producing key pairs, ciphertexts and shared secrets
bit-identical to looping the scalar API (a tested invariant across all
three LAC parameter sets).  Every served or hosted LAC key comes from
:func:`keygen_many`; the scalar :meth:`LacKem.keygen` stays the counted
reference.

**Wire rows.**  Ciphertexts enter and leave the kernels as one
``(B, ciphertext_bytes)`` ``uint8`` block, packed and unpacked by the
one ciphertext codec in :mod:`repro.lac.pke`
(:func:`~repro.lac.pke.pack_ciphertexts`,
:func:`~repro.lac.pke.unpack_ciphertexts`), whose one-row case is
:meth:`~repro.lac.pke.Ciphertext.to_bytes`.  No ``Ciphertext`` is
built per lane; :func:`encaps_many`/:func:`decaps_many` convert at
their own edge.

Amortization wins on top of vectorization:

* ``a = GenA(seed_a)`` is expanded **once per distinct key of a
  batch** instead of once per operation (both in encapsulation and in
  the decapsulation re-encryption);
* the public-key digest is hashed once per distinct key;
* SHA-256 runs through the hashlib-backed fast path throughout.

**Per-lane keys.**  The kernels (:func:`_encrypt_batch`,
:func:`_encaps_chunk`, :func:`_decaps_chunk`) take one key per lane —
the paper's MUL TER loads a fresh general operand every run, and a
served batch likewise mixes the requests of many hosted keys.  The
batch's K distinct keys are resolved once each (through the transform
cache when there is one) — never once per lane — and their ``(n,)``
operands and ``(n/2,)`` transforms gathered by lane index into the one
ring product; K = 1 — what :func:`encaps_many`/:func:`decaps_many`
pass — skips the gather and broadcasts the single operand.

A batch here runs in the caller's thread.  To run one elsewhere (a
pool thread, the multi-process backend, the simulated core), submit it
to a :class:`repro.backend.KemBackend`: its ``submit`` is the one way a
batch reaches a backend, and it calls back into these kernels through
the LAC scheme adapter.
"""

from __future__ import annotations

import secrets
from collections.abc import Sequence
from typing import TypeVar

import numpy as np

from repro.batch.encode import encode_many
from repro.batch.sampling import gen_a_vec, sample_secret_rows
from repro.hashes.prng import Sha256Prng
from repro.lac.kem import (
    EncapsResult,
    KemKeyPair,
    KemSecretKey,
    LacKem,
    _hash3,
    split_seed,
)
from repro.lac.params import LacParams
from repro.lac.pke import (
    Ciphertext,
    PublicKey,
    SecretKey,
    ciphertext_blobs,
    ciphertext_rows,
    pack_ciphertexts,
    unpack_ciphertexts,
)
from repro.ring.cache import KeyTransformCache, fingerprint
from repro.ring.ternary import TernaryPoly
from repro.trace import current_tags

_T = TypeVar("_T")


# ---------------------------------------------------------------------------
# per-key transform caching
# ---------------------------------------------------------------------------


def pk_fingerprints(params: LacParams, pk: PublicKey) -> tuple[bytes, bytes]:
    """Content fingerprints of a public key's cacheable ring operands.

    Returns ``(fp_a, fp_b)``: the GenA expansion ``a`` is a pure
    function of ``seed_a``, so its fingerprint is seed-derived and a
    cache hit skips the expansion entirely; ``b`` is fingerprinted by
    value.
    """
    return (
        fingerprint(b"gen-a", params.name.encode(), pk.seed_a),
        fingerprint(b"pk-b", params.name.encode(), pk.b.astype(np.uint8).tobytes()),
    )


def sk_fingerprint(params: LacParams, keys: KemSecretKey) -> bytes:
    """Content fingerprint of the hosted secret polynomial ``s``."""
    return fingerprint(
        b"sk-s", params.name.encode(), keys.sk.to_bytes()
    )


def key_fingerprints(
    params: LacParams, pk: PublicKey, keys: KemSecretKey | None = None
) -> list[bytes]:
    """Every cache fingerprint a hosted key can populate (pk, and sk if given)."""
    fps = list(pk_fingerprints(params, pk))
    if keys is not None:
        fps.append(sk_fingerprint(params, keys))
    return fps


def warm_cache(
    cache: KeyTransformCache,
    params: LacParams,
    pk: PublicKey,
    keys: KemSecretKey | None = None,
) -> list[bytes]:
    """Eagerly populate the transform cache for a hosted key.

    Pays the GenA expansion and the forward FFTs outside any serving
    window (key registration), so the first batch under the key already
    hits.  The secret row is stored in the same ``[1, n]`` shape
    :func:`_decaps_chunk` uses, keeping the cached transform reusable
    there.  Returns the fingerprints populated — the handle the owner
    keeps for later :meth:`~repro.ring.cache.KeyTransformCache.invalidate`.
    """
    ring = params.ring
    fp_a, fp_b = pk_fingerprints(params, pk)
    cache.operand(ring, fp_a, lambda: gen_a_vec(pk.seed_a, params))
    cache.operand(ring, fp_b, lambda: pk.b)
    fps = [fp_a, fp_b]
    if keys is not None:
        fp_s = sk_fingerprint(params, keys)
        cache.operand(
            ring, fp_s, lambda: keys.sk.s.coeffs.astype(np.int64)[None, :]
        )
        fps.append(fp_s)
    return fps


def _annotate_cache(hits: int, misses: int) -> None:
    """Accumulate cache counters into the ambient trace-tag sink.

    Additive (not a plain overwrite) because decapsulation touches the
    cache twice per chunk — once for ``u*s``, once for the FO
    re-encryption — and a process batch's chunks share one sink.
    """
    tags = current_tags()
    if tags is not None and (hits or misses):
        tags["cache_hits"] = tags.get("cache_hits", 0) + hits
        tags["cache_misses"] = tags.get("cache_misses", 0) + misses


def key_lanes(keys: Sequence[_T]) -> tuple[list[_T], list[int]]:
    """A batch's distinct keys, first seen first, and each lane's index
    into them — the one place a batch naming one key per lane is
    grouped (:func:`repro.schemes.base.per_pair` groups by it too).

    Keys are told apart by identity: a hosted key is one object however
    many lanes name it.  Every lane runs the same lines whichever key it
    names (``tests/test_constant_ops.py`` traces this module).
    """
    slots: dict[int, int] = {}
    lane = [slots.setdefault(id(key), len(slots)) for key in keys]
    distinct = list({id(key): key for key in keys}.values())
    return distinct, lane


def _gather(parts: Sequence[np.ndarray], lane: list[int]) -> np.ndarray:
    """Per-lane rows of the distinct keys' arrays, one copy made (one
    key: the array itself, which broadcasts)."""
    if len(parts) == 1:
        return parts[0]
    return np.vstack([parts[k] for k in lane])


def _pk_operands(
    params: LacParams,
    pks: Sequence[PublicKey],
    lane: list[int],
    cache: KeyTransformCache | None,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, np.ndarray | None]:
    """Resolve ``(a, fa, b, fb)`` of the distinct ``pks`` for the
    encryption products, per lane.

    Without a cache ``a`` is expanded per distinct key per batch and no
    transform is precomputed.  With one, both operands and their
    forward transforms come from the cache; on a hit the GenA expansion
    is skipped entirely.
    """
    if cache is None:
        return (
            _gather([gen_a_vec(pk.seed_a, params) for pk in pks], lane),
            None,
            _gather([pk.b for pk in pks], lane),
            None,
        )
    ring = params.ring
    got_a, got_b = [], []
    for pk in pks:
        fp_a, fp_b = pk_fingerprints(params, pk)
        got_a.append(
            cache.operand(ring, fp_a, lambda pk=pk: gen_a_vec(pk.seed_a, params))
        )
        got_b.append(cache.operand(ring, fp_b, lambda pk=pk: pk.b))
    hits = sum(got.hit for got in got_a + got_b)
    _annotate_cache(hits, 2 * len(pks) - hits)
    return (
        _gather([got.raw for got in got_a], lane),
        _gather([got.transform for got in got_a], lane),
        _gather([got.raw for got in got_b], lane),
        _gather([got.transform for got in got_b], lane),
    )


def _encrypt_batch(
    kem: LacKem,
    pks: Sequence[PublicKey],
    lane: list[int],
    messages: Sequence[bytes],
    coins_list: Sequence[bytes],
    cache: KeyTransformCache | None = None,
) -> np.ndarray:
    """Deterministic batched encryption (shared by encaps and re-encrypt):
    the ``(B, ciphertext_bytes)`` wire rows.

    ``pks`` are the batch's distinct public keys and ``lane`` each
    message's index into them, as :func:`key_lanes` gives them (one
    key: its operands broadcast).
    """
    params = kem.params
    ring = params.ring
    slots = params.v_slots
    q = params.q

    # rows b*3+0/1/2 are the batch's s'/e'/e'' polynomials (int8: each
    # third is widened where it is used, never the whole matrix)
    all_rows = sample_secret_rows(list(coins_list), params, 3)
    s_rows = all_rows[0::3]
    e_rows = np.mod(all_rows[1::3].astype(np.int16), q)
    e2_rows = np.mod(all_rows[2::3, :slots].astype(np.int16), q)

    # one forward transform of the secret stack feeds both products; the
    # key-side transforms come from the per-key cache when enabled
    a, fa, b, fb = _pk_operands(params, pks, lane, cache)
    sa_rows, sb_rows = ring.mul_many_multi(
        s_rows, [a, b], operand_transforms=[fa, fb]
    )
    u_rows = np.mod(sa_rows + e_rows, q)
    bs_rows = sb_rows[:, :slots]
    encoded = encode_many(params, list(messages))[:, :slots]
    v_rows = np.mod(bs_rows + e2_rows + encoded, q)
    return pack_ciphertexts(params, u_rows, kem.pke.codec.compress_v(v_rows))


def _encaps_chunk(
    kem: LacKem,
    pks: Sequence[PublicKey],
    messages: Sequence[bytes],
    cache: KeyTransformCache | None = None,
) -> tuple[np.ndarray, list[bytes]]:
    """Encapsulate ``messages[i]`` under ``pks[i]``: the
    ``(B, ciphertext_bytes)`` wire rows and the shared secrets."""
    distinct, lane = key_lanes(pks)
    digests = [_hash3(pk.to_bytes(), b"", b"pk") for pk in distinct]
    coins_list = [
        _hash3(message, digests[k], b"coins") for message, k in zip(messages, lane)
    ]
    rows = _encrypt_batch(kem, distinct, lane, messages, coins_list, cache)
    shared = [
        _hash3(message, _hash3(ct, b"", b"ct"), b"shared")
        for message, ct in zip(messages, ciphertext_blobs(rows))
    ]
    return rows, shared


def _decaps_chunk(
    kem: LacKem,
    keys: Sequence[KemSecretKey],
    rows: np.ndarray,
    cache: KeyTransformCache | None = None,
) -> list[bytes]:
    """Decapsulate wire row ``rows[i]`` under ``keys[i]``.

    ``rows`` is the ``(B, ciphertext_bytes)`` block of
    :func:`~repro.lac.pke.ciphertext_rows`.  A ``u`` coefficient >= q
    fails the batch by the codec's range rule, as
    :meth:`Ciphertext.from_bytes` does; the service rejects such a
    request before it is batched.
    """
    params = kem.params
    ring = params.ring
    slots = params.v_slots
    q = params.q
    codec = kem.pke.codec

    u_rows, v_compressed = unpack_ciphertexts(params, rows)

    distinct, lane = key_lanes(keys)
    s_parts = [key.sk.s.coeffs.astype(np.int64)[None, :] for key in distinct]
    if cache is not None:
        got_s = [
            cache.operand(ring, sk_fingerprint(params, key), lambda part=part: part)
            for key, part in zip(distinct, s_parts)
        ]
        hits = sum(got.hit for got in got_s)
        _annotate_cache(hits, len(got_s) - hits)
        us_rows = ring.mul_many(
            _gather([got.raw for got in got_s], lane),
            u_rows,
            a_transform=_gather([got.transform for got in got_s], lane),
        )
    else:
        us_rows = ring.mul_many(_gather(s_parts, lane), u_rows)
    noisy_rows = np.mod(codec.decompress_v(v_compressed) - us_rows[:, :slots], q)

    decoded = codec.decode_many(noisy_rows)
    messages = [d.message for d in decoded]
    coins_list = [
        _hash3(message, key.pk_digest, b"coins")
        for message, key in zip(messages, keys)
    ]

    candidates = _encrypt_batch(
        kem, [key.pk for key in distinct], lane, messages, coins_list, cache
    )
    # the FO comparison and hash see the ciphertext as the scalar KEM
    # does, re-serialised; one whole-block equality, no early exit
    canonical = pack_ciphertexts(params, u_rows, v_compressed)
    accepted = np.all(candidates == canonical, axis=1).tolist()

    shared = []
    blobs = ciphertext_blobs(canonical)
    for key, message, ct, ok in zip(keys, messages, blobs, accepted):
        ct_digest = _hash3(ct, b"", b"ct")
        # implicit rejection, exactly as the scalar FO transform, as one
        # select: both outcomes run the same lines and one hash
        secret, label = ((key.z, b"reject"), (message, b"shared"))[ok]
        shared.append(_hash3(secret, ct_digest, label))
    return shared


# ---------------------------------------------------------------------------
# public API (surfaced as LacScheme.keygen, LacKem.encaps_many and
# LacKem.decaps_many)
# ---------------------------------------------------------------------------


def keygen_many(
    kem: LacKem, seeds: Sequence[bytes | None]
) -> list[KemKeyPair]:
    """Generate one key pair per seed (``None``: an OS-random seed).

    Positionally identical to calling :meth:`LacKem.keygen` with each
    seed: the seed is split by the same :func:`split_seed` and the PKE
    seed into ``seed_a``/``seed_sk`` by the same PRNG forks.  GenA runs
    per seed, one :func:`sample_secret_rows` call squeezes every
    ``s``/``e`` row of the batch and one
    :meth:`~repro.ring.poly.PolyRing.mul_many` computes every
    ``b = a*s + e``.
    """
    params = kem.params
    split = [split_seed(params, seed) for seed in seeds]
    if not split:
        return []
    roots = [Sha256Prng(pke_seed) for pke_seed, _ in split]
    seed_as = [root.fork(b"seed-a").seed for root in roots]
    seed_sks = [root.fork(b"seed-sk").seed for root in roots]

    # rows b*2+0/1 are key b's s/e polynomials
    rows = sample_secret_rows(seed_sks, params, 2)
    s_rows = rows[0::2]
    a_rows = np.vstack([gen_a_vec(seed_a, params) for seed_a in seed_as])
    b_rows = np.mod(params.ring.mul_many(s_rows, a_rows) + rows[1::2], params.q)

    pairs = []
    for (_, z), seed_a, s, b in zip(split, seed_as, s_rows, b_rows):
        pk = PublicKey(params, seed_a, b)
        pk_digest = _hash3(pk.to_bytes(), b"", b"pk")
        sk = SecretKey(params, TernaryPoly(s))
        pairs.append(KemKeyPair(pk, KemSecretKey(sk, pk, pk_digest, z)))
    return pairs


def encaps_many(
    kem: LacKem,
    pk: PublicKey,
    messages: Sequence[bytes] | None = None,
    count: int | None = None,
    cache: KeyTransformCache | None = None,
) -> list[EncapsResult]:
    """Encapsulate a batch of shared secrets under one public key.

    Either pass explicit ``messages`` (tests/KATs, batch size = its
    length) or a ``count`` of OS-random messages.  Results are
    positionally identical to calling :meth:`LacKem.encaps` in a loop
    with the same messages.  ``cache`` supplies a
    :class:`repro.ring.KeyTransformCache` so repeated batches under the
    same key skip the key-side forward FFT (and the GenA expansion) —
    results stay bit-identical either way.
    """
    if messages is None:
        if count is None:
            raise ValueError("pass either messages or count")
        messages = [
            secrets.token_bytes(kem.params.message_bytes) for _ in range(count)
        ]
    elif count is not None and count != len(messages):
        raise ValueError("count disagrees with len(messages)")
    messages = list(messages)
    for message in messages:
        if len(message) != kem.params.message_bytes:
            raise ValueError(
                f"message must be {kem.params.message_bytes} bytes"
            )
    if not messages:
        return []
    rows, shared = _encaps_chunk(kem, [pk] * len(messages), messages, cache)
    # one unpack over the block: each Ciphertext holds its row of it
    u, v_compressed = unpack_ciphertexts(kem.params, rows)
    u = u.astype(np.int64)
    return [
        EncapsResult(Ciphertext(kem.params, u[lane], v_compressed[lane]), secret)
        for lane, secret in enumerate(shared)
    ]


def decaps_many(
    kem: LacKem,
    keys: KemSecretKey,
    ciphertexts: Sequence[Ciphertext],
    cache: KeyTransformCache | None = None,
) -> list[bytes]:
    """Decapsulate a batch of ciphertexts under one secret key.

    Results are positionally identical to calling
    :meth:`LacKem.decaps` in a loop (including implicit rejection of
    malformed ciphertexts).  ``cache`` caches the hosted key's
    transforms across batches, exactly as for :func:`encaps_many`.
    """
    ciphertexts = list(ciphertexts)
    if not ciphertexts:
        return []
    rows = ciphertext_rows(kem.params, [ct.to_bytes() for ct in ciphertexts])
    return _decaps_chunk(kem, [keys] * len(ciphertexts), rows, cache)
