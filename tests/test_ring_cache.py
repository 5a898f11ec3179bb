"""Per-key transform cache: exactness, lifecycle, and plumbing.

The cache (:mod:`repro.ring.cache`) may only ever be an *accelerator*:
every multiplication through a cached transform must be bit-identical
to the cold batched path and to the scalar golden model, across
parameter sets and across hit/miss states.  The property sweep here
pins that, and the lifecycle tests pin the LRU/invalidation contract
the backends rely on (invalidate-on-removal, eviction under pressure,
no stale hits after re-registration — the latter holds by
content-addressing, which is also asserted directly).
"""

import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import CosimBackend, InlineBackend
from repro.batch import gen_a_vec, key_fingerprints, warm_cache
from repro.batch.kem import pk_fingerprints, sk_fingerprint
from repro.lac.kem import LacKem
from repro.lac.params import ALL_PARAMS, LAC_128, LAC_256
from repro.ring.cache import (
    DEFAULT_CACHE_ENTRIES,
    KeyTransformCache,
    fingerprint,
)
from repro.ring.poly import PolyRing
from repro.schemes import LAC_SCHEME
from repro.trace import collect_tags

MAX_EXAMPLES = int(os.environ.get("REPRO_PROPERTY_MAX_EXAMPLES", "20"))

SWEEP = settings(max_examples=MAX_EXAMPLES, deadline=None)
#: KEM-level parity runs full encaps/decaps batches — keep it tighter.
SLOW_SWEEP = settings(max_examples=max(4, MAX_EXAMPLES // 4), deadline=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestFingerprint:
    def test_length_prefix_is_injective(self):
        assert fingerprint(b"ab", b"c") != fingerprint(b"a", b"bc")
        assert fingerprint(b"x", b"") != fingerprint(b"", b"x")

    def test_domain_separation(self):
        assert fingerprint(b"gen-a", b"k") != fingerprint(b"pk-b", b"k")

    def test_deterministic_16_bytes(self):
        fp = fingerprint(b"d", b"payload")
        assert fp == fingerprint(b"d", b"payload")
        assert len(fp) == 16

    def test_key_fingerprints_cover_sk_when_given(self):
        kem = LacKem(LAC_128)
        pair = kem.keygen(bytes(64))
        pk_only = key_fingerprints(LAC_128, pair.public_key)
        with_sk = key_fingerprints(LAC_128, pair.public_key, pair.secret_key)
        assert len(pk_only) == 2
        assert len(with_sk) == 3
        assert with_sk[:2] == pk_only
        assert len(set(with_sk)) == 3


class TestCacheParityProperties:
    """Cache-hit multiplication is bit-identical to cold and scalar."""

    @given(seed=seeds)
    @SWEEP
    def test_cached_mul_many_matches_cold_and_scalar(self, seed):
        ring = PolyRing(64)
        rng = np.random.default_rng(seed)
        stacked = np.stack([ring.random(rng) for _ in range(4)])
        b = ring.random(rng)
        cache = KeyTransformCache(capacity=8)
        fp = fingerprint(b"test-b", seed.to_bytes(4, "little"))
        cold = ring.mul_many(stacked, b)
        for _ in range(2):  # first pass misses, second hits
            got = cache.operand(ring, fp, lambda: b)
            warm = ring.mul_many(stacked, got.raw, b_transform=got.transform)
            assert np.array_equal(warm, cold)
        for row, a in zip(cold, stacked):
            assert np.array_equal(row, ring.mul(a, b))
        assert cache.counters()[:2] == (1, 1)

    @given(seed=seeds)
    @SWEEP
    def test_cached_mul_many_multi_matches_cold(self, seed):
        ring = PolyRing(64)
        rng = np.random.default_rng(seed)
        stacked = rng.integers(-1, 2, (3, ring.n), dtype=np.int64)
        operands = [ring.random(rng), ring.random(rng)]
        cache = KeyTransformCache(capacity=8)
        transforms = [
            cache.operand(
                ring, fingerprint(b"multi", bytes([i])), lambda b=b: b
            ).transform
            for i, b in enumerate(operands)
        ]
        cold = ring.mul_many_multi(stacked, operands)
        warm = ring.mul_many_multi(
            stacked, operands, operand_transforms=transforms
        )
        mixed = ring.mul_many_multi(
            stacked, operands, operand_transforms=[transforms[0], None]
        )
        for c, w, m in zip(cold, warm, mixed):
            assert np.array_equal(c, w)
            assert np.array_equal(c, m)

    @given(seed=seeds)
    @SLOW_SWEEP
    @pytest.mark.parametrize("params", [LAC_128, LAC_256], ids=lambda p: p.name)
    def test_kem_batches_bit_identical_through_cache(self, params, seed):
        kem = LacKem(params)
        rng = np.random.default_rng(seed)
        pair = kem.keygen(bytes(rng.integers(0, 256, 64, dtype=np.uint8)))
        messages = [
            bytes(rng.integers(0, 256, params.message_bytes, dtype=np.uint8))
            for _ in range(3)
        ]
        cache = KeyTransformCache(capacity=16)
        cold = kem.encaps_many(pair.public_key, messages)
        # two passes: the first populates, the second runs fully warm
        for _ in range(2):
            warm = kem.encaps_many(pair.public_key, messages, cache=cache)
            for c, w in zip(cold, warm):
                assert w.ciphertext.to_bytes() == c.ciphertext.to_bytes()
                assert w.shared_secret == c.shared_secret
        cts = [r.ciphertext for r in cold]
        cold_shared = kem.decaps_many(pair.secret_key, cts)
        for _ in range(2):
            assert (
                kem.decaps_many(pair.secret_key, cts, cache=cache)
                == cold_shared
            )
        # scalar golden model closes the loop
        assert cold_shared == [kem.decaps(pair.secret_key, ct) for ct in cts]
        assert cold_shared == [r.shared_secret for r in cold]


class TestCacheLifecycle:
    def _entry(self, cache, ring, label):
        rng = np.random.default_rng(abs(hash(label)) % 2**32)
        return cache.operand(ring, fingerprint(b"life", label), lambda: ring.random(rng))

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            KeyTransformCache(capacity=0)
        assert KeyTransformCache().capacity == DEFAULT_CACHE_ENTRIES

    def test_returned_arrays_are_read_only(self):
        ring = PolyRing(16)
        cache = KeyTransformCache(capacity=4)
        got = self._entry(cache, ring, b"ro")
        with pytest.raises(ValueError):
            got.raw[0] = 1
        with pytest.raises(ValueError):
            got.transform[0] = 0j

    def test_caller_mutating_source_does_not_poison_cache(self):
        ring = PolyRing(16)
        cache = KeyTransformCache(capacity=4)
        source = ring.random(np.random.default_rng(3))
        original = source.copy()
        cache.operand(ring, fingerprint(b"mut", b"x"), lambda: source)
        source[0] = (source[0] + 1) % ring.q
        again = cache.operand(ring, fingerprint(b"mut", b"x"), lambda: source)
        assert again.hit
        assert np.array_equal(again.raw, original)  # copied at insert

    def test_lru_eviction_under_pressure(self):
        ring = PolyRing(16)
        cache = KeyTransformCache(capacity=2)
        self._entry(cache, ring, b"a")
        self._entry(cache, ring, b"b")
        self._entry(cache, ring, b"a")  # refresh a: b is now LRU
        self._entry(cache, ring, b"c")  # evicts b
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1
        assert self._entry(cache, ring, b"a").hit
        assert not self._entry(cache, ring, b"b").hit  # b was evicted

    def test_invalidate_drops_entries_and_counts(self):
        ring = PolyRing(16)
        cache = KeyTransformCache(capacity=8)
        fps = [fingerprint(b"life", label) for label in (b"a", b"b", b"c")]
        for label in (b"a", b"b", b"c"):
            self._entry(cache, ring, label)
        assert cache.invalidate(fps[:2]) == 2
        assert len(cache) == 1
        stats = cache.stats()
        assert stats["invalidations"] == 2
        assert cache.invalidate([fps[0]]) == 0  # already gone: idempotent

    def test_clear_counts_as_invalidations(self):
        ring = PolyRing(16)
        cache = KeyTransformCache(capacity=8)
        self._entry(cache, ring, b"a")
        self._entry(cache, ring, b"b")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["invalidations"] == 2

    def test_rings_do_not_alias(self):
        # same fingerprint, different ring triple -> distinct entries
        cache = KeyTransformCache(capacity=8)
        fp = fingerprint(b"alias", b"x")
        a = cache.operand(PolyRing(16), fp, lambda: np.arange(16))
        b = cache.operand(PolyRing(16, negacyclic=False), fp, lambda: np.arange(16))
        assert len(cache) == 2
        assert not b.hit
        # distinct entries, each its own ring's transform
        for got, negacyclic in ((a, True), (b, False)):
            ring = PolyRing(16, negacyclic=negacyclic)
            assert np.array_equal(got.transform, ring.forward_transform(np.arange(16)))

    def test_concurrent_misses_converge_to_one_entry(self):
        ring = PolyRing(64)
        cache = KeyTransformCache(capacity=4)
        fp = fingerprint(b"race", b"x")
        produced = []

        def produce():
            value = ring.random(np.random.default_rng(1))
            produced.append(value)
            return value

        results = []
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait()
            results.append(cache.operand(ring, fp, produce))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) == 1
        final = cache.operand(ring, fp, produce)
        assert final.hit
        for got in results:
            # every caller saw the single resident arrays, bit for bit
            assert np.array_equal(got.raw, final.raw)
            assert np.array_equal(got.transform, final.transform)


class TestKemLevelLifecycle:
    """The cache through the key lifecycle the backends drive."""

    def test_warm_cache_prepays_every_miss(self):
        kem = LacKem(LAC_128)
        pair = kem.keygen(bytes(64))
        cache = KeyTransformCache(capacity=16)
        fps = warm_cache(cache, LAC_128, pair.public_key, pair.secret_key)
        assert fps == key_fingerprints(LAC_128, pair.public_key, pair.secret_key)
        assert len(cache) == 3
        misses_after_warm = cache.stats()["misses"]
        messages = [bytes(LAC_128.message_bytes)] * 2
        results = kem.encaps_many(pair.public_key, messages, cache=cache)
        cts = [r.ciphertext for r in results]
        kem.decaps_many(pair.secret_key, cts, cache=cache)
        stats = cache.stats()
        assert stats["misses"] == misses_after_warm  # fully warm
        assert stats["hits"] > 0

    @pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: p.name)
    def test_resident_bytes_per_entry_are_bounded(self, params):
        """What a hosted key keeps resident: per entry the complex
        transform plus *one byte* per raw coefficient — the raw operand
        only feeds the exact fallback, and every LAC operand fits."""
        kem = LacKem(params)
        pair = kem.keygen(bytes(range(64)))
        cache = KeyTransformCache(capacity=8)
        fps = warm_cache(cache, params, pair.public_key, pair.secret_key)
        n = params.n
        originals = (
            gen_a_vec(pair.public_key.seed_a, params),
            pair.public_key.b,
            pair.secret_key.sk.s.coeffs[None, :],
        )
        for fp, original in zip(fps, originals):
            got = cache.operand(params.ring, fp, lambda: pytest.fail("not resident"))
            assert got.hit
            assert got.raw.nbytes + got.transform.nbytes <= n + 16 * (n + 1)
            assert np.array_equal(got.raw, original)  # nothing lost narrowing
            assert got.raw.shape == original.shape

    def test_operands_too_wide_for_a_byte_stay_exact(self):
        ring = PolyRing(16, q=12289)
        wide = np.arange(16, dtype=np.int64) * 700
        signed = np.array([-200, 300] * 8, dtype=np.int64)
        cache = KeyTransformCache(capacity=4)
        for tag, source in ((b"wide", wide), (b"signed", signed)):
            got = cache.operand(ring, fingerprint(b"w", tag), lambda s=source: s)
            assert got.raw.dtype == np.int64
            assert np.array_equal(got.raw, source)

    def test_invalidation_on_key_removal(self):
        kem = LacKem(LAC_128)
        pair = kem.keygen(bytes(64))
        cache = KeyTransformCache(capacity=16)
        fps = warm_cache(cache, LAC_128, pair.public_key, pair.secret_key)
        assert cache.invalidate(fps) == 3
        assert len(cache) == 0
        # the key still works afterwards — invalidation is memory-only
        result = kem.encaps_many(pair.public_key, count=1, cache=cache)[0]
        assert (
            kem.decaps_many(pair.secret_key, [result.ciphertext], cache=cache)
            == [result.shared_secret]
        )

    def test_no_stale_hits_after_re_registration(self):
        # content addressing: re-registering the same key re-derives the
        # same fingerprints (a legitimate hit); a *rotated* key derives
        # different ones and can never alias the old entries
        kem = LacKem(LAC_128)
        old = kem.keygen(bytes(64))
        new = kem.keygen(bytes(range(64)))
        cache = KeyTransformCache(capacity=16)
        old_fps = warm_cache(cache, LAC_128, old.public_key, old.secret_key)
        assert warm_cache(cache, LAC_128, old.public_key, old.secret_key) == old_fps
        assert cache.stats()["hits"] == 3  # same content -> safe hits
        new_fps = warm_cache(cache, LAC_128, new.public_key, new.secret_key)
        assert set(new_fps).isdisjoint(old_fps)
        # rotation without invalidation: the new key computes correctly
        result = kem.encaps_many(new.public_key, count=1, cache=cache)[0]
        assert kem.decaps_many(
            new.secret_key, [result.ciphertext], cache=cache
        ) == [result.shared_secret]

    def test_eviction_pressure_keeps_results_exact(self):
        # capacity far below the working set: every batch misses and
        # evicts, results must stay bit-identical throughout
        kem = LacKem(LAC_128)
        pairs = [kem.keygen(bytes([i]) * 64) for i in range(3)]
        cache = KeyTransformCache(capacity=2)  # < 3 entries per key
        message = bytes(LAC_128.message_bytes)
        for _ in range(2):
            for pair in pairs:
                (warm,) = kem.encaps_many(pair.public_key, [message], cache=cache)
                cold = kem.encaps(pair.public_key, message)
                assert warm.ciphertext.to_bytes() == cold.ciphertext.to_bytes()
                assert warm.shared_secret == cold.shared_secret
        assert cache.stats()["evictions"] > 0
        assert len(cache) <= 2

    def test_trace_tags_accumulate_hits_and_misses(self):
        kem = LacKem(LAC_128)
        pair = kem.keygen(bytes(64))
        cache = KeyTransformCache(capacity=16)
        with collect_tags() as tags:
            kem.encaps_many(pair.public_key, count=1, cache=cache)
        assert tags == {"cache_hits": 0, "cache_misses": 2}
        with collect_tags() as tags:
            kem.encaps_many(pair.public_key, count=1, cache=cache)
        assert tags == {"cache_hits": 2, "cache_misses": 0}
        with collect_tags() as tags:
            # no cache -> no tags at all
            kem.encaps_many(pair.public_key, count=1)
        assert tags == {}


class TestBackendCacheOwnership:
    """The backend seam: register/invalidate hooks and stats export."""

    def test_backend_owns_a_default_cache(self):
        backend = InlineBackend()
        try:
            assert backend.transform_cache is not None
            assert backend.transform_cache.capacity == DEFAULT_CACHE_ENTRIES
            stats = backend.stats()["transform_cache"]
            assert stats["entries"] == 0
        finally:
            backend.close()

    def test_cache_entries_zero_disables(self):
        # the simulated core runs the scalar kernels, which never read
        # a transform cache, so its backend keeps none
        backend = CosimBackend()
        try:
            assert backend.transform_cache is None
            assert backend.stats()["transform_cache"] is None
            # registration still returns fingerprints for bookkeeping
            kem = LacKem(LAC_128)
            pair = kem.keygen(bytes(64))
            fps = backend.register_key(LAC_SCHEME, LAC_128, pair)
            assert fps == key_fingerprints(
                LAC_128, pair.public_key, pair.secret_key
            )
            assert backend.invalidate_key(fps) == 0
        finally:
            backend.close()

    def test_register_then_serve_hits(self):
        backend = InlineBackend()
        kem = LacKem(LAC_128)
        pair = kem.keygen(bytes(64))
        try:
            fps = backend.register_key(LAC_SCHEME, LAC_128, pair)
            assert len(backend.transform_cache) == 3
            message = bytes(LAC_128.message_bytes)
            [(ct_bytes, shared)] = backend.submit(
                LAC_SCHEME, LAC_128, "ENCAPS", [pair], [message]
            ).result()
            reference = kem.encaps(pair.public_key, message)
            assert ct_bytes == reference.ciphertext.to_bytes()
            assert shared == reference.shared_secret
            assert backend.submit(
                LAC_SCHEME, LAC_128, "DECAPS", [pair], [ct_bytes]
            ).result() == [shared]
            stats = backend.stats()["transform_cache"]
            assert stats["hits"] >= 4  # a+b on encaps, s+a+b on decaps
            assert stats["misses"] == 3  # registration only
            assert backend.invalidate_key(fps) == 3
            assert backend.stats()["transform_cache"]["entries"] == 0
        finally:
            backend.close()

    def test_fingerprints_match_batch_helpers(self):
        kem = LacKem(LAC_256)
        pair = kem.keygen(bytes(64))
        fp_a, fp_b = pk_fingerprints(LAC_256, pair.public_key)
        fp_s = sk_fingerprint(LAC_256, pair.secret_key)
        assert key_fingerprints(LAC_256, pair.public_key, pair.secret_key) == [
            fp_a,
            fp_b,
            fp_s,
        ]
