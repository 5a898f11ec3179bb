"""Per-lane keys: one batched kernel call across many hosted keys.

``_encaps_chunk``/``_decaps_chunk`` take one key per lane.  Whatever the
assignment of lanes to keys — one key, two, one each, repeats in any
order — and whatever state the transform cache is in, every lane must
equal the scalar ``LacKem`` run on that lane alone, tampered lanes
included (implicit rejection under the lane's own ``z``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ring.poly as poly
from repro.batch.kem import _decaps_chunk, _encaps_chunk, warm_cache
from repro.lac.kem import LacKem
from repro.lac.params import ALL_PARAMS
from repro.lac.pke import Ciphertext, ciphertext_rows
from repro.ring import KeyTransformCache
from repro.schemes import LAC_SCHEME

POOL = 6  # hosted keys per parameter set
_BY_NAME = {p.name: p for p in ALL_PARAMS}
_HOSTED = {}


def hosted(params):
    """``(kem, pairs)`` of one parameter set, built once."""
    if params.name not in _HOSTED:
        kem = LacKem(params)
        _HOSTED[params.name] = (
            kem,
            [kem.keygen(bytes([17 * k + 1]) * 64) for k in range(POOL)],
        )
    return _HOSTED[params.name]


def make_cache(mode, params, pairs):
    if mode == "none":
        return None
    cache = KeyTransformCache(1 if mode == "capacity-1" else 64)
    if mode == "warm":
        for pair in pairs:
            warm_cache(cache, params, pair.public_key, pair.secret_key)
    return cache


def tamper(params, ciphertext):
    return Ciphertext(
        params, np.mod(ciphertext.u + 1, params.q), ciphertext.v_compressed
    )


def check_lanes(params, lanes, tampered, cache_mode):
    """Run ENCAPS then DECAPS over ``lanes`` (indices into the key pool);
    compare every lane with the scalar KEM."""
    kem, pairs = hosted(params)
    cache = make_cache(cache_mode, params, pairs)
    keys = [pairs[k] for k in lanes]
    messages = [bytes([lane, k] * 16) for lane, k in enumerate(lanes)]

    rows, secrets = _encaps_chunk(kem, [p.public_key for p in keys], messages, cache)
    assert rows.shape == (len(lanes), params.ciphertext_bytes)
    for pair, message, row, secret in zip(keys, messages, rows, secrets, strict=True):
        want = kem.encaps(pair.public_key, message)
        assert row.tobytes() == want.ciphertext.to_bytes()
        assert secret == want.shared_secret

    ciphertexts = [
        Ciphertext.from_bytes(params, row.tobytes()) for row in rows
    ]
    ciphertexts = [
        tamper(params, ct) if bad else ct
        for ct, bad in zip(ciphertexts, tampered, strict=True)
    ]
    shared = _decaps_chunk(
        kem,
        [p.secret_key for p in keys],
        ciphertext_rows(params, [ct.to_bytes() for ct in ciphertexts]),
        cache,
    )
    for pair, ct, got, secret, bad in zip(
        keys, ciphertexts, shared, secrets, tampered, strict=True
    ):
        assert got == kem.decaps(pair.secret_key, ct)
        assert (got == secret) is (not bad)
    if cache_mode == "capacity-1":
        assert len(cache) == 1 and cache.stats()["evictions"] > 0


CACHE_MODES = ("none", "cold", "warm", "capacity-1")


@pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: p.name)
@pytest.mark.parametrize("cache_mode", CACHE_MODES)
@pytest.mark.parametrize(
    "lanes",
    [[3, 3, 3, 3, 3], [0, 4, 0, 4, 4], [5, 1, 0, 3, 2], [2]],
    ids=["K=1", "K=2", "K=B", "B=1"],
)
def test_lane_by_lane_scalar_parity(params, cache_mode, lanes):
    tampered = [lane % 2 == 1 for lane in range(len(lanes))]
    check_lanes(params, lanes, tampered, cache_mode)


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(sorted(_BY_NAME)),
    shape=st.lists(
        st.tuples(st.integers(0, POOL - 1), st.booleans()), min_size=1, max_size=7
    ),
    cache_mode=st.sampled_from(CACHE_MODES),
)
def test_any_assignment_of_lanes_to_keys(name, shape, cache_mode):
    lanes, tampered = zip(*shape, strict=True)
    check_lanes(_BY_NAME[name], list(lanes), list(tampered), cache_mode)


@pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: p.name)
def test_batches_wider_than_one_ring_pass(params):
    """The products run a fixed number of coefficients per pass; a batch
    that needs several passes — and one that ends mid-pass — still
    matches the scalar KEM, one key or many."""
    rows = poly._PASS_COEFFS // params.n
    width = 2 * rows + 3
    check_lanes(params, [0] * width, [False] * width, "warm")
    check_lanes(
        params,
        [lane % POOL for lane in range(width)],
        [lane % 2 == 1 for lane in range(width)],
        "cold",
    )


@pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: p.name)
def test_equal_keys_in_distinct_objects_are_still_right(params):
    # lanes are grouped by identity; two objects holding one key's bytes
    # are two "keys" to the kernel and the same key to the cache
    kem, pairs = hosted(params)
    twin = kem.keygen(bytes([1]) * 64)
    assert twin is not pairs[0]
    assert twin.public_key.to_bytes() == pairs[0].public_key.to_bytes()
    messages = [bytes([i] * 32) for i in range(3)]
    cache = KeyTransformCache()
    mixed, _ = _encaps_chunk(
        kem, [pairs[0].public_key, twin.public_key, pairs[0].public_key],
        messages, cache,
    )
    alone, _ = _encaps_chunk(kem, [pairs[0].public_key] * 3, messages, None)
    assert np.array_equal(mixed, alone)
    assert len(cache) == 2  # a and b, once


@pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: p.name)
def test_one_key_spelling_is_the_same_kernel(params):
    """``LacKem.encaps_many(pk, ...)`` and the scheme's ``*_many`` are
    the K = 1 case of the per-lane entry points, not a second path."""
    kem, pairs = hosted(params)
    pair = pairs[1]
    messages = [bytes([i, 9] * 16) for i in range(4)]
    each = LAC_SCHEME.encaps_each(params, [pair] * 4, messages)
    assert LAC_SCHEME.encaps_many(params, pair, messages) == each
    assert [
        (r.ciphertext.to_bytes(), r.shared_secret)
        for r in kem.encaps_many(pair.public_key, messages)
    ] == each
    blobs = [ct for ct, _ in each]
    assert (
        LAC_SCHEME.decaps_many(params, pair, blobs)
        == LAC_SCHEME.decaps_each(params, [pair] * 4, blobs)
        == [shared for _, shared in each]
    )


def test_mixed_pairs_through_the_scheme_seam():
    params = ALL_PARAMS[0]
    _, pairs = hosted(params)
    order = [pairs[2], pairs[0], pairs[2], pairs[5]]
    messages = [bytes([i, 3] * 16) for i in range(4)]
    got = LAC_SCHEME.encaps_each(params, order, messages)
    assert got == [
        LAC_SCHEME.encaps_many(params, pair, [message])[0]
        for pair, message in zip(order, messages, strict=True)
    ]
    assert LAC_SCHEME.decaps_each(params, order, [ct for ct, _ in got]) == [
        shared for _, shared in got
    ]
    assert LAC_SCHEME.encaps_each(params, [], []) == []
    assert LAC_SCHEME.decaps_each(params, [], []) == []


@pytest.mark.parametrize("params", ALL_PARAMS, ids=lambda p: p.name)
def test_the_unread_nibble_decapsulates_like_the_scalar_kem(params):
    """An odd ``v_slots`` leaves the last wire byte's high nibble unread.
    The scalar KEM re-serialises what it parsed, so junk there is
    invisible to it; the row kernel must agree (accept, same secret)."""
    kem, pairs = hosted(params)
    pair = pairs[0]
    [(ct, shared)] = LAC_SCHEME.encaps_many(params, pair, [bytes(range(32))])
    junk = ct[:-1] + bytes([ct[-1] | 0xF0])
    want = kem.decaps(pair.secret_key, Ciphertext.from_bytes(params, junk))
    assert LAC_SCHEME.decaps_many(params, pair, [ct, junk]) == [shared, want]
    assert (want == shared) is (params.v_slots % 2 == 1)
